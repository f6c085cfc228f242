package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
)

// runStrides are the stride shapes DataRun must handle: degenerate
// (0, all ops on one line), sub-line, line-sized, and line- and
// page-crossing (larger than any configured line).
var runStrides = []uint32{0, 1, 3, 8, 16, 64, 100, 4096, 5000}

// stateEqual compares complete cache state: geometry, every tag slot
// (so each set's recency order), and cumulative statistics.
func stateEqual(t *testing.T, a, b *Cache) bool {
	t.Helper()
	if a.cfg != b.cfg || a.accesses != b.accesses || a.misses != b.misses || a.gen != b.gen {
		t.Logf("scalar state diverged: acc %d/%d miss %d/%d gen %d/%d",
			a.accesses, b.accesses, a.misses, b.misses, a.gen, b.gen)
		return false
	}
	for i := range a.tags {
		if a.tags[i] != b.tags[i] {
			t.Logf("slot %d diverged: tag %x/%x", i, a.tags[i], b.tags[i])
			return false
		}
	}
	return true
}

// Property: Hierarchy.DataRun is bit-for-bit equivalent to the per-op
// AccessData/Access loop — the recorded events carry exactly the
// per-op extra cycles and miss flags, and every level (L1, L2, DTLB)
// lands in identical final state — including with instruction fetches
// interleaved between runs (fetches touch only the ITLB, which is the
// independence DataRun's upfront replay relies on).
func TestDataRunMatchesPerOpQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bulk := DefaultHierarchy()
		perop := DefaultHierarchy()
		for run := 0; run < 8; run++ {
			// Interleaved instruction fetches, often crossing pages.
			pc := addr.Address(0x6000_0000 + r.Intn(1<<20)*4)
			for i := 0; i < r.Intn(30); i++ {
				bulk.AccessInstr(pc)
				perop.AccessInstr(pc)
				pc += addr.Address(1 + r.Intn(2048))
			}
			start := addr.Address(0x8000_0000 + r.Intn(1<<20)*8)
			stride := runStrides[r.Intn(len(runStrides))]
			n := 1 + r.Intn(500)
			type outcome struct {
				extra uint32
				dmiss bool
				l2    bool
			}
			events := bulk.DataRun(start, stride, n, nil)
			ei := 0
			for i := 0; i < n; i++ {
				a := start + addr.Address(uint64(i)*uint64(stride))
				var w outcome
				w.extra, w.dmiss = perop.AccessData(a)
				ce, l2, _ := perop.Access(a)
				w.extra += ce
				w.l2 = l2
				noteworthy := w.dmiss || w.l2 || w.extra != 0
				if ei < len(events) && events[ei].Index == i {
					ev := events[ei]
					ei++
					if !noteworthy || ev.Extra != w.extra || ev.DTLBMiss != w.dmiss || ev.L2Miss != w.l2 {
						t.Logf("run %d op %d: event %+v, want %+v (noteworthy=%v)", run, i, ev, w, noteworthy)
						return false
					}
				} else if noteworthy {
					t.Logf("run %d op %d: missing event for %+v", run, i, w)
					return false
				}
			}
			if ei != len(events) {
				t.Logf("run %d: %d spurious events", run, len(events)-ei)
				return false
			}
			if r.Intn(6) == 0 {
				// The kernel cold-flushes L1 directly at context switch.
				bulk.L1.Flush()
				perop.L1.Flush()
			}
			if !stateEqual(t, bulk.L1, perop.L1) || !stateEqual(t, bulk.L2, perop.L2) ||
				!stateEqual(t, bulk.DTLB, perop.DTLB) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
