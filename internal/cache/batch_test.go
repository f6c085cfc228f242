package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
)

// scatterBatch generates a random scattered address batch with the
// shapes DataBatch sees: exact duplicates, same-line and same-page
// neighbours, page-crossers, and cold far jumps — interleaved so
// repeated lines are separated by arbitrary other traffic that may
// evict them or push them down their sets.
func scatterBatch(r *rand.Rand, n int) []addr.Address {
	hot := make([]addr.Address, 1+r.Intn(8))
	for i := range hot {
		hot[i] = addr.Address(0x8000_0000 + r.Intn(1<<22))
	}
	mems := make([]addr.Address, n)
	for i := range mems {
		switch r.Intn(10) {
		case 0, 1, 2: // exact duplicate of a hot address
			mems[i] = hot[r.Intn(len(hot))]
		case 3, 4: // same line as a hot address
			mems[i] = hot[r.Intn(len(hot))] + addr.Address(r.Intn(64))
		case 5, 6: // same page, different line
			mems[i] = hot[r.Intn(len(hot))]&^0xFFF + addr.Address(r.Intn(1<<12))
		case 7: // page-crosser neighbourhood (straddles page boundaries)
			mems[i] = hot[r.Intn(len(hot))]&^0xFFF + 0xFF8 + addr.Address(r.Intn(16))
		default: // cold scatter
			mems[i] = addr.Address(0x8000_0000 + r.Intn(1<<26))
		}
	}
	return mems
}

// Property: Hierarchy.DataBatch is bit-for-bit equivalent to the per-op
// AccessData/Access loop over random scattered batches — identical
// events (index, extra cycles, miss flags), identical final state in
// every level, and identical residency tracking (DataFree answers) —
// including batches full of duplicates, conflict-evicting sets, and
// mid-batch L1 flushes between batches.
func TestDataBatchMatchesPerOpQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bulk := DefaultHierarchy()
		perop := DefaultHierarchy()
		for run := 0; run < 8; run++ {
			// Interleaved instruction fetches (only the ITLB moves).
			pc := addr.Address(0x6000_0000 + r.Intn(1<<20)*4)
			for i := 0; i < r.Intn(20); i++ {
				bulk.AccessInstr(pc)
				perop.AccessInstr(pc)
				pc += addr.Address(1 + r.Intn(2048))
			}
			n := 1 + r.Intn(300)
			mems := scatterBatch(r, n)
			type outcome struct {
				extra uint32
				dmiss bool
				l2    bool
			}
			events := bulk.DataBatch(mems, nil)
			ei := 0
			for i, a := range mems {
				var w outcome
				w.extra, w.dmiss = perop.AccessData(a)
				ce, l2 := perop.Access(a)
				w.extra += ce
				w.l2 = l2
				noteworthy := w.dmiss || w.l2 || w.extra != 0
				if ei < len(events) && events[ei].Index == i {
					ev := events[ei]
					ei++
					if !noteworthy || ev.Extra != w.extra || ev.DTLBMiss != w.dmiss || ev.L2Miss != w.l2 {
						t.Logf("seed %d run %d op %d (addr %x): event %+v, want %+v (noteworthy=%v)",
							seed, run, i, a, ev, w, noteworthy)
						return false
					}
				} else if noteworthy {
					t.Logf("seed %d run %d op %d (addr %x): missing event for %+v", seed, run, i, a, w)
					return false
				}
			}
			if ei != len(events) {
				t.Logf("seed %d run %d: %d spurious events", seed, run, len(events)-ei)
				return false
			}
			// Residency tracking must agree too: the batched engine's
			// guaranteed-hit proof consults it right after batches.
			for i := 0; i < 16; i++ {
				a := mems[r.Intn(n)] + addr.Address(r.Intn(128))
				if bulk.DataFree(a) != perop.DataFree(a) {
					t.Logf("seed %d run %d: DataFree(%x) diverged: %v vs %v",
						seed, run, a, bulk.DataFree(a), perop.DataFree(a))
					return false
				}
			}
			if r.Intn(6) == 0 {
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

// A batch of eight touches to one line misses once and then hits the
// front slot seven times: statistics count every op and the line stays
// in front of its set.
func TestDataBatchSingleProbeCounts(t *testing.T) {
	h := DefaultHierarchy()
	mems := make([]addr.Address, 8)
	for i := range mems {
		mems[i] = 0x8000_0000 + addr.Address(i*8)
	}
	events := h.DataBatch(mems, nil)
	// First op misses DTLB+L1+L2 (cold); the other seven are silent hits.
	if len(events) != 1 || events[0].Index != 0 || !events[0].DTLBMiss || !events[0].L2Miss {
		t.Fatalf("events = %+v, want one cold miss at index 0", events)
	}
	acc, misses := h.L1.Stats()
	if acc != 8 || misses != 1 {
		t.Fatalf("L1 stats = %d/%d, want 8 accesses, 1 miss", acc, misses)
	}
	line := uint64(mems[0]) >> h.L1.lineBits
	if set := h.L1.set(line); set[0] != line {
		t.Fatalf("L1 set = %x, want line %x in front", set, line)
	}
	if !h.DataFree(mems[7]) {
		t.Fatal("DataFree should hold on the batch's final line")
	}
}
