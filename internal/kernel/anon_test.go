package kernel

import (
	"testing"

	"viprof/internal/addr"
	"viprof/internal/cache"
)

// launchSizes are the anonymous mappings a VM makes at launch, in order:
// statics, native scratch, heap.
var launchSizes = []uint64{8 << 10, 256 << 10, 128<<10 + 4<<10}

// mapAll maps each size into p and returns the bases.
func mapAll(t *testing.T, m *Machine, p *Process, sizes []uint64) []addr.Address {
	t.Helper()
	bases := make([]addr.Address, len(sizes))
	for i, size := range sizes {
		base, err := m.Kern.MapAnon(p, size, i == len(sizes)-1)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = base
	}
	return bases
}

// checkDisjoint fails if any two of the processes' anonymous mappings
// share a byte.
func checkDisjoint(t *testing.T, procs ...*Process) {
	t.Helper()
	var all []addr.VMA
	for _, p := range procs {
		for _, v := range p.Space.All() {
			if v.Anonymous() {
				all = append(all, v)
			}
		}
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[i].Start < all[j].End && all[j].Start < all[i].End {
				t.Errorf("anonymous mappings overlap: %s-%s and %s-%s",
					all[i].Start, all[i].End, all[j].Start, all[j].End)
			}
		}
	}
}

// The first process to map anonymous memory gets the addresses a
// private per-process allocator from HeapBase would give it; a second
// process's launch lands on an anonPeriod boundary and repeats the
// first's layout modulo anonPeriod, so its lines and pages index the
// caches and TLBs as if it ran alone, and share none with the first.
func TestAnonRangesDisjointAcrossProcesses(t *testing.T) {
	m := newTestMachine(t)
	a, _ := m.Kern.NewProcess("vm-a", burnExec(UserBase, 1))
	b, _ := m.Kern.NewProcess("vm-b", burnExec(UserBase, 1))

	solo := addr.NewAllocator(HeapBase, StackTop-0x100_0000)
	basesA := mapAll(t, m, a, launchSizes)
	for i, size := range launchSizes {
		want, _ := solo.Alloc(size, 0x1000)
		if basesA[i] != want {
			t.Errorf("first process mapping %d at %s, want %s", i, basesA[i], want)
		}
	}
	basesB := mapAll(t, m, b, launchSizes)
	if basesB[0]%anonPeriod != 0 {
		t.Errorf("second process starts at %s, not on a %#x boundary", basesB[0], anonPeriod)
	}
	for i := range launchSizes {
		if (basesB[i]-basesB[0])%anonPeriod != (basesA[i]-HeapBase)%anonPeriod {
			t.Errorf("mapping %d: second process at %s does not repeat the first's layout at %s",
				i, basesB[i], basesA[i])
		}
	}
	checkDisjoint(t, a, b)
}

// Interleaved mappings stay disjoint, and each process's first mapping
// after another process mapped starts on an anonPeriod boundary.
func TestAnonRangesInterleave(t *testing.T) {
	m := newTestMachine(t)
	procs := make([]*Process, 3)
	for i := range procs {
		procs[i], _ = m.Kern.NewProcess("p", burnExec(UserBase, 1))
	}
	last := -1
	for step, pi := range []int{0, 0, 1, 0, 2, 2, 1, 0, 1, 1} {
		size := uint64(step%3+1) << 12
		base, err := m.Kern.MapAnon(procs[pi], size, false)
		if err != nil {
			t.Fatal(err)
		}
		if last >= 0 && last != pi && base%anonPeriod != 0 {
			t.Errorf("step %d: process %d maps after process %d at %s, not on a %#x boundary",
				step, pi, last, base, anonPeriod)
		}
		last = pi
	}
	checkDisjoint(t, procs...)
}

// Running out of the anonymous range is MapAnon's error, never an
// overlap, and what still fits maps after it.
func TestAnonRangeExhaustion(t *testing.T) {
	m := newTestMachine(t)
	a, _ := m.Kern.NewProcess("a", burnExec(UserBase, 1))
	b, _ := m.Kern.NewProcess("b", burnExec(UserBase, 1))
	mapAll(t, m, a, launchSizes)
	span := uint64(StackTop - 0x100_0000 - HeapBase)
	if _, err := m.Kern.MapAnon(b, span, false); err == nil {
		t.Fatal("mapping the whole range after another process succeeded")
	}
	big, err := m.Kern.MapAnon(b, span/2, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Kern.MapAnon(a, span/2, false); err == nil {
		t.Fatal("mapping past the end of the range succeeded")
	}
	if _, err := m.Kern.MapAnon(a, 1<<20, false); err != nil {
		t.Fatalf("a mapping that fits failed: %v", err)
	}
	if big%anonPeriod != 0 {
		t.Errorf("second process's mapping at %s", big)
	}
	checkDisjoint(t, a, b)
}

// anonPeriod is the largest index period of the default cache and TLB
// geometry, and HeapBase sits on it: a change to either side must
// change the other.
func TestAnonPeriodMatchesCacheGeometry(t *testing.T) {
	h := cache.DefaultHierarchy()
	var largest uint64
	for _, c := range []*cache.Cache{h.L1, h.L2, h.DTLB, h.ITLB} {
		cfg := c.Config()
		period := uint64(cfg.Sets) << cfg.LineBits
		if anonPeriod%period != 0 {
			t.Errorf("index period %#x (%+v) does not divide anonPeriod %#x", period, cfg, anonPeriod)
		}
		largest = max(largest, period)
	}
	if largest != anonPeriod {
		t.Errorf("largest index period %#x, anonPeriod %#x", largest, anonPeriod)
	}
	if HeapBase%anonPeriod != 0 {
		t.Errorf("HeapBase %s not on a %#x boundary", HeapBase, anonPeriod)
	}
}
