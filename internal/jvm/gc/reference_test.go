package gc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
)

// refHeap is the collector as it was before Heap recycled dead objects:
// every Alloc is a fresh Go object and Collect keeps no host-side
// buffers. It is the oracle for TestHeapMatchesReferenceQuick; the
// simulated behaviour (addresses, sizes, kinds, ages, statistics, hook
// calls) must be identical.
type refHeap struct {
	base addr.Address
	size uint64
	half uint64

	fromBase addr.Address
	toBase   addr.Address
	next     addr.Address

	matureBase  addr.Address
	matureNext  addr.Address
	matureLimit addr.Address

	objects []*Object
	roots   func() []*Object
	hooks   Hooks

	epoch       int
	collections int
	allocated   uint64
	promoted    int
	lastStats   CollectStats
}

func newRefHeap(base addr.Address, size uint64, roots func() []*Object, hooks Hooks) *refHeap {
	half := size / 4
	h := &refHeap{
		base:        base,
		size:        size,
		half:        half,
		matureBase:  base,
		matureNext:  base,
		matureLimit: base + addr.Address(size/2),
		fromBase:    base + addr.Address(size/2),
		toBase:      base + addr.Address(size/2+half),
		roots:       roots,
		hooks:       hooks,
	}
	h.next = h.fromBase
	return h
}

func (h *refHeap) mature(o *Object) bool {
	return o.Addr >= h.matureBase && o.Addr < h.matureLimit
}

func (h *refHeap) used() uint64 { return uint64(h.next - h.fromBase) }

func (h *refHeap) Alloc(kind Kind, sizeBytes uint32, nrefs, nscalars int) (*Object, error) {
	total := uint64(sizeBytes) + HeaderBytes
	total = (total + 15) &^ 15
	if h.used()+total > h.half {
		h.Collect()
		if h.used()+total > h.half {
			return nil, fmt.Errorf("gc: out of memory: need %d, %d free in %d semispace",
				total, h.half-h.used(), h.half)
		}
	}
	o := &Object{
		Addr: h.next,
		Size: uint32(total),
		Kind: kind,
	}
	if nrefs > 0 {
		o.Refs = make([]*Object, nrefs)
	}
	if nscalars > 0 {
		o.Scalars = make([]int64, nscalars)
	}
	h.next += addr.Address(total)
	h.allocated += total
	h.objects = append(h.objects, o)
	if h.hooks.Work != nil {
		h.hooks.Work("alloc", 1)
	}
	return o, nil
}

func (h *refHeap) Collect() CollectStats {
	if h.hooks.PreGC != nil {
		h.hooks.PreGC(h.epoch)
	}
	var stats CollectStats
	var stack []*Object
	if h.roots != nil {
		for _, r := range h.roots() {
			if r != nil && !r.marked {
				r.marked = true
				stack = append(stack, r)
			}
		}
	}
	traced := 0
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		traced++
		for _, r := range o.Refs {
			if r != nil && !r.marked {
				r.marked = true
				stack = append(stack, r)
			}
		}
	}
	if h.hooks.Work != nil {
		h.hooks.Work("trace", traced+1)
	}
	next := h.toBase
	live := h.objects[:0]
	for _, o := range h.objects {
		if !o.marked {
			stats.Freed++
			stats.FreedBytes += uint64(o.Size)
			continue
		}
		o.marked = false
		stats.Live++
		stats.LiveBytes += uint64(o.Size)
		if h.mature(o) {
			live = append(live, o)
			continue
		}
		old := o.Addr
		if o.age < MatureAge {
			o.age++
		}
		if o.age >= MatureAge && h.matureNext+addr.Address(o.Size) <= h.matureLimit {
			o.Addr = h.matureNext
			h.matureNext += addr.Address(o.Size)
			h.promoted++
		} else {
			o.Addr = next
			next += addr.Address(o.Size)
		}
		if o.Kind == KindCode && old != o.Addr {
			stats.CodeMoved++
			if h.hooks.Moved != nil {
				h.hooks.Moved(o, old)
			}
		}
		live = append(live, o)
	}
	for i := len(live); i < len(h.objects); i++ {
		h.objects[i] = nil
	}
	h.objects = live
	if h.hooks.Work != nil {
		h.hooks.Work("copy", int(stats.LiveBytes/64)+1)
	}
	h.fromBase, h.toBase = h.toBase, h.fromBase
	h.next = next
	h.collections++
	h.epoch++
	h.lastStats = stats
	if h.hooks.PostGC != nil {
		h.hooks.PostGC(h.epoch, stats)
	}
	return stats
}

// hookLog records every hook call with its arguments in simulated terms
// (addresses, never Go identities), so the two heaps' logs compare.
type hookLog []string

func (l *hookLog) hooks() Hooks {
	return Hooks{
		PreGC: func(epoch int) { *l = append(*l, fmt.Sprintf("pre %d", epoch)) },
		Moved: func(o *Object, old addr.Address) {
			*l = append(*l, fmt.Sprintf("moved %s->%s size %d", old, o.Addr, o.Size))
		},
		PostGC: func(epoch int, s CollectStats) { *l = append(*l, fmt.Sprintf("post %d %+v", epoch, s)) },
		Work:   func(phase string, units int) { *l = append(*l, fmt.Sprintf("work %s %d", phase, units)) },
	}
}

// allocShape is one random allocation request.
type allocShape struct {
	kind            Kind
	size            uint32
	nrefs, nscalars int
	meta, root      bool
}

// randomShape draws from a small set of shapes so that dead objects
// come back in the shapes later requests ask for: data objects with
// ref and scalar fields, 0-length and short ref and scalar arrays of
// four element widths, code bodies (always with Meta), the occasional
// data object carrying Meta, and the occasional request too large for
// the semispace.
func randomShape(rng *rand.Rand, half uint64) allocShape {
	var s allocShape
	switch rng.Intn(10) {
	case 0, 1, 2:
		s.kind, s.nrefs, s.nscalars = KindData, rng.Intn(3), rng.Intn(3)
		s.size = uint32((s.nrefs + s.nscalars) * 8)
		s.meta = rng.Intn(8) == 0
	case 3, 4:
		s.kind, s.nrefs = KindArray, rng.Intn(6)
		s.size = uint32(s.nrefs * 8)
	case 5, 6, 7:
		width := uint32(1) << rng.Intn(4)
		s.kind, s.nscalars = KindArray, rng.Intn(6)
		s.size = uint32(s.nscalars) * width
	case 8:
		s.kind, s.size, s.meta = KindCode, uint32(40+rng.Intn(200)), true
	default:
		if rng.Intn(6) == 0 {
			s.kind, s.size = KindArray, uint32(half)
		} else {
			s.kind, s.nscalars = KindArray, 16+rng.Intn(3)
			s.size = uint32(s.nscalars * 8)
		}
	}
	s.root = rng.Intn(4) == 0
	return s
}

// heapPair drives a Heap and a refHeap through the same steps. Objects
// correspond by position in the heaps' object lists, which both keep in
// allocation order; the roots are kept in lockstep.
type heapPair struct {
	h                *Heap
	ref              *refHeap
	hRoots, refRoots []*Object
	hLog, refLog     hookLog
	handed           map[*Object]bool // every object h.Alloc returned
	withMeta         map[*Object]bool // h objects that ever carried Meta
	allocs, recycled int
	failures         int
}

func newHeapPair(t *testing.T, size uint64) *heapPair {
	p := &heapPair{handed: map[*Object]bool{}, withMeta: map[*Object]bool{}}
	var err error
	p.h, err = NewHeap(testBase, size, func() []*Object { return p.hRoots }, p.hLog.hooks())
	if err != nil {
		t.Fatal(err)
	}
	p.ref = newRefHeap(testBase, size, func() []*Object { return p.refRoots }, p.refLog.hooks())
	return p
}

// reachable returns the objects reachable from roots.
func reachable(roots []*Object) map[*Object]bool {
	seen := map[*Object]bool{}
	stack := append([]*Object(nil), roots...)
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if o == nil || seen[o] {
			continue
		}
		seen[o] = true
		stack = append(stack, o.Refs...)
	}
	return seen
}

func (p *heapPair) alloc(s allocShape) error {
	roots := reachable(p.hRoots)
	o, err := p.h.Alloc(s.kind, s.size, s.nrefs, s.nscalars)
	ro, rerr := p.ref.Alloc(s.kind, s.size, s.nrefs, s.nscalars)
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		return fmt.Errorf("alloc %+v: error %v, reference %v", s, err, rerr)
	}
	if err != nil {
		p.failures++
		return nil
	}
	p.allocs++
	if p.handed[o] {
		p.recycled++
		if s.kind == KindCode {
			return fmt.Errorf("alloc %+v: a code object was recycled", s)
		}
	}
	if p.withMeta[o] {
		return fmt.Errorf("alloc %+v: recycled an object that carried Meta", s)
	}
	if roots[o] || reachable(p.hRoots)[o] {
		return fmt.Errorf("alloc %+v: returned an object reachable from the roots", s)
	}
	if len(o.Refs) != s.nrefs || len(o.Scalars) != s.nscalars || o.Meta != nil || o.Age() != 0 {
		return fmt.Errorf("alloc %+v: payload shape %d/%d, meta %v, age %d",
			s, len(o.Refs), len(o.Scalars), o.Meta, o.Age())
	}
	for i, r := range o.Refs {
		if r != nil {
			return fmt.Errorf("alloc %+v: ref slot %d not nil", s, i)
		}
	}
	for i, v := range o.Scalars {
		if v != 0 {
			return fmt.Errorf("alloc %+v: scalar slot %d = %d", s, i, v)
		}
	}
	for i, x := range p.h.objects[:len(p.h.objects)-1] {
		if x == o {
			return fmt.Errorf("alloc %+v: returned object %d of the heap's list", s, i)
		}
	}
	p.handed[o] = true
	if s.meta {
		o.Meta, ro.Meta = s, s
		p.withMeta[o] = true
	}
	if s.root && len(p.hRoots) < 24 {
		p.hRoots = append(p.hRoots, o)
		p.refRoots = append(p.refRoots, ro)
	}
	return nil
}

// churn mutates both heaps the same way: drop a root, point a ref slot
// at another listed object (or nil), or write a scalar slot.
func (p *heapPair) churn(rng *rand.Rand) {
	objs, refObjs := p.h.objects, p.ref.objects
	switch rng.Intn(3) {
	case 0:
		if n := len(p.hRoots); n > 0 {
			i := rng.Intn(n)
			p.hRoots[i], p.refRoots[i] = p.hRoots[n-1], p.refRoots[n-1]
			p.hRoots, p.refRoots = p.hRoots[:n-1], p.refRoots[:n-1]
		}
	case 1:
		if len(objs) == 0 {
			return
		}
		i := rng.Intn(len(objs))
		if len(objs[i].Refs) == 0 {
			return
		}
		k := rng.Intn(len(objs[i].Refs))
		if rng.Intn(4) == 0 {
			objs[i].Refs[k], refObjs[i].Refs[k] = nil, nil
			return
		}
		j := rng.Intn(len(objs))
		objs[i].Refs[k], refObjs[i].Refs[k] = objs[j], refObjs[j]
	default:
		if len(objs) == 0 {
			return
		}
		i := rng.Intn(len(objs))
		if n := len(objs[i].Scalars); n > 0 {
			k, v := rng.Intn(n), rng.Int63()
			objs[i].Scalars[k], refObjs[i].Scalars[k] = v, v
		}
	}
}

// compare requires the two heaps to agree on every simulated quantity.
func (p *heapPair) compare() error {
	h, ref := p.h, p.ref
	if h.Epoch() != ref.epoch || h.Collections() != ref.collections ||
		h.AllocatedBytes() != ref.allocated || h.Used() != ref.used() ||
		h.Promoted() != ref.promoted || h.LastStats() != ref.lastStats ||
		h.LiveObjects() != len(ref.objects) {
		return fmt.Errorf("heap counters: epoch %d/%d collections %d/%d allocated %d/%d used %d/%d promoted %d/%d stats %+v/%+v objects %d/%d",
			h.Epoch(), ref.epoch, h.Collections(), ref.collections, h.AllocatedBytes(), ref.allocated,
			h.Used(), ref.used(), h.Promoted(), ref.promoted, h.LastStats(), ref.lastStats,
			h.LiveObjects(), len(ref.objects))
	}
	if len(p.hLog) != len(p.refLog) {
		return fmt.Errorf("hook calls: %d, reference %d", len(p.hLog), len(p.refLog))
	}
	for i := range p.hLog {
		if p.hLog[i] != p.refLog[i] {
			return fmt.Errorf("hook call %d: %q, reference %q", i, p.hLog[i], p.refLog[i])
		}
	}
	index := func(objs []*Object) map[*Object]int {
		m := make(map[*Object]int, len(objs))
		for i, o := range objs {
			m[o] = i
		}
		return m
	}
	hi, ri := index(h.objects), index(ref.objects)
	slot := func(m map[*Object]int, o *Object) int {
		if o == nil {
			return -1
		}
		if i, ok := m[o]; ok {
			return i
		}
		return -2 // not listed: a dangling reference
	}
	for i, a := range h.objects {
		b := ref.objects[i]
		if a.Addr != b.Addr || a.Size != b.Size || a.Kind != b.Kind || a.age != b.age ||
			len(a.Refs) != len(b.Refs) || len(a.Scalars) != len(b.Scalars) || a.marked || b.marked {
			return fmt.Errorf("object %d: %s size %d kind %d age %d shape %d/%d, reference %s size %d kind %d age %d shape %d/%d",
				i, a.Addr, a.Size, a.Kind, a.age, len(a.Refs), len(a.Scalars),
				b.Addr, b.Size, b.Kind, b.age, len(b.Refs), len(b.Scalars))
		}
		for k := range a.Scalars {
			if a.Scalars[k] != b.Scalars[k] {
				return fmt.Errorf("object %d scalar %d: %d, reference %d", i, k, a.Scalars[k], b.Scalars[k])
			}
		}
		for k := range a.Refs {
			if x, y := slot(hi, a.Refs[k]), slot(ri, b.Refs[k]); x != y || x == -2 {
				return fmt.Errorf("object %d ref %d: object %d, reference object %d", i, k, x, y)
			}
		}
	}
	return nil
}

// TestHeapMatchesReferenceQuick is the recycling oracle: over random
// allocation shapes, root and ref-slot churn, scalar writes and
// explicit collections, the recycling heap must match the
// non-recycling reference after every step — addresses, sizes, kinds,
// ages, payload contents, statistics, epochs and every hook call — and
// every Alloc must return a zeroed payload, never an object reachable
// from the roots, a code object or an object that carried Meta.
// `-args -quickchecks=N` widens it.
func TestHeapMatchesReferenceQuick(t *testing.T) {
	var allocs, recycled, collects, failures int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := uint64(16<<10) << rng.Intn(3)
		p := newHeapPair(t, size)
		for step := 0; step < 400; step++ {
			var err error
			switch r := rng.Intn(20); {
			case r == 0:
				p.h.Collect()
				p.ref.Collect()
			case r < 6:
				p.churn(rng)
			default:
				err = p.alloc(randomShape(rng, p.h.half))
			}
			if err == nil {
				err = p.compare()
			}
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		allocs, recycled, failures = allocs+p.allocs, recycled+p.recycled, failures+p.failures
		collects += p.h.Collections()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// The sweep must actually hand dead objects back, collect often and
	// refuse some requests, or the equivalence above says little.
	if recycled*10 < allocs || collects == 0 || failures == 0 {
		t.Errorf("sweep too weak: %d allocs, %d recycled, %d collections, %d failed allocs",
			allocs, recycled, collects, failures)
	}
	t.Logf("%d allocs, %d recycled, %d collections, %d failed allocs", allocs, recycled, collects, failures)
}

// A warm cycle of allocations in repeating shapes followed by a
// collection makes no Go allocation: every object comes back off the
// free lists, and the object list, the mark stack and the lists
// themselves keep their capacity.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	roots := make([]*Object, 0, 1)
	h := newTestHeap(t, 1<<20, func() []*Object { return roots }, Hooks{})
	cycle := func() {
		for i := 0; i < 50; i++ {
			o, err := h.Alloc(KindData, 32, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				// One survivor per cycle, its predecessor dropped.
				roots = append(roots[:0], o)
			}
			h.Alloc(KindArray, 80, 0, 10)
			h.Alloc(KindArray, 40, 0, 10)
			a, _ := h.Alloc(KindArray, 80, 10, 0)
			a.Refs[3] = o
			h.Alloc(KindArray, 0, 0, 0)
		}
		h.Collect()
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("warm alloc/collect cycle made %.1f Go allocations, want 0", n)
	}
}

// Release drops the free lists and the mark stack; the heap keeps
// working and refills them.
func TestReleaseDropsBuffers(t *testing.T) {
	h := newTestHeap(t, 1<<16, nil, Hooks{})
	for i := 0; i < 20; i++ {
		h.Alloc(KindData, 16, 1, 1)
	}
	h.Collect()
	if len(h.freeDirty) == 0 {
		t.Fatal("collection filed no dead objects")
	}
	h.Release()
	if h.free != nil || h.freeDirty != nil || h.markStack != nil {
		t.Fatal("Release kept host buffers")
	}
	o, err := h.Alloc(KindData, 16, 1, 1)
	if err != nil || len(o.Refs) != 1 || len(o.Scalars) != 1 {
		t.Fatalf("alloc after Release: %v", err)
	}
	h.Collect()
	if len(h.freeDirty) == 0 {
		t.Error("no dead objects filed after Release")
	}
}

// The free lists hold only the latest collection's dead objects: a
// collection drops whatever the one before it filed and Alloc did not
// take back.
func TestFreeListsHoldLatestCollection(t *testing.T) {
	h := newTestHeap(t, 1<<16, nil, Hooks{})
	filed := func() (n int) {
		for _, l := range h.free {
			n += len(l.objs)
		}
		return n
	}
	for i := 0; i < 10; i++ {
		h.Alloc(KindData, 16, 1, 1)
	}
	h.Alloc(KindCode, 64, 0, 0)
	h.Collect()
	if n := filed(); n != 10 {
		t.Fatalf("%d objects filed, want the 10 dead data objects", n)
	}
	for i := 0; i < 4; i++ {
		h.Alloc(KindData, 16, 1, 1) // taken back off the list
	}
	for i := 0; i < 5; i++ {
		h.Alloc(KindArray, 24, 0, 3)
	}
	h.Collect()
	if n, l := filed(), h.free[3]; n != 9 || l == nil || len(l.objs) != 5 {
		t.Errorf("%d objects filed, want 9 (4 data, 5 arrays; the 6 left from the first collection dropped)", n)
	}
}
