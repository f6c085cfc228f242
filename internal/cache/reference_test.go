package cache

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
)

// refStampCache is the stamp-LRU cache this package kept before its
// sets were held in recency order: every way carries the clock value of
// its last access, 0 while empty, and a fill evicts the first way with
// the smallest stamp. The clock is 64 bits wide, so it never wraps
// within a test.
type refStampCache struct {
	cfg                   Config
	tags, lru             []uint64
	clock                 uint64
	accesses, misses, gen uint64
	evictions             int // fills that displaced a resident line
}

func newRefStampCache(cfg Config) *refStampCache {
	n := cfg.Sets * cfg.Ways
	return &refStampCache{cfg: cfg, tags: make([]uint64, n), lru: make([]uint64, n)}
}

func (c *refStampCache) access(a addr.Address) bool {
	line := uint64(a) >> c.cfg.LineBits
	base := int(line&uint64(c.cfg.Sets-1)) * c.cfg.Ways
	c.clock++
	c.accesses++
	victim := base
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.tags[i] == line {
			c.lru[i] = c.clock
			return true
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.misses++
	if c.lru[victim] != 0 {
		c.evictions++
	}
	c.tags[victim], c.lru[victim] = line, c.clock
	return false
}

func (c *refStampCache) flush() {
	clear(c.tags)
	clear(c.lru)
	c.gen++
}

// recency returns set s's resident lines, most recently used first,
// padded with empty (zero) slots to the associativity.
func (c *refStampCache) recency(s int) []uint64 {
	ways := c.cfg.Ways
	slots := make([]int, 0, ways)
	for i := s * ways; i < (s+1)*ways; i++ {
		if c.lru[i] != 0 {
			slots = append(slots, i)
		}
	}
	slices.SortFunc(slots, func(i, j int) int { return cmp.Compare(c.lru[j], c.lru[i]) })
	lines := make([]uint64, ways)
	for k, i := range slots {
		lines[k] = c.tags[i]
	}
	return lines
}

// matches reports how c differs from the reference: statistics, flush
// generation, or any set's lines in recency order.
func (c *Cache) matches(ref *refStampCache) error {
	if c.accesses != ref.accesses || c.misses != ref.misses || c.gen != ref.gen {
		return fmt.Errorf("stats %d/%d gen %d, want %d/%d gen %d",
			c.accesses, c.misses, c.gen, ref.accesses, ref.misses, ref.gen)
	}
	for s := 0; s < c.cfg.Sets; s++ {
		got := c.tags[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
		if want := ref.recency(s); !slices.Equal(got, want) {
			return fmt.Errorf("set %d holds %x, want %x", s, got, want)
		}
	}
	return nil
}

// randomConfig draws a cache geometry: 1-16 sets of 1-16 ways, direct-
// mapped and single-set caches included, with 4-byte to 4 KiB lines.
func randomConfig(r *rand.Rand) Config {
	return Config{
		Sets:     1 << r.Intn(5),
		Ways:     1 + r.Intn(16),
		LineBits: uint(2 + r.Intn(11)),
	}
}

// cachePair drives a Hierarchy of random geometry and its per-op
// reference over stamp-LRU caches of the same geometry side by side.
type cachePair struct {
	h                      *Hierarchy
	l1, l2, dtlb, itlb     *refStampCache // dtlb nil when h.DTLB is
	lastIPage              uint64
	deferrals, flushedDefs int // deferrals touched, and touched after a flush
}

func newCachePair(t *testing.T, r *rand.Rand) *cachePair {
	l1, l2, itlb := randomConfig(r), randomConfig(r), randomConfig(r)
	p := &cachePair{
		h: &Hierarchy{
			L1: mustNew(t, l1), L2: mustNew(t, l2), ITLB: mustNew(t, itlb),
			L2Hit: 8, MemPenalty: 120, TLBPenalty: 30,
		},
		l1: newRefStampCache(l1), l2: newRefStampCache(l2), itlb: newRefStampCache(itlb),
	}
	if r.Intn(5) != 0 {
		dtlb := randomConfig(r)
		p.h.DTLB, p.dtlb = mustNew(t, dtlb), newRefStampCache(dtlb)
	}
	return p
}

// data is the per-op DTLB and cache probe pair on the reference: the
// event a bulk call records for op i, and whether it is noteworthy
// enough to be recorded.
func (p *cachePair) data(a addr.Address, i int) (DataEvent, bool) {
	h := p.h
	ev := DataEvent{Index: i}
	if p.dtlb != nil && !p.dtlb.access(a) {
		ev.Extra, ev.DTLBMiss = h.TLBPenalty, true
	}
	if !p.l1.access(a) {
		if p.l2.access(a) {
			ev.Extra += h.L2Hit
		} else {
			ev.Extra, ev.L2Miss = ev.Extra+h.MemPenalty, true
		}
	}
	return ev, ev.DTLBMiss || ev.L2Miss || ev.Extra != 0
}

// access is one precise data op, the probe pair Data runs.
func (p *cachePair) access(a addr.Address) error {
	got := p.h.Data(a)
	if want, _ := p.data(a, 0); got != want {
		return fmt.Errorf("access %x: %+v, want %+v", a, got, want)
	}
	return nil
}

func (p *cachePair) run(start addr.Address, stride uint32, n int) error {
	got := p.h.DataRun(start, stride, n, nil)
	var want []DataEvent
	for i := 0; i < n; i++ {
		if ev, ok := p.data(start+addr.Address(uint64(i)*uint64(stride)), i); ok {
			want = append(want, ev)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("DataRun(%x, %d, %d) = %+v, want %+v", start, stride, n, got, want)
	}
	return nil
}

func (p *cachePair) batch(mems []addr.Address) error {
	got := p.h.DataBatch(mems, nil)
	var want []DataEvent
	for i, a := range mems {
		if a == 0 {
			continue // no memory operand
		}
		if ev, ok := p.data(a, i); ok {
			want = append(want, ev)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("DataBatch(%x) = %+v, want %+v", mems, got, want)
	}
	return nil
}

// deferral is the core's streaming batch: a precise op at a, then ops
// around a's line that DataFree proves to be plain L1 and DTLB hits,
// applied later by one DataTouch, sometimes with a flush in between.
// The reference takes each proven hit when it retires, so a flush
// lands after them, as it does per op.
func (p *cachePair) deferral(r *rand.Rand, a addr.Address) error {
	if err := p.access(a); err != nil {
		return err
	}
	line := int(1) << p.h.L1.lineBits
	var k uint32
	for i := r.Intn(12); i > 0; i-- {
		x := a&^addr.Address(line-1) + addr.Address(r.Intn(2*line)) - addr.Address(line/2)
		if !p.h.DataFree(x) {
			continue
		}
		if !p.l1.access(x) || (p.dtlb != nil && !p.dtlb.access(x)) {
			return fmt.Errorf("DataFree(%x) after an op at %x, but the reference missed", x, a)
		}
		k++
	}
	flushed := r.Intn(3) == 0
	if flushed {
		p.flush(r)
	}
	p.h.DataTouch(a, k)
	if k > 0 {
		p.deferrals++
		if flushed {
			p.flushedDefs++
		}
	}
	return nil
}

// flush empties L1 alone (the kernel's context-switch flush), the DTLB
// alone, or the whole hierarchy.
func (p *cachePair) flush(r *rand.Rand) {
	switch r.Intn(3) {
	case 0:
		p.h.L1.Flush()
		p.l1.flush()
	case 1:
		if p.dtlb != nil {
			p.h.DTLB.Flush()
			p.dtlb.flush()
		}
	default:
		p.h.L1.Flush()
		p.h.L2.Flush()
		p.h.ITLB.Flush()
		p.l1.flush()
		p.l2.flush()
		p.itlb.flush()
		if p.dtlb != nil {
			p.h.DTLB.Flush()
			p.dtlb.flush()
		}
	}
}

func (p *cachePair) instr(pc addr.Address) error {
	_, miss := p.h.AccessInstr(pc)
	want := false
	if page := uint64(pc) >> 12; page != p.lastIPage {
		p.lastIPage = page
		want = !p.itlb.access(pc)
	}
	if miss != want {
		return fmt.Errorf("AccessInstr(%x) miss = %v, want %v", pc, miss, want)
	}
	return nil
}

func (p *cachePair) compare() error {
	levels := []struct {
		name string
		c    *Cache
		ref  *refStampCache
	}{{"L1", p.h.L1, p.l1}, {"L2", p.h.L2, p.l2}, {"DTLB", p.h.DTLB, p.dtlb}, {"ITLB", p.h.ITLB, p.itlb}}
	for _, l := range levels {
		if l.ref == nil {
			continue
		}
		if err := l.c.matches(l.ref); err != nil {
			return fmt.Errorf("%s %+v: %v", l.name, l.c.cfg, err)
		}
	}
	return nil
}

// TestCacheMatchesStampReferenceQuick is the recency-order oracle. Over
// random geometries (1-16 ways, direct-mapped and single-set caches
// included, with and without a DTLB), random schedules of precise data
// ops, strided DataRuns, scattered DataBatches, DataFree-proven
// deferrals applied through DataTouch (some with a flush between the
// deferral and its touch), flushes and instruction fetches must match
// the stamp-LRU reference after every step: the same hits, misses and
// events, the same statistics and flush generations, and every set's
// resident lines in the same recency order. `-args -quickchecks=N`
// widens it.
func TestCacheMatchesStampReferenceQuick(t *testing.T) {
	var deferrals, flushedDefs, evictions int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := newCachePair(t, r)
		// A region of 1 KiB to 1 MiB above page 15, so no level ever sees
		// line address 0, and hot lines that recur across the schedule.
		const base = 0x10000
		span := 10 + r.Intn(11)
		hot := make([]addr.Address, 1+r.Intn(24))
		for i := range hot {
			hot[i] = base + addr.Address(r.Intn(1<<span))
		}
		pick := func() addr.Address {
			if r.Intn(2) == 0 {
				return hot[r.Intn(len(hot))] + addr.Address(r.Intn(64))
			}
			return base + addr.Address(r.Intn(1<<span))
		}
		for step := 0; step < 60; step++ {
			var err error
			switch k := r.Intn(11); {
			case k < 3:
				err = p.access(pick())
			case k < 5:
				err = p.run(pick(), runStrides[r.Intn(len(runStrides))], 1+r.Intn(64))
			case k < 7:
				mems := make([]addr.Address, 1+r.Intn(16))
				for i := range mems {
					if r.Intn(4) != 0 {
						mems[i] = pick()
					}
				}
				err = p.batch(mems)
			case k < 9:
				err = p.deferral(r, pick())
			case k == 9:
				p.flush(r)
			default:
				err = p.instr(0x6000_0000 + addr.Address(r.Intn(1<<14)))
			}
			if err == nil {
				err = p.compare()
			}
			if err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		deferrals, flushedDefs = deferrals+p.deferrals, flushedDefs+p.flushedDefs
		evictions += p.l1.evictions + p.l2.evictions
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// The sweep must evict, defer and flush under deferrals, or the
	// equivalence above says little about victims and DataTouch.
	if deferrals == 0 || flushedDefs == 0 || evictions == 0 {
		t.Errorf("sweep too weak: %d deferrals, %d touched after a flush, %d evictions",
			deferrals, flushedDefs, evictions)
	}
	t.Logf("%d deferrals, %d touched after a flush, %d evictions", deferrals, flushedDefs, evictions)
}
