// Package cache implements a small set-associative cache hierarchy used
// by the simulated CPU to generate memory-system events. The paper's
// second profiled hardware event, BSQ_CACHE_REFERENCE (L2 data cache
// misses on the Pentium 4), is produced by this model: every memory
// micro-op probes L1; L1 misses probe L2; L2 misses raise an event the
// hardware performance counters can count.
package cache

import (
	"fmt"
	"math"
	"math/bits"

	"viprof/internal/addr"
)

// Config describes one cache level.
type Config struct {
	Sets     int  // number of sets; must be a power of two
	Ways     int  // associativity
	LineBits uint // log2 of the line size in bytes
}

// Valid reports whether the configuration is usable.
func (c Config) Valid() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache: sets %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d not positive", c.Ways)
	}
	if c.LineBits < 2 || c.LineBits > 12 {
		return fmt.Errorf("cache: line bits %d out of range", c.LineBits)
	}
	return nil
}

// SizeBytes returns the total capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Ways << c.LineBits }

// Cache is one level of set-associative cache with true-LRU replacement.
// Tags are line addresses (address >> LineBits); a zero tag slot is
// invalid, which is safe because line address 0 is never used by the
// simulated layout (page 0 stays unmapped).
type Cache struct {
	cfg      Config
	setMask  uint64
	lineBits uint
	tags     []uint64 // Sets*Ways entries; tags[set*Ways+way]
	// lru[set*Ways+way] is a recency stamp; larger = more recent. The
	// clock is 32 bits wide and renumbers the stamps before it wraps
	// (see tick).
	lru   []uint32
	clock uint32

	accesses uint64
	misses   uint64

	// gen counts Flushes. Residency trackers (Hierarchy.DataFree, the
	// core's streaming batch) snapshot it so a flush behind their back —
	// the kernel cold-flushes L1 directly at context switch — cannot
	// leave them believing a line is still resident.
	gen uint64
}

// New builds a cache from the configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Valid(); err != nil {
		return nil, err
	}
	n := cfg.Sets * cfg.Ways
	return &Cache{
		cfg:      cfg,
		setMask:  uint64(cfg.Sets - 1),
		lineBits: cfg.LineBits,
		tags:     make([]uint64, n),
		lru:      make([]uint32, n),
	}, nil
}

// Access probes the cache for the line containing a, filling it on a
// miss, and reports whether the access hit.
func (c *Cache) Access(a addr.Address) bool {
	hit, _ := c.probe(a)
	return hit
}

// probe is Access returning also the slot the line ended up in, so bulk
// callers can apply deferred recency updates without re-scanning the set
// (see touchSlot).
func (c *Cache) probe(a addr.Address) (bool, int) {
	line := uint64(a) >> c.lineBits
	set := int(line & c.setMask)
	base := set * c.cfg.Ways
	stamp := c.tick()
	c.accesses++
	victim := base
	oldest := c.lru[base]
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.tags[i] == line {
			c.lru[i] = stamp
			return true, i
		}
		if c.lru[i] < oldest {
			oldest = c.lru[i]
			victim = i
		}
	}
	c.misses++
	c.tags[victim] = line
	c.lru[victim] = stamp
	return false, victim
}

// tick advances the recency clock by one access and returns the new
// stamp. Before the clock would wrap, renormalize renumbers every set's
// stamps by rank, so no number of accesses can invert LRU order.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renormalize()
	}
	c.clock++
	return c.clock
}

// advance is k ticks whose accesses all stamp slot (none if slot < 0):
// one addition, unless the clock wraps inside the k, when it takes them
// one at a time so the renumbering lands exactly where k per-op
// accesses would put it.
func (c *Cache) advance(k uint32, slot int) {
	if c.clock <= math.MaxUint32-k {
		c.clock += k
		if slot >= 0 {
			c.lru[slot] = c.clock
		}
		return
	}
	for ; k > 0; k-- {
		stamp := c.tick()
		if slot >= 0 {
			c.lru[slot] = stamp
		}
	}
}

// renormalize renumbers each set's recency stamps by rank: a nonzero
// stamp becomes 1 plus the number of nonzero stamps below it in its set,
// and 0 (a slot never filled since the last Flush) stays 0. Every
// comparison LRU replacement makes within a set, ties included, comes
// out as before, and the clock restarts at Ways, at or above every rank,
// whatever the stamps were — so where it restarts depends only on how
// many accesses came before.
func (c *Cache) renormalize() {
	ways := c.cfg.Ways
	rank := make([]uint32, ways)
	for base := 0; base < len(c.lru); base += ways {
		set := c.lru[base : base+ways]
		for w, s := range set {
			rank[w] = 0
			if s == 0 {
				continue
			}
			rank[w] = 1
			for _, t := range set {
				if t != 0 && t < s {
					rank[w]++
				}
			}
		}
		copy(set, rank)
	}
	c.clock = uint32(ways)
}

// Contains reports whether the line holding a is currently resident,
// without touching recency state. It exists for tests and invariants.
func (c *Cache) Contains(a addr.Address) bool {
	line := uint64(a) >> c.lineBits
	base := int(line&c.setMask) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// Flush invalidates all lines. Statistics are preserved.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
		c.lru[i] = 0
	}
	c.gen++
}

// Gen returns the flush generation (see the gen field).
func (c *Cache) Gen() uint64 { return c.gen }

// lineRun returns how many of the accesses a, a+stride, ... stay within
// the cache line holding a, capped at max. Stride 0 never leaves the
// line.
func (c *Cache) lineRun(a addr.Address, stride uint32, max int) int {
	if stride == 0 {
		return max
	}
	left := (uint64(1) << c.lineBits) - (uint64(a) & ((uint64(1) << c.lineBits) - 1))
	var n uint64
	if stride&(stride-1) == 0 {
		n = (left-1)>>uint(bits.TrailingZeros32(stride)) + 1
	} else {
		n = (left-1)/uint64(stride) + 1
	}
	if n > uint64(max) {
		return max
	}
	return int(n)
}

// touch applies k deferred recency updates for accesses that were
// guaranteed hits on the line holding a: the line was resident and
// most-recently-used when they retired, so replaying them later needs
// no probe — the net state change of k per-op hits is clock+k,
// accesses+k, and the line's stamp moving to the final clock value.
// If the line is gone (an intervening Flush, which per-op ordering
// places after the hits), only the clock and access counts survive,
// exactly as they would have.
func (c *Cache) touch(a addr.Address, k uint32) {
	if k == 0 {
		return
	}
	c.accesses += uint64(k)
	line := uint64(a) >> c.lineBits
	base := int(line&c.setMask) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == line {
			c.advance(k, base+w)
			return
		}
	}
	c.advance(k, -1)
}

// touchSlot is touch for a caller that just probed the line and knows
// its slot — valid only while no Flush can have intervened (inside one
// bulk run), where the scan in touch would find exactly this slot.
func (c *Cache) touchSlot(slot int, k uint32) {
	c.accesses += uint64(k)
	c.advance(k, slot)
}

// AccessRun replays n strided accesses (a, a+stride, ...) and appends
// the indices of the ones that missed to miss, returning it. It is
// bit-for-bit equivalent to n sequential Access calls — same final
// tags, recency stamps, clock, and statistics, same miss sequence —
// but exploits line locality: within one cache line only the first
// access can miss (the probe leaves the line resident and
// most-recently-used, and nothing else touches this cache during the
// run), so each line segment costs one probe plus arithmetic.
func (c *Cache) AccessRun(start addr.Address, stride uint32, n int, miss []int) []int {
	for i := 0; i < n; {
		a := start + addr.Address(uint64(i)*uint64(stride))
		k := c.lineRun(a, stride, n-i)
		hit, slot := c.probe(a)
		if !hit {
			miss = append(miss, i)
		}
		if k > 1 {
			c.touchSlot(slot, uint32(k-1))
		}
		i += k
	}
	return miss
}

// Stats returns cumulative accesses and misses.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Hierarchy is a two-level cache with fixed hit/miss latencies. Access
// returns the extra cycles the memory system charges beyond the base
// instruction cost, plus whether the access missed in L2 (the profiled
// event).
type Hierarchy struct {
	L1, L2 *Cache
	// Latencies in cycles. L1 hits are folded into the base instruction
	// cost, so L1Hit is usually 0.
	L1Hit, L2Hit, MemPenalty uint32

	// DTLB and ITLB translate data and instruction pages; a miss costs
	// TLBPenalty cycles (a hardware page walk) and raises the
	// corresponding sampling event. Either may be nil (no TLB model).
	DTLB, ITLB *Cache
	TLBPenalty uint32

	// Coh, when non-nil, is the coherency directory shared with the
	// other cores' hierarchies (see coherency.go); CoreID is this
	// hierarchy's core in that directory and CohPenalty the extra
	// cycles a cross-core line transfer charges. A nil Coh (the
	// single-core default) skips all directory bookkeeping.
	Coh        *Directory
	CoreID     int
	CohPenalty uint32

	lastIPage uint64 // last instruction page, to probe ITLB per page change

	// Residency tracking for the streaming batched data path: the L1
	// line and DTLB page of the most recent data access, with the flush
	// generations they were observed under. A line just probed by
	// Access is resident and most-recently-used, so a subsequent access
	// to the same line (with no intervening data access or flush) is a
	// guaranteed L1 hit — see DataFree.
	lastDLine    uint64
	lastDLineGen uint64
	haveDLine    bool
	lastDPage    uint64
	lastDPageGen uint64
	haveDPage    bool

	// scatter holds the reusable working buffers of DataBatch (the
	// sorted multi-run replay for non-strided address batches).
	scatter scatterScratch
}

// newTLB builds a Pentium-4-like TLB: 64 entries, 4-way, 4 KiB pages.
func newTLB() *Cache {
	t, err := New(Config{Sets: 16, Ways: 4, LineBits: 12})
	if err != nil {
		panic(err)
	}
	return t
}

// DefaultHierarchy models a Pentium 4-like memory system scaled for the
// simulated clock: 16 KiB 8-way L1 with 64-byte lines, 512 KiB 8-way L2
// with 128-byte lines (Northwood/Prescott-era geometry).
func DefaultHierarchy() *Hierarchy {
	l1, err := New(Config{Sets: 32, Ways: 8, LineBits: 6})
	if err != nil {
		panic(err)
	}
	l2, err := New(Config{Sets: 512, Ways: 8, LineBits: 7})
	if err != nil {
		panic(err)
	}
	return &Hierarchy{
		L1: l1, L2: l2, L1Hit: 0, L2Hit: 8, MemPenalty: 120,
		DTLB: newTLB(), ITLB: newTLB(), TLBPenalty: 30,
	}
}

// DefaultCohPenalty is the cross-core transfer cost in cycles: an
// invalidate round plus a cache-to-cache forward, between an L2 hit (8)
// and a memory fill (120) on the default geometry.
const DefaultCohPenalty = 40

// Access sends one memory reference through the hierarchy. The coh
// result reports a cross-core coherency transfer (always false without
// a directory); its penalty is folded into extraCycles.
func (h *Hierarchy) Access(a addr.Address) (extraCycles uint32, l2miss, coh bool) {
	h.lastDLine = uint64(a) >> h.L1.lineBits
	h.lastDLineGen = h.L1.gen
	h.haveDLine = true
	if h.L1.Access(a) {
		return h.L1Hit, false, false
	}
	// The line is not in our private L1: if another core wrote it last,
	// this fill is the transfer. L1 hits never check — a resident line
	// was filled by us after any prior transfer.
	if h.Coh != nil && h.Coh.Transfer(a, h.CoreID) {
		coh = true
		extraCycles = h.CohPenalty
	}
	if h.L2.Access(a) {
		return extraCycles + h.L2Hit, false, coh
	}
	return extraCycles + h.MemPenalty, true, coh
}

// MarkWrite records a store by this core in the shared coherency
// directory. No-op on a single-core hierarchy (nil Coh).
func (h *Hierarchy) MarkWrite(a addr.Address) {
	if h.Coh != nil {
		h.Coh.MarkWrite(a, h.CoreID)
	}
}

// AccessData probes the DTLB for the data address and reports whether
// it missed (the DTLB_REFERENCE sampling event); the page-walk penalty
// is returned as extra cycles.
func (h *Hierarchy) AccessData(a addr.Address) (extraCycles uint32, miss bool) {
	if h.DTLB == nil {
		return 0, false
	}
	h.lastDPage = uint64(a) >> h.DTLB.lineBits
	h.lastDPageGen = h.DTLB.gen
	h.haveDPage = true
	if h.DTLB.Access(a) {
		return 0, false
	}
	return h.TLBPenalty, true
}

// HitCost returns the extra cycles a guaranteed L1 data hit charges —
// what the batched engine adds to an op's base cost when DataFree
// proves the probe outcome in advance.
func (h *Hierarchy) HitCost() uint32 { return h.L1Hit }

// DataFree reports whether a data access at a is guaranteed to be an
// L1 and DTLB hit with no sampling event — true when a falls on the
// same L1 line and DTLB page as the most recent data access and
// neither structure has been flushed since. The probed line/page is
// resident and most-recently-used, nothing but data accesses touch
// these structures, and any other data access goes through
// Access/AccessData and retargets the tracker — so the guarantee
// cannot go stale silently.
func (h *Hierarchy) DataFree(a addr.Address) bool {
	if !h.haveDLine || uint64(a)>>h.L1.lineBits != h.lastDLine || h.L1.gen != h.lastDLineGen {
		return false
	}
	if h.DTLB != nil {
		if !h.haveDPage || uint64(a)>>h.DTLB.lineBits != h.lastDPage || h.DTLB.gen != h.lastDPageGen {
			return false
		}
	}
	return true
}

// DataTouch applies k deferred recency updates for data accesses that
// DataFree proved to be guaranteed hits at a: the DTLB and L1 receive
// the same net state change k per-op probes would have produced.
func (h *Hierarchy) DataTouch(a addr.Address, k uint32) {
	if h.DTLB != nil {
		h.DTLB.touch(a, k)
	}
	h.L1.touch(a, k)
}

// DataEvent is one noteworthy access within a DataRun: an op whose
// memory reference charged more than the L1-hit cost or raised a
// sampling event. Index is the op's position in the run; Extra is the
// total memory-system cycles beyond the base op cost (page walk plus
// cache level); the flags say which counter events to tick.
type DataEvent struct {
	Index    int
	Extra    uint32
	DTLBMiss bool
	L2Miss   bool
	// Coh marks a cross-core coherency transfer (see coherency.go).
	Coh bool
}

// DataRun replays n strided data accesses (mem, mem+stride, ...)
// through the hierarchy — for each op a DTLB probe then a cache probe,
// exactly the per-op AccessData/Access pair — and appends a DataEvent
// for every op that was not a plain L1+DTLB hit. State updates are
// bit-for-bit identical to the per-op loop: within one L1-line/DTLB-
// page segment only the first access can miss (the head probe leaves
// line and page resident and most-recently-used, and nothing else
// touches the data structures mid-run), so the tail is replayed as
// deferred recency arithmetic.
//
// Contract: the caller must ensure no other data access interleaves
// with the ops of the run. NMI handlers are fine — all simulated
// handler work is instruction-only (ExecKernel), and instruction
// fetches touch only the ITLB.
func (h *Hierarchy) DataRun(mem addr.Address, stride uint32, n int, buf []DataEvent) []DataEvent {
	if n <= 0 {
		return buf
	}
	// Power-of-two strides no larger than the line tile the line exactly:
	// after the first (possibly partial) line segment every interior
	// segment holds lineSize/stride ops and the head advances by exactly
	// one line — no per-line division.
	lineSize := uint64(1) << h.L1.lineBits
	constK := 0
	if stride != 0 && stride&(stride-1) == 0 && uint64(stride) <= lineSize {
		constK = int(lineSize) / int(stride)
	}
	a := mem
	for i := 0; i < n; {
		// Page segment: ops staying on the DTLB page holding a. Pages
		// are line-multiples, so line segments never straddle them. The
		// DTLB is probed once at the head — per-op, every tail access is
		// a guaranteed page hit — and the tail retires as deferred
		// recency arithmetic, like the L1 tails below.
		pn := n - i
		var dExtra uint32
		var dmiss bool
		var dSlot int
		if h.DTLB != nil {
			if pk := h.DTLB.lineRun(a, stride, pn); pk < pn {
				pn = pk
			}
			var hit bool
			hit, dSlot = h.DTLB.probe(a)
			if !hit {
				dExtra, dmiss = h.TLBPenalty, true
			}
		}
		la := a
		for j := 0; j < pn; {
			var k int
			if constK != 0 && (i != 0 || j != 0) {
				k = constK
				if left := pn - j; k > left {
					k = left
				}
			} else {
				k = h.L1.lineRun(la, stride, pn-j)
			}
			hit, slot := h.L1.probe(la)
			var cextra uint32
			var l2miss, cohm bool
			if hit {
				cextra = h.L1Hit
			} else {
				if h.Coh != nil && h.Coh.Transfer(la, h.CoreID) {
					cohm = true
					cextra = h.CohPenalty
				}
				if h.L2.Access(la) {
					cextra += h.L2Hit
				} else {
					cextra += h.MemPenalty
					l2miss = true
				}
			}
			extra := cextra
			dm := false
			if j == 0 {
				extra += dExtra
				dm = dmiss
			}
			if dm || l2miss || cohm || extra != h.L1Hit {
				buf = append(buf, DataEvent{Index: i + j, Extra: extra, DTLBMiss: dm, L2Miss: l2miss, Coh: cohm})
			}
			if k > 1 {
				h.L1.touchSlot(slot, uint32(k-1))
			}
			j += k
			la += addr.Address(uint64(k) * uint64(stride))
		}
		if h.DTLB != nil && pn > 1 {
			h.DTLB.touchSlot(dSlot, uint32(pn-1))
		}
		i += pn
		a += addr.Address(uint64(pn) * uint64(stride))
	}
	// Residency tracking lands on the final op, exactly as the per-op
	// loop's last Access/AccessData calls would leave it.
	last := mem + addr.Address(uint64(n-1)*uint64(stride))
	h.lastDLine = uint64(last) >> h.L1.lineBits
	h.lastDLineGen = h.L1.gen
	h.haveDLine = true
	if h.DTLB != nil {
		h.lastDPage = uint64(last) >> h.DTLB.lineBits
		h.lastDPageGen = h.DTLB.gen
		h.haveDPage = true
	}
	return buf
}

// AccessInstr probes the ITLB when execution crosses a page boundary
// (the common case — straight-line code within a page — costs nothing,
// as on hardware).
func (h *Hierarchy) AccessInstr(pc addr.Address) (extraCycles uint32, miss bool) {
	if h.ITLB == nil {
		return 0, false
	}
	page := uint64(pc) >> 12
	if page == h.lastIPage {
		return 0, false
	}
	h.lastIPage = page
	if h.ITLB.Access(pc) {
		return 0, false
	}
	return h.TLBPenalty, true
}

// InstrFree reports whether an instruction fetch at pc is guaranteed to
// bypass the memory model entirely — no ITLB probe, no extra cycles, no
// sampling event. True when there is no ITLB or when pc is on the same
// page as the previous fetch (the straight-line common case).
func (h *Hierarchy) InstrFree(pc addr.Address) bool {
	return h.ITLB == nil || uint64(pc)>>12 == h.lastIPage
}

// PageConstrained reports whether instruction fetches interact with the
// memory model at page boundaries (an ITLB is present). When false,
// bulk execution need not split runs at page crossings.
func (h *Hierarchy) PageConstrained() bool { return h.ITLB != nil }

// InstrRun is the bulk fetch-accounting call of the batched execution
// engine: it returns how many sequential instruction fetches starting
// at pc (advancing by stride bytes each) are guaranteed to be free —
// identical to per-op AccessInstr calls that all hit the same-page fast
// path and therefore touch no cache state and raise no events. It
// returns 0 when the first fetch needs an ITLB probe (the caller must
// take the precise per-op path, which performs the probe and records
// the miss sequence exactly as before). The result is capped at max.
func (h *Hierarchy) InstrRun(pc addr.Address, stride uint32, max uint64) uint64 {
	if h.ITLB == nil {
		return max
	}
	if uint64(pc)>>12 != h.lastIPage {
		return 0
	}
	if stride == 0 {
		return max
	}
	// Fetch i lands at pc + i*stride; it stays on the current page while
	// i*stride <= pageEnd - pc. Power-of-two strides (4 everywhere in
	// practice) divide by shifting.
	left := 0xFFF - (uint64(pc) & 0xFFF)
	var n uint64
	if stride&(stride-1) == 0 {
		n = left>>uint(bits.TrailingZeros32(stride)) + 1
	} else {
		n = left/uint64(stride) + 1
	}
	if n > max {
		n = max
	}
	return n
}

// Flush empties the caches and TLBs (used at context switch to model
// the cold state a newly scheduled process sees).
func (h *Hierarchy) Flush() {
	h.L1.Flush()
	h.L2.Flush()
	if h.DTLB != nil {
		h.DTLB.Flush()
	}
	if h.ITLB != nil {
		h.ITLB.Flush()
		h.lastIPage = 0
	}
}
