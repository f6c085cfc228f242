// Package cache implements a small set-associative cache hierarchy used
// by the simulated CPU to generate memory-system events. The paper's
// second profiled hardware event, BSQ_CACHE_REFERENCE (L2 data cache
// misses on the Pentium 4), is produced by this model: every memory
// micro-op probes L1; L1 misses probe L2; L2 misses raise an event the
// hardware performance counters can count.
package cache

import (
	"fmt"
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
	// tags[set*Ways : (set+1)*Ways] holds the set's lines in recency
	// order, most recently used first. Lines enter at the front, so the
	// empty (zero) slots always trail the valid ones and the last slot
	// is the one a fill evicts: empty while the set has room, else the
	// least recently used line.
	tags []uint64

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
	return &Cache{
		cfg:      cfg,
		setMask:  uint64(cfg.Sets - 1),
		lineBits: cfg.LineBits,
		tags:     make([]uint64, cfg.Sets*cfg.Ways),
	}, nil
}

// set returns the recency-ordered tags of the set holding line.
func (c *Cache) set(line uint64) []uint64 {
	base := int(line&c.setMask) * c.cfg.Ways
	return c.tags[base : base+c.cfg.Ways]
}

// Access probes the cache for the line containing a, filling it on a
// miss, and reports whether the access hit. Either way the line ends in
// front of its set: a hit at way w moves ways 0..w-1 down by one, a
// miss moves the whole set down and drops its last slot.
func (c *Cache) Access(a addr.Address) bool {
	line := uint64(a) >> c.lineBits
	set := c.set(line)
	c.accesses++
	if set[0] == line {
		return true
	}
	// Carry each slot one way down until the line turns up; the slot
	// carried off the end of a set without it is the victim.
	prev := set[0]
	set[0] = line
	for w := 1; w < len(set); w++ {
		cur := set[w]
		set[w] = prev
		if cur == line {
			return true
		}
		prev = cur
	}
	c.misses++
	return false
}

// Contains reports whether the line holding a is currently resident,
// without touching recency state or statistics.
func (c *Cache) Contains(a addr.Address) bool {
	line := uint64(a) >> c.lineBits
	for _, t := range c.set(line) {
		if t == line {
			return true
		}
	}
	return false
}

// Flush invalidates all lines. Statistics are preserved.
func (c *Cache) Flush() {
	clear(c.tags)
	c.gen++
}

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

// touch applies k deferred accesses that were guaranteed hits on the
// line holding a: the line was resident and most-recently-used when
// they retired, so they net to one hit that leaves the line in front
// of its set plus k-1 counted accesses. If the line is gone (an
// intervening Flush, which per-op ordering places after the hits),
// only the count survives, exactly as it would have.
func (c *Cache) touch(a addr.Address, k uint32) {
	if k == 0 {
		return
	}
	if c.Contains(a) {
		c.Access(a)
		k--
	}
	c.accesses += uint64(k)
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
	// Latencies in cycles of an L1 miss that hits L2 and of one that
	// misses both. An L1 hit is folded into the base instruction cost: it
	// charges nothing extra.
	L2Hit, MemPenalty uint32

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
}

// mustBuild builds a cache from one of the fixed default geometries.
func mustBuild(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// The default geometry is Pentium 4-like, scaled for the simulated
// clock (Northwood/Prescott era). newL1 builds the 16 KiB 8-way L1 with
// 64-byte lines, newL2 the 512 KiB 8-way L2 with 128-byte lines, newTLB
// a 64-entry 4-way TLB over 4 KiB pages.
func newL1() *Cache  { return mustBuild(Config{Sets: 32, Ways: 8, LineBits: 6}) }
func newL2() *Cache  { return mustBuild(Config{Sets: 512, Ways: 8, LineBits: 7}) }
func newTLB() *Cache { return mustBuild(Config{Sets: 16, Ways: 4, LineBits: 12}) }

// newHierarchy builds one core's default hierarchy over l2: its own
// L1 and TLBs, with the default latencies.
func newHierarchy(l2 *Cache) *Hierarchy {
	return &Hierarchy{
		L1: newL1(), L2: l2, L2Hit: 8, MemPenalty: 120,
		DTLB: newTLB(), ITLB: newTLB(), TLBPenalty: 30,
	}
}

// DefaultHierarchy models a single-core Pentium 4-like memory system:
// the default L1 and L2 (see newL1) with data and instruction TLBs.
func DefaultHierarchy() *Hierarchy { return newHierarchy(newL2()) }

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
		return 0, false, false
	}
	return h.fill(a)
}

// fill is the L1-miss tail of a data access: the coherency directory,
// then L2. If another core wrote the line last, this fill is the
// transfer. L1 hits never check — a resident line was filled by us
// after any prior transfer.
func (h *Hierarchy) fill(a addr.Address) (extraCycles uint32, l2miss, coh bool) {
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

// Data sends one data reference through the hierarchy, the DTLB probe
// then the cache probe, and returns its outcome with Index 0: the
// per-op probe pair that the core's precise step and DataBatch share.
func (h *Hierarchy) Data(a addr.Address) DataEvent {
	extra, dmiss := h.AccessData(a)
	cextra, l2miss, coh := h.Access(a)
	return DataEvent{Extra: extra + cextra, DTLBMiss: dmiss, L2Miss: l2miss, Coh: coh}
}

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
// memory reference charged extra cycles (anything but an L1 hit) or
// raised a sampling event. Index is the op's position in the run; Extra is the
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
// exactly the per-op pair Data runs — and appends a DataEvent
// for every op that was not a plain L1+DTLB hit. State updates are
// bit-for-bit identical to the per-op loop: within one L1-line/DTLB-
// page segment only the first access can miss (the head probe leaves
// line and page resident and in front of their sets, and nothing else
// touches the data structures mid-run), so the tail only counts.
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
		// a guaranteed hit on the front slot — and the tail only counts,
		// like the L1 tails below.
		pn := n - i
		var dExtra uint32
		var dmiss bool
		if h.DTLB != nil {
			if pk := h.DTLB.lineRun(a, stride, pn); pk < pn {
				pn = pk
			}
			if !h.DTLB.Access(a) {
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
			var cextra uint32
			var l2miss, cohm bool
			if !h.L1.Access(la) {
				cextra, l2miss, cohm = h.fill(la)
			}
			extra := cextra
			dm := false
			if j == 0 {
				extra += dExtra
				dm = dmiss
			}
			if dm || l2miss || cohm || extra != 0 {
				buf = append(buf, DataEvent{Index: i + j, Extra: extra, DTLBMiss: dm, L2Miss: l2miss, Coh: cohm})
			}
			h.L1.accesses += uint64(k - 1)
			j += k
			la += addr.Address(uint64(k) * uint64(stride))
		}
		if h.DTLB != nil {
			h.DTLB.accesses += uint64(pn - 1)
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

// DataBatch replays the scattered data accesses of an op vector
// through the hierarchy in order, each by the per-op probe pair (Data),
// and appends a DataEvent, indexed by the op's position in mems, for
// every op that was not a plain L1+DTLB hit. A zero slot is an op with
// no memory operand, as in cpu.Op, and is skipped. Scattered batches
// are short (two to four operands per call on the bench workloads) and
// most of their probes miss or hit the front slot, so nothing is gained
// by coalescing repeated lines.
//
// Contract: as for DataRun, no other data access may interleave with
// the ops of the batch (NMI handlers are instruction-only).
func (h *Hierarchy) DataBatch(mems []addr.Address, buf []DataEvent) []DataEvent {
	for i, a := range mems {
		if a == 0 {
			continue
		}
		if ev := h.Data(a); ev.DTLBMiss || ev.L2Miss || ev.Coh || ev.Extra != 0 {
			ev.Index = i
			buf = append(buf, ev)
		}
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
