package cache

// Sorted multi-run replay for scattered (non-strided) address batches —
// the access shape that defeats DataRun's line-segment coalescing: GC
// pointer chasing, hashtable probes, the interpreter's field traffic
// once a trace mixes objects. The batch is sorted by (page, line) index
// to link repeated lines/pages without hashing, then replayed in
// original access order so recency-update order, victim selection and
// the miss sequence stay bit-for-bit with the per-op oracle: a repeat
// access is retired as O(1) hit arithmetic only when its line provably
// survived — no fill has entered its set since the previous access of
// the batch left it resident and most-recently-used — and every other
// access takes a real probe.

import (
	"sort"

	"viprof/internal/addr"
)

// levelScratch is the reusable per-cache-level working state of one
// DataBatch call: the previous-same-line links recovered from the sort,
// the slot and set-fill epoch observed at each access, and the per-set
// fill counters (kept zeroed between batches via the dirty list).
type levelScratch struct {
	prev  []int32  // prev[i]: latest j<i with the same line, else -1
	slot  []int32  // slot[i]: way index holding the line after access i
	epoch []uint32 // epoch[i]: set-fill count right after access i
	fills []uint32 // per-set fill count within the current batch
	dirty []int32  // sets with nonzero fills, re-zeroed after the batch
}

func (ls *levelScratch) grow(n, sets int) {
	if cap(ls.prev) < n {
		ls.prev = make([]int32, n)
		ls.slot = make([]int32, n)
		ls.epoch = make([]uint32, n)
	}
	ls.prev = ls.prev[:n]
	ls.slot = ls.slot[:n]
	ls.epoch = ls.epoch[:n]
	if len(ls.fills) != sets {
		ls.fills = make([]uint32, sets)
		ls.dirty = ls.dirty[:0]
	}
}

func (ls *levelScratch) reset() {
	for _, s := range ls.dirty {
		ls.fills[s] = 0
	}
	ls.dirty = ls.dirty[:0]
}

// step replays access i at address a against cache c: O(1) hit
// arithmetic when the outcome is provable, a full probe otherwise.
//
// The fast path fires when a previous access p of this batch touched
// the same line and no fill has entered the line's set since (the
// per-set epoch is unchanged). Fills are the only operation that
// rewrites tags, so the line still occupies the slot p recorded, and a
// probe would scan to exactly that slot and hit — its whole state
// change is clock+1, accesses+1, and the slot's recency stamp moving to
// the new clock, which is applied directly. Any fill into the set
// (which may or may not have evicted this line) drops the access to a
// real probe, which handles residency, victim choice and statistics
// exactly as the per-op path.
func (ls *levelScratch) step(c *Cache, a addr.Address, i int) (bool, int) {
	line := uint64(a) >> c.lineBits
	set := int32(line & c.setMask)
	if p := ls.prev[i]; p >= 0 && ls.epoch[p] == ls.fills[set] {
		slot := ls.slot[p]
		c.accesses++
		c.lru[slot] = c.tick()
		ls.slot[i] = slot
		ls.epoch[i] = ls.fills[set]
		return true, int(slot)
	}
	hit, slot := c.probe(a)
	if !hit {
		if ls.fills[set] == 0 {
			ls.dirty = append(ls.dirty, set)
		}
		ls.fills[set]++
	}
	ls.slot[i] = int32(slot)
	ls.epoch[i] = ls.fills[set]
	return hit, slot
}

// scatterScratch is the reusable buffers of DataBatch.
type scatterScratch struct {
	keys []uint64
	perm []int32
	l1   levelScratch
	tlb  levelScratch
}

// sortPerm orders perm by (keys[perm[j]], perm[j]) ascending. Batches
// are usually small (tens of ops between interpreter horizon events),
// where insertion sort beats the generic path; large batches fall back
// to sort.Slice. The index tie-break makes the order total, so the
// result is deterministic.
func sortPerm(keys []uint64, perm []int32) {
	if len(perm) > 64 {
		sort.Slice(perm, func(a, b int) bool {
			ka, kb := keys[perm[a]], keys[perm[b]]
			if ka != kb {
				return ka < kb
			}
			return perm[a] < perm[b]
		})
		return
	}
	for i := 1; i < len(perm); i++ {
		p := perm[i]
		kp := keys[p]
		j := i - 1
		for j >= 0 && (keys[perm[j]] > kp || (keys[perm[j]] == kp && perm[j] > p)) {
			perm[j+1] = perm[j]
			j--
		}
		perm[j+1] = p
	}
}

// linkPrev fills prev with, for each access index, the latest earlier
// access sharing its key (-1 if none), by sorting a permutation by
// (key, index) and linking adjacent equal-key entries.
func linkPrev(keys []uint64, perm []int32, prev []int32) {
	n := len(keys)
	for i := 0; i < n; i++ {
		perm[i] = int32(i)
		prev[i] = -1
	}
	sortPerm(keys, perm)
	for j := 1; j < n; j++ {
		if keys[perm[j]] == keys[perm[j-1]] {
			prev[perm[j]] = perm[j-1]
		}
	}
}

// DataBatch replays len(mems) scattered data accesses through the
// hierarchy in original order — for each address a DTLB probe then a
// cache probe, exactly the per-op AccessData/Access pair — and appends
// a DataEvent for every op that was not a plain L1+DTLB hit. State
// updates are bit-for-bit identical to the per-op loop; repeated lines
// and pages within the batch retire as deferred-style hit arithmetic
// when no intervening fill can have evicted them (see levelScratch.step).
// L2 is driven sparsely, one real probe per L1 miss, as per-op.
//
// Contract: as for DataRun, no other data access may interleave with
// the ops of the batch (NMI handlers are instruction-only).
func (h *Hierarchy) DataBatch(mems []addr.Address, buf []DataEvent) []DataEvent {
	n := len(mems)
	if n == 0 {
		return buf
	}
	s := &h.scatter
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.perm = make([]int32, n)
	}
	s.keys = s.keys[:n]
	s.perm = s.perm[:n]
	s.l1.grow(n, h.L1.cfg.Sets)
	for i, a := range mems {
		s.keys[i] = uint64(a) >> h.L1.lineBits
	}
	linkPrev(s.keys, s.perm, s.l1.prev)
	if h.DTLB != nil {
		s.tlb.grow(n, h.DTLB.cfg.Sets)
		for i, a := range mems {
			s.keys[i] = uint64(a) >> h.DTLB.lineBits
		}
		linkPrev(s.keys, s.perm, s.tlb.prev)
	}
	for i, a := range mems {
		var extra uint32
		var dmiss bool
		if h.DTLB != nil {
			if hit, _ := s.tlb.step(h.DTLB, a, i); !hit {
				extra, dmiss = h.TLBPenalty, true
			}
		}
		hit, _ := s.l1.step(h.L1, a, i)
		var l2miss, cohm bool
		if hit {
			extra += h.L1Hit
		} else {
			if h.Coh != nil && h.Coh.Transfer(a, h.CoreID) {
				cohm = true
				extra += h.CohPenalty
			}
			if h.L2.Access(a) {
				extra += h.L2Hit
			} else {
				extra += h.MemPenalty
				l2miss = true
			}
		}
		if dmiss || l2miss || cohm || extra != h.L1Hit {
			buf = append(buf, DataEvent{Index: i, Extra: extra, DTLBMiss: dmiss, L2Miss: l2miss, Coh: cohm})
		}
	}
	s.l1.reset()
	if h.DTLB != nil {
		s.tlb.reset()
	}
	// Residency tracking lands on the final op, exactly as the per-op
	// loop's last Access/AccessData calls would leave it.
	last := mems[n-1]
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
