package cache

// Cross-core coherency model for the SMP machine: a single shared
// directory, at shared-L2-line granularity, remembering which core last
// wrote each line. A core whose L1 misses on a line last written by a
// *different* core pays a transfer penalty (the simplified cost of an
// invalidate + cache-to-cache forward) and raises one
// COHERENCY_TRANSFERS event. The transfer clears ownership: the line is
// now clean in the shared L2, so subsequent readers on any core pay
// nothing more until someone writes it again. This deliberately models
// only the first-order effect — write-invalidate traffic between
// private L1s — which is what per-core attribution needs to make
// cross-core costs visible; it is not a full MESI state machine.

import "viprof/internal/addr"

// Directory is the shared write-ownership map. One Directory is shared
// by all Hierarchies of an SMP machine (it lives logically beside the
// shared L2).
type Directory struct {
	lineBits  uint
	owner     map[uint64]int
	transfers uint64
}

// NewDirectory returns an empty directory tracking ownership at the
// given line granularity (use the shared L2's line bits).
func NewDirectory(lineBits uint) *Directory {
	return &Directory{lineBits: lineBits, owner: make(map[uint64]int)}
}

// MarkWrite records that core last wrote the line holding a.
func (d *Directory) MarkWrite(a addr.Address, core int) {
	d.owner[uint64(a)>>d.lineBits] = core
}

// Transfer reports whether an access to a by core hits a line last
// written by a different core. A true result IS the transfer: ownership
// clears (the line is forwarded and left clean in the shared level), so
// each write is charged to at most one remote reader — re-probing the
// same line after an L1 eviction does not pay again.
func (d *Directory) Transfer(a addr.Address, core int) bool {
	line := uint64(a) >> d.lineBits
	own, ok := d.owner[line]
	if !ok || own == core {
		return false
	}
	delete(d.owner, line)
	d.transfers++
	return true
}

// Transfers returns the lifetime cross-core transfer count.
func (d *Directory) Transfers() uint64 { return d.transfers }

// SharedHierarchies builds n per-core hierarchies for an SMP machine:
// each core gets a private L1, DTLB and ITLB with the default geometry,
// all cores share one L2 and one coherency directory. n == 1 yields a
// machine indistinguishable from DefaultHierarchy() in cost terms (the
// directory never fires with a single writer), but tests that want
// bit-for-bit identity with the pre-SMP model should keep using
// DefaultHierarchy, whose Coh field is nil and skips directory
// bookkeeping entirely.
func SharedHierarchies(n int) []*Hierarchy {
	l2 := newL2()
	dir := NewDirectory(l2.lineBits)
	hs := make([]*Hierarchy, n)
	for i := range hs {
		hs[i] = newHierarchy(l2)
		hs[i].Coh, hs[i].CoreID, hs[i].CohPenalty = dir, i, DefaultCohPenalty
	}
	return hs
}
