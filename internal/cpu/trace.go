// Fused-stretch retirement and scattered-operand batch execution: the
// two core-side primitives behind the JVM's superinstruction replay and
// its service routines. BatchRun retires a stretch of ops into the
// streaming batch through accumulate, the batch's one accumulate step,
// which BatchOp and BatchMemOp use for single ops: a trace replay
// retires each fused segment of its descriptor in one BatchRun call, so
// replayed and stepped bytecodes share one event-horizon accumulator.
// ExecScatter is ExecMemBatch for non-strided memory operands, resolved
// upfront by one pass of per-op probes through the cache model
// (cache.Hierarchy.DataBatch).
package cpu

import (
	"viprof/internal/addr"
)

// BatchRun retires a fused stretch of n micro-ops with no memory
// operand (or, from BatchMemOp, one op with a proven-hit operand) at
// PCs first..last, costing `cost` cycles in total, into the open
// streaming batch, opening one at first if none is open or the open one
// cannot take them. The PC, instruction count, cycle clock and slice
// budget advance eagerly, as for BatchOp; the counter ticks land at the
// next flush.
//
// It refuses, retiring nothing, when the stretch could hide an
// observable event: batching is off (the per-op oracle), a latched NMI
// is waiting to drain, first or last leaves the batch's instruction
// page under an ITLB (a fetch would need a probe), or an armed counter
// is within n ops or `cost` cycles of overflow. The caller then retires
// the ops one at a time, which finds the exact op at the horizon. The
// slice is the caller's guard: a stretch that must stop at the op where
// the slice runs out checks SliceLeft before calling.
func (c *Core) BatchRun(first, last addr.Address, n, cost uint64) bool {
	return c.accumulate(first, last, n, cost) || c.openBatch(first) && c.accumulate(first, last, n, cost)
}

// accumulate is the one accumulate step behind BatchOp, BatchMemOp and
// BatchRun: it retires n ops at PCs first..last costing `cost` cycles
// into the open batch if the batch can take them — both PCs inside its
// fetch range, n and `cost` inside its headroom — and reports whether
// it did. It is small enough to inline, so a streamed op that fits the
// open batch costs its caller no further call.
func (c *Core) accumulate(first, last addr.Address, n, cost uint64) bool {
	b := &c.bat
	if first < b.lo || last > b.hi || n > b.opsLeft || cost > b.costLeft {
		return false
	}
	b.opsLeft -= n
	b.costLeft -= cost
	c.pc = last
	c.instrs += n
	c.cycles += cost
	c.slice -= min(c.slice, cost)
	return true
}

// ExecScatter is the event-horizon fast path for a uniform run of
// micro-ops whose memory operands are scattered: n=len(mems) ops at PCs
// start, start+stride, ... each costing `cost` cycles, op i touching
// mems[i] (0 = no memory operand). It is bit-for-bit identical to the
// per-op loop of Exec calls — same cycles, counter state, NMI program
// counters, cache state, and miss sequence — but resolves all data
// outcomes upfront in one pass (cache.Hierarchy.DataBatch, a DTLB and
// L1 probe per operand, its events indexed by op) and hands them to the
// bulk walker, exactly as ExecMemBatch does for strided operands.
//
// The upfront replay is sound for the same reason as ExecMemBatch's:
// nothing else touches the data caches between the ops of the run (NMI
// handlers execute instruction-only kernel work).
func (c *Core) ExecScatter(start addr.Address, stride uint32, cost uint32, mems []addr.Address) {
	if c.noBatch || cost == 0 {
		for i, m := range mems {
			c.Exec(Op{PC: start + addr.Address(i)*addr.Address(stride), Cost: cost, Mem: m})
		}
		return
	}
	c.FlushBatch()
	c.evBuf = c.evBuf[:0]
	if c.Mem != nil {
		c.evBuf = c.Mem.DataBatch(mems, c.evBuf)
	}
	c.retireRun(start, len(mems), stride, cost, c.evBuf)
}
