// Fused trace retirement and scattered-operand batch execution: the two
// core-side primitives behind the JVM's superinstruction replay. A
// trace replay asks the core for an event-horizon window (TraceWindow),
// accumulates provably event-free micro-ops locally, and retires them
// in one bulk update (RetireTrace); ops it cannot prove event-free take
// the ordinary precise paths in between. ExecScatter is ExecMemBatch
// for non-strided memory operands, resolved upfront by one pass of
// per-access probes through the cache model (cache.Hierarchy.DataBatch).
package cpu

import (
	"viprof/internal/addr"
	"viprof/internal/hpc"
)

// TraceWindow prepares the core for a fused trace replay spanning the
// instruction addresses [pcFirst, pcLast] and returns the event-horizon
// headroom granted to it: the caller may accumulate up to `ops`
// micro-ops totalling up to `cycles` cost and retire them with one
// RetireTrace, with the guarantee that no observable event — counter
// overflow, NMI delivery, ITLB traffic — could have occurred inside the
// fused stretch. ok is false when fused replay cannot begin at all:
// batching is disabled (the per-op ablation oracle), a latched NMI is
// waiting to drain, the span leaves the current instruction page (the
// fetch accounting would not be a no-op), or a counter is within one
// op of overflow. Any open streaming batch is flushed first so the
// headroom read from the bank is exact.
//
// After any intervening precise op (which may tick counters, run NMI
// handlers, and move the ITLB), the window is stale: the caller must
// re-request it before accumulating further.
func (c *Core) TraceWindow(pcFirst, pcLast addr.Address) (ops, cycles uint64, ok bool) {
	if c.noBatch {
		return 0, 0, false
	}
	if c.bat.active {
		c.FlushBatch()
	}
	if !c.inNMI && len(c.pending) > 0 {
		return 0, 0, false
	}
	if c.Mem != nil && (!c.Mem.InstrFree(pcFirst) || !c.Mem.InstrFree(pcLast)) {
		return 0, 0, false
	}
	ops, cycles = c.Bank.BulkHeadroom(hpc.InstrRetired, hpc.GlobalPowerEvents)
	if ops == 0 || cycles == 0 {
		return 0, 0, false
	}
	return ops, cycles, true
}

// RetireTrace retires n accumulated micro-ops of a fused trace replay
// in one bulk update: the deferred guaranteed-hit recency arithmetic
// first (dtouch proven-hit data probes on the line of daddr, exactly
// as FlushBatch), then the architectural state (PC of the last fused
// op, instruction count, cycle clock, slice budget) and one bulk tick
// per counter. Valid only under an unexpired TraceWindow covering
// (n, cycles): within the window no counter can overflow, every fetch
// is page-local, and the slice clamp is order-independent, so the bulk
// update equals the sum of the per-op updates bit for bit.
func (c *Core) RetireTrace(lastPC addr.Address, n, cycles uint64, daddr addr.Address, dtouch uint32) {
	if n == 0 {
		return
	}
	if c.bat.active {
		c.FlushBatch()
	}
	if dtouch > 0 {
		c.Mem.DataTouch(daddr, dtouch)
	}
	c.pc = lastPC
	c.instrs += n
	c.cycles += cycles
	if c.slice >= cycles {
		c.slice -= cycles
	} else {
		c.slice = 0
	}
	c.Bank.Tick(hpc.InstrRetired, n)
	c.Bank.Tick(hpc.GlobalPowerEvents, cycles)
}

// ExecScatter is the event-horizon fast path for a uniform run of
// micro-ops whose memory operands are scattered: n=len(mems) ops at PCs
// start, start+stride, ... each costing `cost` cycles, op i touching
// mems[i] (0 = no memory operand). It is bit-for-bit identical to the
// per-op loop of Exec calls — same cycles, counter state, NMI program
// counters, cache state, and miss sequence — but resolves all data
// outcomes upfront in one pass (cache.Hierarchy.DataBatch, a DTLB and
// L1 probe per operand), then retires the uniform event-free
// stretches between recorded events with O(1) bookkeeping per event
// horizon, exactly as ExecMemBatch does for strided operands.
//
// The upfront replay is sound for the same reason as ExecMemBatch's:
// nothing else touches the data caches between the ops of the run (NMI
// handlers execute instruction-only kernel work).
func (c *Core) ExecScatter(start addr.Address, stride uint32, cost uint32, mems []addr.Address) {
	n := len(mems)
	if n == 0 {
		return
	}
	if c.noBatch || c.Mem == nil || cost == 0 {
		pc := start
		for i := 0; i < n; i++ {
			c.Exec(Op{PC: pc, Cost: cost, Mem: mems[i]})
			pc += addr.Address(stride)
		}
		return
	}
	if c.bat.active {
		c.FlushBatch()
	}
	// Gather the data operands and resolve their cache outcomes upfront.
	c.memBuf = c.memBuf[:0]
	c.memIdx = c.memIdx[:0]
	for i, m := range mems {
		if m != 0 {
			c.memBuf = append(c.memBuf, m)
			c.memIdx = append(c.memIdx, int32(i))
		}
	}
	c.evBuf = c.evBuf[:0]
	if len(c.memBuf) > 0 {
		c.evBuf = c.Mem.DataBatch(c.memBuf, c.evBuf)
	}
	hit := c.Mem.HitCost()
	pc := start
	ei := 0 // next unconsumed DataBatch event
	mi := 0 // next memory op (walked only when hit != 0)
	for i := 0; i < n; {
		// Find the next op that must retire precisely because of its
		// memory outcome. With the usual zero L1-hit cost, only the
		// recorded events qualify: the silent guaranteed hits charge
		// exactly the base cost and their cache state was already
		// replayed, so they are indistinguishable from no-memory ops
		// inside a bulk stretch. With a nonzero hit cost, every memory
		// op charges beyond the base cost and leaves the stretch.
		next := n
		var extra uint32
		var dm, l2, coh bool
		if hit == 0 {
			if ei < len(c.evBuf) {
				next = int(c.memIdx[c.evBuf[ei].Index])
				extra, dm, l2, coh = c.evBuf[ei].Extra, c.evBuf[ei].DTLBMiss, c.evBuf[ei].L2Miss, c.evBuf[ei].Coh
			}
		} else if mi < len(c.memIdx) {
			next = int(c.memIdx[mi])
			extra = hit
			if ei < len(c.evBuf) && c.evBuf[ei].Index == mi {
				extra, dm, l2, coh = c.evBuf[ei].Extra, c.evBuf[ei].DTLBMiss, c.evBuf[ei].L2Miss, c.evBuf[ei].Coh
			}
		}
		if i == next {
			c.execResolved(pc, cost, extra, dm, l2, coh)
			if hit == 0 {
				ei++
			} else {
				if ei < len(c.evBuf) && c.evBuf[ei].Index == mi {
					ei++
				}
				mi++
			}
			i++
			pc += addr.Address(stride)
			continue
		}
		k := c.bulkLen(pc, next-i, stride, cost)
		if k == 0 {
			// At an event horizon: one precise op. Its data outcome, if
			// any, is a silent guaranteed hit (extra 0), so the resolved
			// path is exact for memory and no-memory ops alike.
			c.execResolved(pc, cost, 0, false, false, false)
			i++
			pc += addr.Address(stride)
			continue
		}
		total := uint64(k) * uint64(cost)
		c.pc = pc + addr.Address(stride)*addr.Address(k-1)
		c.instrs += uint64(k)
		c.cycles += total
		if c.slice >= total {
			c.slice -= total
		} else {
			c.slice = 0
		}
		c.Bank.Tick(hpc.InstrRetired, uint64(k))
		c.Bank.Tick(hpc.GlobalPowerEvents, total)
		pc += addr.Address(stride) * addr.Address(k)
		i += k
	}
}
