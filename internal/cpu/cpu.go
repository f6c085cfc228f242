// Package cpu simulates a single processor core at micro-op granularity.
// Executors (native code models, the JVM) feed the core a stream of
// micro-ops; each op advances the cycle clock, probes the cache
// hierarchy, and ticks the hardware performance counters. When a counter
// overflows, the core raises a non-maskable interrupt: the registered
// handler runs immediately with a snapshot of the interrupted
// instruction, exactly the information OProfile's NMI handler reads from
// the trap frame (paper §3).
//
// The handler itself may execute micro-ops on the core (its cost is
// simulated execution at kernel addresses), so profiling overhead is
// endogenous: faster sampling really does slow the simulated system
// down, which is what Figure 2 of the paper measures.
package cpu

import (
	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/hpc"
)

// ClockHz is the simulated core frequency. The paper's testbed prose
// says "3.4MHz" (an obvious typo for GHz); we adopt the literal value as
// the simulated clock so that full-length benchmark runs are tractable
// while the reported "seconds" still match Figure 3.
const ClockHz = 3_400_000

// Seconds converts a cycle count to simulated wall-clock seconds.
func Seconds(cycles uint64) float64 { return float64(cycles) / ClockHz }

// Op is one micro-op: an instruction executed at PC costing Cost cycles,
// optionally touching memory at Mem (0 means no memory operand; the
// simulated layout never maps page zero).
type Op struct {
	PC   addr.Address
	Cost uint32
	Mem  addr.Address
}

// Context identifies what the core is running, for sample attribution.
type Context struct {
	PID    int
	Kernel bool // privilege mode
}

// Snapshot captures the architectural state the NMI handler sees: the
// interrupted program counter and context, plus the cycle time and the
// CPU the overflow fired on.
type Snapshot struct {
	PC     addr.Address
	Ctx    Context
	Cycles uint64
	CPU    int
}

// NMIHandler services a counter overflow. It runs in interrupt context;
// ops it executes are charged to the core (and can themselves be
// sampled by a subsequent overflow).
type NMIHandler func(core *Core, s Snapshot, ev hpc.Event)

// Core is the simulated processor.
type Core struct {
	Bank *hpc.Bank
	Mem  *cache.Hierarchy

	id      int // CPU number on the machine (0 on single-core)
	cycles  uint64
	instrs  uint64
	ctx     Context
	pc      addr.Address
	handler NMIHandler

	inNMI   bool
	pending []pendingNMI
	lost    uint64 // NMIs dropped because the latch was full

	slice uint64 // remaining cycle budget for the current scheduling slice

	noBatch bool     // disables the event-horizon fast path (ablation/verification)
	bat     batchAcc // open micro-op accumulator (see BatchRun)

	evBuf []cache.DataEvent // reusable DataRun/DataBatch scratch
}

// batchAcc is the streaming half of the batched execution engine and
// its only event-horizon accumulator: a run of straight-line micro-ops,
// each with no memory operand or a proven-hit one, whose counter ticks
// are provably overflow-free and therefore deferred to one bulk Tick at
// flush time. Cycle clock, instruction count, PC and slice budget are
// updated eagerly per op, so every externally observable scalar
// (Cycles, Instructions, PC, Expired) stays exact while the batch is
// open; only the counter bank lags, bounded by the event horizon that
// guarantees no counter can cross its period before the flush.
type batchAcc struct {
	// lo..hi are the PCs the open batch may fetch from: the instruction
	// page it opened on when an ITLB is modelled, every PC otherwise. The
	// range is empty (lo > hi) while no batch is open, so one range check
	// answers both "is a batch open" and "is this fetch free".
	lo, hi addr.Address
	// ops0 and cost0 are the headroom in ops and cycles the bank granted
	// at open; opsLeft and costLeft what the batch has left of it. The
	// deferred INSTR_RETIRED and GLOBAL_POWER_EVENTS ticks are the
	// difference.
	ops0, cost0, opsLeft, costLeft uint64

	// Deferred data-cache recency updates for BatchMemOp: dtouch ops
	// were proven guaranteed L1+DTLB hits (cache.Hierarchy.DataFree) at
	// addresses on the line/page of daddr; the probes they stand for
	// are replayed as bulk recency arithmetic at flush time.
	dtouch uint32
	daddr  addr.Address
}

// maxLatched bounds how many overflow NMIs can be latched while one is
// in service. Real hardware latches exactly one; we allow a few to keep
// multi-counter bursts honest, and count the rest as lost. The bound is
// what prevents a sampling period shorter than the handler cost from
// livelocking the simulation (real systems NMI-storm instead).
const maxLatched = 4

type pendingNMI struct {
	snap Snapshot
	ev   hpc.Event
}

// New returns a core with the given counter bank and cache hierarchy.
// Either may be nil for tests that don't need them.
func New(bank *hpc.Bank, mem *cache.Hierarchy) *Core {
	if bank == nil {
		bank = hpc.NewBank()
	}
	c := &Core{Bank: bank, Mem: mem}
	c.bat.lo, c.bat.hi = 1, 0
	bank.OnOverflow = c.onOverflow
	return c
}

// SetID assigns the CPU number; the kernel numbers cores at machine
// construction.
func (c *Core) SetID(id int) { c.id = id }

// SetNMIHandler installs the overflow handler (the profiler driver).
// A nil handler drops overflows on the floor.
func (c *Core) SetNMIHandler(h NMIHandler) { c.handler = h }

// SetContext tells the core what is about to run; the kernel calls this
// on context switch and at user/kernel transitions.
func (c *Core) SetContext(ctx Context) { c.ctx = ctx }

// Context returns the current execution context.
func (c *Core) Context() Context { return c.ctx }

// Cycles returns the core's cycle clock.
func (c *Core) Cycles() uint64 { return c.cycles }

// Instructions returns the number of micro-ops executed.
func (c *Core) Instructions() uint64 { return c.instrs }

// PC returns the most recently executed program counter.
func (c *Core) PC() addr.Address { return c.pc }

// Exec runs one micro-op precisely: it probes the data side of the
// memory model for the op's operand (Hierarchy.Data) and retires the op
// through the precise step (execResolved). It advances time, ticks
// counters, and may deliver NMIs before returning.
func (c *Core) Exec(op Op) {
	var ev cache.DataEvent
	if op.Mem != 0 && c.Mem != nil {
		c.FlushBatch() // deferred guaranteed hits land before the probe
		ev = c.Mem.Data(op.Mem)
	}
	c.execResolved(op.PC, op.Cost, ev)
}

// execResolved is the one precise step: it retires one micro-op whose
// data-memory outcome ev was resolved before it — by Exec's own probe,
// or for a whole run upfront by DataRun or DataBatch, which already
// applied the probes' state changes; the zero event is an op with no
// operand or a plain hit. The instruction side stays live: handlers run
// at kernel PCs and move the ITLB, so fetch accounting cannot be
// precomputed, and the ITLB and the data structures share no state, so
// probing the data first changes nothing. Counters tick in one order
// (ITLB, DTLB, BSQ, then instructions and cycles) and the
// cycle snapshot an overflow latches is taken before the op's cycles
// land, as on the per-op path; latched NMIs are delivered before it
// returns.
func (c *Core) execResolved(pc addr.Address, cost uint32, ev cache.DataEvent) {
	c.FlushBatch()
	c.pc = pc
	c.instrs++
	total := uint64(cost) + uint64(ev.Extra)
	if c.Mem != nil {
		if iextra, imiss := c.Mem.AccessInstr(pc); imiss {
			total += uint64(iextra)
			c.Bank.Tick(hpc.ITLBMiss, 1)
		}
	}
	if ev.DTLBMiss {
		c.Bank.Tick(hpc.DTLBMiss, 1)
	}
	if ev.L2Miss {
		c.Bank.Tick(hpc.BSQCacheReference, 1)
	}
	c.cycles += total
	if c.slice >= total {
		c.slice -= total
	} else {
		c.slice = 0
	}
	c.Bank.Tick(hpc.InstrRetired, 1)
	c.Bank.Tick(hpc.GlobalPowerEvents, total)
	c.drainPending()
}

// SetBatching toggles the event-horizon fast path. Batching is on by
// default; turning it off forces every micro-op through the precise
// per-op path. It exists for the determinism tests and ablation
// benchmarks that prove batched and per-op execution are bit-for-bit
// identical.
func (c *Core) SetBatching(enabled bool) {
	c.FlushBatch()
	c.noBatch = !enabled
}

// Batching reports whether the event-horizon fast path is enabled.
func (c *Core) Batching() bool { return !c.noBatch }

// ExecBatch is the event-horizon fast path for a uniform straight-line
// run: n micro-ops at PCs start, start+stride, ... each costing `cost`
// cycles with no memory operand. It is ExecMemBatch with no operands:
// the bulk walker retires everything short of each event horizon with
// O(1) bookkeeping and the op at the horizon precisely.
func (c *Core) ExecBatch(start addr.Address, n int, stride uint32, cost uint32) {
	c.ExecMemBatch(start, n, stride, cost, 0, 0)
}

// ExecMemBatch is the event-horizon fast path for a uniform run of
// memory micro-ops: n ops at PCs start, start+stride, ... each costing
// `cost` cycles and touching memory at mem, mem+memStride, ... (mem 0:
// no memory operand). It is bit-for-bit identical to the per-op loop of
// Exec calls — same cycles, counter state, NMI program counters, cache
// state, and miss sequence — but replays the data-access run through
// the cache model once up front (cache.Hierarchy.DataRun, one probe per
// line segment) and hands the recorded events to the bulk walker
// (retireRun).
//
// The upfront replay is sound because nothing else touches the data
// caches between the ops of the run: NMI handlers raised mid-run
// execute instruction-only kernel work (fetches touch only the ITLB).
// Handlers must not issue data-memory ops — the same contract
// cache.Hierarchy.DataRun documents.
func (c *Core) ExecMemBatch(start addr.Address, n int, stride uint32, cost uint32, mem addr.Address, memStride uint32) {
	if c.noBatch || cost == 0 {
		for i := 0; i < n; i++ {
			var m addr.Address
			if mem != 0 {
				m = mem + addr.Address(uint64(i)*uint64(memStride))
			}
			c.Exec(Op{PC: start + addr.Address(i)*addr.Address(stride), Cost: cost, Mem: m})
		}
		return
	}
	c.FlushBatch()
	c.evBuf = c.evBuf[:0]
	if mem != 0 && c.Mem != nil {
		c.evBuf = c.Mem.DataRun(mem, memStride, n, c.evBuf)
	}
	c.retireRun(start, n, stride, cost, c.evBuf)
}

// retireRun is the one bulk walker, behind ExecBatch, ExecMemBatch and
// ExecScatter: it retires n micro-ops at PCs pc, pc+stride, ... each
// costing `cost` cycles, whose data outcomes were resolved upfront.
// events lists, in op order, every op whose access charged extra cycles
// or raised an event; every other op has no operand or is a plain hit
// whose cache state was already replayed, so it charges exactly the
// base cost. An op carrying an event retires through the precise step
// at its exact PC. Between events, bulkLen finds the distance to the
// nearest event horizon — counter overflow across the armed bank,
// scheduling-slice expiry, a latched NMI, or an ITLB probe at a page
// crossing — and everything short of it retires in one bulk update:
// one cycle/instruction advance and one tick per counter, exactly the
// sum of the per-op updates. The op at a horizon retires precisely, so
// NMI program counters, latching, skid and miss sequences are
// bit-for-bit those of per-op execution.
func (c *Core) retireRun(pc addr.Address, n int, stride uint32, cost uint32, events []cache.DataEvent) {
	for i, ei := 0, 0; i < n; {
		next := n
		if ei < len(events) {
			next = events[ei].Index
		}
		if i == next {
			c.execResolved(pc, cost, events[ei])
			ei++
			i++
			pc += addr.Address(stride)
			continue
		}
		k := c.bulkLen(pc, next-i, stride, cost)
		if k == 0 {
			// At an event horizon: one precise op with no data event.
			c.execResolved(pc, cost, cache.DataEvent{})
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

// bulkLen returns how many ops of the uniform run starting at pc can
// retire in one O(1) bulk step — the event-horizon distance, capped at
// n. A zero return means the next op must take the precise path.
func (c *Core) bulkLen(pc addr.Address, n int, stride uint32, cost uint32) int {
	// A latched-but-undelivered NMI must drain at the next instruction
	// boundary, exactly where the per-op path would deliver it.
	if !c.inNMI && len(c.pending) > 0 {
		return 0
	}
	k := uint64(n)
	if c.Mem != nil {
		free := c.Mem.InstrRun(pc, stride, k)
		if free == 0 {
			return 0 // the next fetch needs an ITLB probe
		}
		if free < k {
			k = free
		}
	}
	if h := c.Bank.NextOverflowIn(hpc.InstrRetired); h < k {
		k = h
	}
	if h := c.Bank.NextOverflowIn(hpc.GlobalPowerEvents); h != hpc.NoLimit {
		byCost := h
		if cost != 1 {
			byCost = h / uint64(cost)
		}
		if byCost < k {
			k = byCost
		}
	}
	// Slice: while the budget is positive the per-op path subtracts
	// exactly `cost`; the clamp-to-zero op must run precisely. An
	// already-expired slice imposes no horizon (it stays 0).
	if c.slice > 0 {
		bySlice := c.slice
		if cost != 1 {
			bySlice = c.slice / uint64(cost)
		}
		if bySlice < k {
			k = bySlice
		}
	}
	return int(k)
}

// BatchOp is the streaming form of ExecBatch for executors that
// discover ops one at a time (the JVM's bytecode engine): it retires a
// single no-memory micro-op into the open batch (BatchRun) while the op
// provably cannot overflow any armed counter and stays on the batch's
// instruction page. The cycle clock, instruction count, PC and slice
// budget advance eagerly, so callers may consult Cycles()/Expired()
// between ops; only the bank ticks are deferred, flushed at the next
// precise op, bulk run, AdvanceIdle or FlushBatch. An op at an event
// horizon is routed through the precise Exec path.
func (c *Core) BatchOp(pc addr.Address, cost uint32) {
	if !c.accumulate(pc, pc, 1, uint64(cost)) && !c.BatchRun(pc, pc, 1, uint64(cost)) {
		c.Exec(Op{PC: pc, Cost: cost})
	}
}

// BatchMemOp is the streaming form of ExecMemBatch for executors that
// discover memory ops one at a time (the JVM's bytecode engine): it
// retires a single micro-op touching mem (0: none) into the open batch
// when the access is provably a plain L1+DTLB hit
// (cache.Hierarchy.DataFree — same line and page as the previous data
// access, no flush since) and the op clears the usual event horizons.
// The cache probes such an op stands for are deferred as recency
// arithmetic applied at flush time; everything observable — cycles,
// instruction count, PC, slice — advances eagerly, exactly as BatchOp.
// Ops whose memory outcome cannot be proven take the precise Exec
// path, which performs the probes and records the miss sequence
// exactly as before (and re-establishes the residency tracking for
// the ops that follow).
func (c *Core) BatchMemOp(pc addr.Address, cost uint32, mem addr.Address) {
	if mem != 0 && (c.Mem == nil || !c.Mem.DataFree(mem)) ||
		!c.accumulate(pc, pc, 1, uint64(cost)) && !c.BatchRun(pc, pc, 1, uint64(cost)) {
		c.Exec(Op{PC: pc, Cost: cost, Mem: mem})
		return
	}
	if mem != 0 {
		c.bat.dtouch++
		c.bat.daddr = mem
	}
}

// openBatch closes any open batch and opens a fresh one at pc,
// capturing the event horizon from the counter bank. It refuses
// (returning false, with no batch open) when nothing can be batched at
// pc: batching is off, a latched NMI must drain first, or the fetch at
// pc needs an ITLB probe.
func (c *Core) openBatch(pc addr.Address) bool {
	c.FlushBatch()
	if c.noBatch || (!c.inNMI && len(c.pending) > 0) {
		return false
	}
	lo, hi := addr.Address(0), ^addr.Address(0)
	if c.Mem != nil {
		if !c.Mem.InstrFree(pc) {
			return false
		}
		if c.Mem.PageConstrained() {
			lo = pc &^ 0xFFF
			hi = lo | 0xFFF
		}
	}
	b := &c.bat
	b.lo, b.hi = lo, hi
	b.ops0 = c.Bank.NextOverflowIn(hpc.InstrRetired)
	b.cost0 = c.Bank.NextOverflowIn(hpc.GlobalPowerEvents)
	b.opsLeft, b.costLeft = b.ops0, b.cost0
	return true
}

// FlushBatch closes the open accumulation run, applying its deferred
// counter ticks in one bulk update. The event horizon captured at open
// time guarantees the bulk Tick cannot overflow, so counter state after
// the flush is identical to per-op ticking. The kernel flushes at every
// scheduler boundary; the precise step, the bulk walker and AdvanceIdle
// flush implicitly.
func (c *Core) FlushBatch() {
	if c.bat.lo <= c.bat.hi {
		c.closeBatch()
	}
}

// closeBatch is FlushBatch's work on an open batch.
func (c *Core) closeBatch() {
	b := &c.bat
	b.lo, b.hi = 1, 0
	if b.dtouch > 0 {
		// Replay the deferred guaranteed-hit probes as bulk recency
		// updates before anything else can probe the data caches.
		c.Mem.DataTouch(b.daddr, b.dtouch)
		b.dtouch = 0
	}
	if n := b.ops0 - b.opsLeft; n > 0 {
		c.Bank.Tick(hpc.InstrRetired, n)
		c.Bank.Tick(hpc.GlobalPowerEvents, b.cost0-b.costLeft)
	}
}

// AdvanceIdle moves the clock forward without executing instructions
// (a halted core). GLOBAL_POWER_EVENTS counts non-halted cycles only,
// so no counters tick.
func (c *Core) AdvanceIdle(cycles uint64) {
	c.FlushBatch()
	c.cycles += cycles
}

// onOverflow is the Bank's overflow callback: it latches an NMI for the
// interrupted instruction. Delivery happens at the end of the current
// Exec (or at the end of the outermost Exec, if the overflow occurred
// inside a handler).
func (c *Core) onOverflow(ctr *hpc.Counter) {
	if len(c.pending) >= maxLatched {
		c.lost++
		return
	}
	snap := Snapshot{PC: c.pc, Ctx: c.ctx, Cycles: c.cycles, CPU: c.id}
	c.pending = append(c.pending, pendingNMI{snap, ctr.Event})
}

func (c *Core) deliver(snap Snapshot, ev hpc.Event) {
	if c.handler == nil {
		return
	}
	c.inNMI = true
	prev := c.ctx
	c.handler(c, snap, ev)
	c.ctx = prev
	c.inNMI = false
}

// drainPending delivers latched NMIs, including ones latched during the
// deliveries themselves (a handler that overflows the counter again),
// up to a fixed per-Exec budget. The budget is what prevents a sampling
// period shorter than the handler cost from livelocking the core: the
// storm is throttled to a bounded number of handler runs per executed
// instruction, and the interrupted program keeps making progress.
func (c *Core) drainPending() {
	if c.inNMI {
		return
	}
	for budget := 2 * maxLatched; len(c.pending) > 0 && budget > 0; budget-- {
		p := c.pending[0]
		c.pending = c.pending[1:]
		c.deliver(p.snap, p.ev)
	}
}

// LostNMIs returns how many overflows were dropped because the NMI
// latch was full.
func (c *Core) LostNMIs() uint64 { return c.lost }

// StartSlice grants the current executor a cycle budget; Expired
// reports when it is exhausted. The kernel scheduler uses this to bound
// how long a process runs before the next scheduling decision.
func (c *Core) StartSlice(cycles uint64) { c.slice = cycles }

// SliceLeft returns the remaining budget.
func (c *Core) SliceLeft() uint64 { return c.slice }

// Expired reports whether the current slice budget has run out.
func (c *Core) Expired() bool { return c.slice == 0 }

// ExecSymbol walks a symbol's code: n micro-ops of `cost` cycles at
// PCs pc, pc+4, ... through [start, end), wrapping back to start at
// end, each touching memory at mem, mem+memStride, ... (mem 0: no
// memory operand). It retires one ExecMemBatch per segment up to the
// symbol's end and returns the PC after the run, for callers that keep
// walking the same symbol.
func (c *Core) ExecSymbol(pc, start, end addr.Address, n int, cost uint32, mem addr.Address, memStride uint32) addr.Address {
	for n > 0 {
		seg := min(int((end-pc+3)/4), n) // ops before the walk wraps
		c.ExecMemBatch(pc, seg, 4, cost, mem, memStride)
		if mem != 0 {
			mem += addr.Address(uint64(seg) * uint64(memStride))
		}
		n -= seg
		pc += 4 * addr.Address(seg)
		if pc >= end {
			pc = start
		}
	}
	return pc
}
