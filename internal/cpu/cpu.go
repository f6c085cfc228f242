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
	PC    addr.Address
	Cost  uint32
	Mem   addr.Address
	Store bool
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
	bat     batchAcc // open micro-op accumulator (see BatchOp)

	evBuf  []cache.DataEvent // reusable DataRun/DataBatch scratch
	memBuf []addr.Address    // reusable nonzero-operand gather for ExecScatter
	memIdx []int32           // memBuf position -> op index within the scatter run
}

// batchAcc is the streaming half of the batched execution engine: a run
// of straight-line, no-memory micro-ops whose counter ticks are
// provably overflow-free and therefore deferred to one bulk Tick at
// flush time. Cycle clock, instruction count, PC and slice budget are
// updated eagerly per op, so every externally observable scalar
// (Cycles, Instructions, PC, Expired) stays exact while the batch is
// open; only the counter bank lags, bounded by the event horizon that
// guarantees no counter can cross its period before the flush.
type batchAcc struct {
	active   bool
	pageOK   bool   // run must stay on `page` (an ITLB is modelled)
	page     uint64 // instruction page all batched ops fetch from
	count    uint64 // deferred INSTR_RETIRED ticks
	cost     uint64 // deferred GLOBAL_POWER_EVENTS ticks
	opsLeft  uint64 // remaining op headroom before any armed counter could overflow
	costLeft uint64 // remaining cycle headroom likewise

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
	bank.OnOverflow = c.onOverflow
	return c
}

// NewWithID is New for a core of an SMP machine: id is the CPU number
// samples taken on this core carry.
func NewWithID(id int, bank *hpc.Bank, mem *cache.Hierarchy) *Core {
	c := New(bank, mem)
	c.id = id
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

// Exec runs one micro-op. It advances time, ticks counters, and may
// deliver NMIs before returning.
func (c *Core) Exec(op Op) {
	if c.bat.active {
		c.FlushBatch()
	}
	c.pc = op.PC
	c.instrs++
	cost := uint64(op.Cost)
	if c.Mem != nil {
		if extra, imiss := c.Mem.AccessInstr(op.PC); imiss {
			cost += uint64(extra)
			c.Bank.Tick(hpc.ITLBMiss, 1)
		}
		if op.Mem != 0 {
			if extra, dmiss := c.Mem.AccessData(op.Mem); dmiss {
				cost += uint64(extra)
				c.Bank.Tick(hpc.DTLBMiss, 1)
			}
			extra, l2miss, coh := c.Mem.Access(op.Mem)
			cost += uint64(extra)
			if l2miss {
				c.Bank.Tick(hpc.BSQCacheReference, 1)
			}
			if coh {
				c.Bank.Tick(hpc.CoherencyTransfers, 1)
			}
			if op.Store {
				c.Mem.MarkWrite(op.Mem)
			}
		}
	}
	c.cycles += cost
	if c.slice >= cost {
		c.slice -= cost
	} else {
		c.slice = 0
	}
	c.Bank.Tick(hpc.InstrRetired, 1)
	c.Bank.Tick(hpc.GlobalPowerEvents, cost)
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
// cycles with no memory operand. It computes the distance (in ops) to
// the nearest pending event — counter overflow across the armed bank,
// scheduling-slice expiry, or the cache model's next instruction-side
// interaction (an ITLB probe at a page crossing) — and retires
// everything short of that horizon with O(1) bookkeeping: one bulk
// cycle/instruction advance and one bulk counter tick. Ops at or past a
// horizon fall back to the precise per-op path, so NMI program
// counters, latching, skid and miss sequences are bit-for-bit identical
// to per-op execution.
func (c *Core) ExecBatch(start addr.Address, n int, stride uint32, cost uint32) {
	pc := start
	if c.noBatch || cost == 0 {
		for i := 0; i < n; i++ {
			c.Exec(Op{PC: pc, Cost: cost})
			pc += addr.Address(stride)
		}
		return
	}
	if c.bat.active {
		c.FlushBatch()
	}
	for n > 0 {
		k := c.bulkLen(pc, n, stride, cost)
		if k == 0 {
			// At an event horizon: one precise op (which may probe the
			// ITLB, overflow a counter, clamp the slice, deliver NMIs).
			c.Exec(Op{PC: pc, Cost: cost})
			pc += addr.Address(stride)
			n--
			continue
		}
		// O(1) retirement of k ops: no counter can overflow, the run
		// stays on the current instruction page, and the slice cannot
		// cross zero — so bulk state updates are exactly the sum of the
		// per-op updates.
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
		n -= k
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

// ExecMemBatch is the event-horizon fast path for a uniform run of
// memory micro-ops: n ops at PCs start, start+stride, ... each costing
// `cost` cycles and touching memory at mem, mem+memStride, ... It is
// bit-for-bit identical to the per-op loop of Exec calls — same
// cycles, counter state, NMI program counters, cache state, and miss
// sequence — but replays the data-access run through the cache model
// once up front (cache.Hierarchy.DataRun, one probe per line segment),
// then retires the uniform guaranteed-hit stretches between recorded
// events with O(1) bookkeeping per event horizon. Ops that carry a
// memory event, or that sit at a horizon (counter overflow, page
// crossing, slice expiry, pending NMI), retire through the precise
// path with their pre-resolved memory outcome, so samples land on the
// exact op.
//
// The upfront replay is sound because nothing else touches the data
// caches between the ops of the run: NMI handlers raised mid-run
// execute instruction-only kernel work (fetches touch only the ITLB).
// Handlers must not issue data-memory ops — the same contract
// cache.Hierarchy.DataRun documents.
func (c *Core) ExecMemBatch(start addr.Address, n int, stride uint32, cost uint32, mem addr.Address, memStride uint32) {
	if mem == 0 {
		c.ExecBatch(start, n, stride, cost)
		return
	}
	if c.noBatch || c.Mem == nil || cost == 0 {
		pc, m := start, mem
		for i := 0; i < n; i++ {
			c.Exec(Op{PC: pc, Cost: cost, Mem: m})
			pc += addr.Address(stride)
			m += addr.Address(memStride)
		}
		return
	}
	if c.bat.active {
		c.FlushBatch()
	}
	c.evBuf = c.Mem.DataRun(mem, memStride, n, c.evBuf[:0])
	events := c.evBuf
	hit := c.Mem.HitCost()
	eff := cost + hit // effective per-op cost of a guaranteed hit
	pc := start
	for i, ei := 0, 0; i < n; {
		next := n
		if ei < len(events) {
			next = events[ei].Index
		}
		if i == next {
			// The memory system charged this op beyond a plain hit (or
			// raised an event): precise retirement at the exact PC.
			ev := events[ei]
			ei++
			c.execResolved(pc, cost, ev.Extra, ev.DTLBMiss, ev.L2Miss, ev.Coh)
			i++
			pc += addr.Address(stride)
			continue
		}
		k := c.bulkLen(pc, next-i, stride, eff)
		if k == 0 {
			// At an event horizon: one precise op (guaranteed hit).
			c.execResolved(pc, cost, hit, false, false, false)
			i++
			pc += addr.Address(stride)
			continue
		}
		total := uint64(k) * uint64(eff)
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

// execResolved retires one micro-op whose data-memory outcome was
// pre-resolved by DataRun: extra memory cycles and which events to
// tick. It mirrors Exec exactly — same tick order (ITLB, DTLB, BSQ),
// same cycle-snapshot timing for NMI latching — with the data probes
// replaced by their recorded outcome (the replay already applied their
// state changes). The instruction side stays live: handlers run at
// kernel PCs and move the ITLB, so fetch accounting cannot be
// precomputed.
func (c *Core) execResolved(pc addr.Address, cost uint32, extra uint32, dtlbMiss, l2miss, coh bool) {
	if c.bat.active {
		c.FlushBatch()
	}
	c.pc = pc
	c.instrs++
	total := uint64(cost)
	if c.Mem != nil {
		if iextra, imiss := c.Mem.AccessInstr(pc); imiss {
			total += uint64(iextra)
			c.Bank.Tick(hpc.ITLBMiss, 1)
		}
	}
	if dtlbMiss {
		c.Bank.Tick(hpc.DTLBMiss, 1)
	}
	total += uint64(extra)
	if l2miss {
		c.Bank.Tick(hpc.BSQCacheReference, 1)
	}
	if coh {
		c.Bank.Tick(hpc.CoherencyTransfers, 1)
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

// BatchOp is the streaming form of ExecBatch for executors that
// discover ops one at a time (the JVM's bytecode engine): it retires a
// single no-memory micro-op, accumulating its counter ticks into an
// open batch while the op provably cannot overflow any armed counter
// and stays on the current instruction page. The cycle clock,
// instruction count, PC and slice budget advance eagerly, so callers
// may consult Cycles()/Expired() between ops; only the bank ticks are
// deferred, flushed at the next Exec/ExecBatch/AdvanceIdle/FlushBatch.
// Ops at an event horizon are routed through the precise Exec path.
func (c *Core) BatchOp(pc addr.Address, cost uint32) {
	if c.noBatch {
		c.Exec(Op{PC: pc, Cost: cost})
		return
	}
	b := &c.bat
	cost64 := uint64(cost)
	if b.active {
		if (b.pageOK && uint64(pc)>>12 != b.page) || b.opsLeft == 0 || b.costLeft < cost64 {
			c.FlushBatch()
			c.Exec(Op{PC: pc, Cost: cost})
			return
		}
	} else if !c.openBatch(pc, cost64) {
		c.Exec(Op{PC: pc, Cost: cost})
		return
	}
	b.count++
	b.cost += cost64
	b.opsLeft--
	b.costLeft -= cost64
	c.pc = pc
	c.instrs++
	c.cycles += cost64
	if c.slice >= cost64 {
		c.slice -= cost64
	} else {
		c.slice = 0
	}
}

// BatchMemOp is the streaming form of ExecMemBatch for executors that
// discover memory ops one at a time (the JVM's bytecode engine): it
// retires a single micro-op touching mem, accumulating it into the
// open batch when the access is provably a plain L1+DTLB hit
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
	if mem == 0 {
		c.BatchOp(pc, cost)
		return
	}
	if c.noBatch || c.Mem == nil || !c.Mem.DataFree(mem) {
		c.Exec(Op{PC: pc, Cost: cost, Mem: mem})
		return
	}
	eff := uint64(cost) + uint64(c.Mem.HitCost())
	b := &c.bat
	if b.active {
		if (b.pageOK && uint64(pc)>>12 != b.page) || b.opsLeft == 0 || b.costLeft < eff {
			c.FlushBatch()
			c.Exec(Op{PC: pc, Cost: cost, Mem: mem})
			return
		}
	} else if !c.openBatch(pc, eff) {
		c.Exec(Op{PC: pc, Cost: cost, Mem: mem})
		return
	}
	b.count++
	b.cost += eff
	b.opsLeft--
	b.costLeft -= eff
	b.dtouch++
	b.daddr = mem
	c.pc = pc
	c.instrs++
	c.cycles += eff
	if c.slice >= eff {
		c.slice -= eff
	} else {
		c.slice = 0
	}
}

// BatchStoreOp is BatchMemOp for a micro-op that *writes* mem: the
// retirement is identical, but the store is recorded in the shared
// coherency directory so another core's next miss on the line pays the
// cross-core transfer. A guaranteed-hit store can still accumulate into
// the open batch — the line is resident in our L1, so ownership changes
// hands without an observable event on this core — but the directory
// mark must land eagerly, before any other core can access the line.
// On a single-core hierarchy (nil directory) this is exactly
// BatchMemOp.
func (c *Core) BatchStoreOp(pc addr.Address, cost uint32, mem addr.Address) {
	if c.Mem == nil || mem == 0 {
		c.BatchOp(pc, cost)
		return
	}
	if c.noBatch || !c.Mem.DataFree(mem) {
		c.Exec(Op{PC: pc, Cost: cost, Mem: mem, Store: true})
		return
	}
	c.Mem.MarkWrite(mem)
	c.BatchMemOp(pc, cost, mem)
}

// openBatch starts an accumulation run at pc, capturing the event
// horizon from the counter bank. It refuses (returning false) when the
// op cannot be proven event-free: a pending NMI must drain, the fetch
// needs an ITLB probe, or an armed counter is within one op of
// overflow.
func (c *Core) openBatch(pc addr.Address, cost64 uint64) bool {
	if !c.inNMI && len(c.pending) > 0 {
		return false
	}
	b := &c.bat
	b.pageOK = false
	if c.Mem != nil {
		if !c.Mem.InstrFree(pc) {
			return false
		}
		if c.Mem.PageConstrained() {
			b.pageOK = true
			b.page = uint64(pc) >> 12
		}
	}
	b.opsLeft = c.Bank.NextOverflowIn(hpc.InstrRetired)
	b.costLeft = c.Bank.NextOverflowIn(hpc.GlobalPowerEvents)
	if b.opsLeft == 0 || b.costLeft < cost64 {
		return false
	}
	b.active = true
	b.count = 0
	b.cost = 0
	b.dtouch = 0
	return true
}

// FlushBatch closes the open accumulation run, applying its deferred
// counter ticks in one bulk update. The event horizon captured at open
// time guarantees the bulk Tick cannot overflow, so counter state after
// the flush is identical to per-op ticking. The kernel flushes at every
// scheduler boundary; Exec, ExecBatch and AdvanceIdle flush implicitly.
func (c *Core) FlushBatch() {
	b := &c.bat
	if !b.active {
		return
	}
	b.active = false
	if b.dtouch > 0 {
		// Replay the deferred guaranteed-hit probes as bulk recency
		// updates before anything else can probe the data caches.
		c.Mem.DataTouch(b.daddr, b.dtouch)
		b.dtouch = 0
	}
	if b.count > 0 {
		c.Bank.Tick(hpc.InstrRetired, b.count)
		c.Bank.Tick(hpc.GlobalPowerEvents, b.cost)
	}
	b.count = 0
	b.cost = 0
}

// AdvanceIdle moves the clock forward without executing instructions
// (a halted core). GLOBAL_POWER_EVENTS counts non-halted cycles only,
// so no counters tick.
func (c *Core) AdvanceIdle(cycles uint64) {
	if c.bat.active {
		c.FlushBatch()
	}
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
