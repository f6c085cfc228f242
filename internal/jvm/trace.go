// Trace recording and fused superinstruction replay: the VM detects hot
// straight-line (and single-backedge loop) bytecode sequences at method
// entries and loop-backedge targets, compiles each into a compact trace
// descriptor, and replays the descriptor instead of one dispatch per
// bytecode. At install, each maximal run of plain ops becomes a segment
// with its Const operands folded into the ops that consume them; replay
// retires a whole segment through one cpu.Core.BatchRun call into the
// core's streaming batch — the same event-horizon accumulator stepInstr
// streams into — and runs its functional effect on a local operand
// stack. A loop trace keeps replaying iterations inside one call for as
// long as the Step loop would have re-entered it. Replay deoptimizes to
// the ordinary stepInstr interpreter at any guard failure — branch
// divergence, a runtime exception, an expired slice, or a stale
// descriptor after recompilation — leaving the VM in exactly the state
// per-op execution would have at that bytecode, so the per-op path can
// always resume mid-trace.
//
// Equivalence contract: on a single-core machine a fused replay is
// bit-for-bit identical to the per-op interpretation of the same
// bytecodes. Every op retires through the streaming batch, as stepInstr
// retires it: a segment in one BatchRun when the batch can take it
// whole, everything else (the ops of a segment it refuses, branches,
// memory ops) one at a time through BatchOp/BatchMemOp, which accumulate
// only provably event-free ops (memory operands proven guaranteed hits
// via Hierarchy.DataFree) and retire the rest through the precise step.
// The scheduling slice is read from the core (Expired, SliceLeft), whose
// clock the batch advances eagerly. With batching disabled (the per-op
// oracle) replay does not run at all, so ablation comparisons exercise
// identical simulated machines. The exception is a multi-core machine:
// stepInstr retires stores through BatchStoreOp, which marks the line in
// the coherency directory, and replay streams them through BatchMemOp,
// which does not, so another core's miss on such a line can pay no
// transfer under replay where it pays one stepped (ROADMAP item 1).
package jvm

import (
	"slices"

	"viprof/internal/addr"
	"viprof/internal/cpu"
	"viprof/internal/jvm/bytecode"
	"viprof/internal/jvm/jit"
)

const (
	// traceHotThreshold is how many times an anchor (method entry or
	// backedge target) must be reached before a recording starts.
	traceHotThreshold = 8
	// traceMaxOps caps recorded trace length; longer straight-line runs
	// are split at the cap. Sized so a realistic interpreter loop body
	// (typically well under a hundred bytecodes) fuses whole — a
	// truncated loop trace leaves its tail stepping per-op every
	// iteration.
	traceMaxOps = 192
	// traceMinOps is the minimum length worth fusing: below it the
	// replay's entry guards and per-pass setup cost more than fused
	// retirement saves.
	traceMinOps = 6
)

// traceOp is one recorded bytecode of a trace, predecoded so replay
// touches neither the method's code array nor the body's offset table:
// the opcode, its immediate, its cycle cost at the trace's JIT level,
// its machine-PC offset from the trace's first op (stable for the
// descriptor's body level — GC moves the base, never the layout), and
// — for conditional branches — the recorded direction the trace
// follows.
type traceOp struct {
	bci   int32
	a     int32 // the instruction's immediate operand
	pcOff uint32
	cost  uint32
	op    bytecode.Opcode
	flags uint8 // opfBranch|opfMem|opfFault, plus opfSeg from install
	taken bool  // recorded outcome for JmpZ/JmpNZ (always true for Jmp)
}

// traceOp.flags bits. An op with neither opfBranch nor opfMem is
// "plain": it carries no data operand and cannot diverge, so it belongs
// to a segment and the replayer never visits it on its own.
const (
	opfBranch uint8 = 1 << iota // Jmp/JmpZ/JmpNZ: divergence checks apply
	opfMem                      // may carry a data operand (mem != 0)
	opfFault                    // plain, but may raise: Div/Mod by zero, ArrayLen of null
	opfSeg                      // first op of a segment (set at install)
)

// opFlags classifies an opcode for replay.
func opFlags(op bytecode.Opcode) uint8 {
	switch op {
	case bytecode.Jmp, bytecode.JmpZ, bytecode.JmpNZ:
		return opfBranch
	case bytecode.ALoad, bytecode.AStore,
		bytecode.GetField, bytecode.PutField,
		bytecode.GetRef, bytecode.PutRef,
		bytecode.GetStatic, bytecode.PutStatic:
		return opfMem
	case bytecode.Div, bytecode.Mod, bytecode.ArrayLen:
		return opfFault
	}
	return 0
}

// traceDesc is a fused superinstruction descriptor: a hot bytecode
// sequence with strictly increasing bytecode indexes, closed either by
// a fall-through exit (straight-line trace) or by a backedge to its own
// anchor (loop trace). Machine PCs are never stored — the replayer
// computes body.PC(bci) per run, so descriptors survive GC code moves;
// the core's streaming batch is anchored per instruction page, so a
// footprint spanning a page boundary fuses each page's segments
// separately with the crossing op retired precisely. The stack shape
// (minDepth entry values consumed below the entry level, maxGrow slots
// of growth) is precomputed for the entry guard and the local stack.
type traceDesc struct {
	level    jit.Level
	startBC  int32 // anchor: first op's bytecode index
	loop     bool  // final op is a branch back to startBC
	ops      []traceOp
	segs     []traceSeg // the plain-op segments, in trace order
	minDepth int        // operand-stack values required on entry
	maxGrow  int        // max growth above the entry stack level
	// Divergence hygiene: replays counts completed replays, diverges
	// the ones that left through a branch going the unrecorded way. A
	// descriptor whose recorded path chronically diverges (a recording
	// that caught the rare arm of a data-dependent branch) is retired
	// so the anchor re-heats and re-records the now-common path.
	replays  uint32
	diverges uint32
}

// traceSeg is a maximal run of plain ops, replayed as one unit: one
// slice check and one BatchRun for the whole run, then its functional
// effect through runSeg. Only its first op may raise (guard), and the
// replayer checks that op's operand on the live stack before the
// segment starts; every later op is proven unable to fault.
type traceSeg struct {
	n         uint32 // ops covered, starting at the op flagged opfSeg
	cost      uint32 // their total cycle cost
	headCost  uint32 // cost without the last op: the slice must outlast it
	lastPcOff uint32 // the last op's machine-PC offset
	guard     bool   // the first op is opfFault and unfolded
	code      []segInstr
}

// segInstr is one instruction of a segment's functional program: a
// plain bytecode, or a binary/compare op whose right operand is the
// immediate k of the Const folded into it (Ertl & Gregg's
// superinstructions, chosen at install from the recorded ops). k is
// also the Const value and the Load/Store local index.
type segInstr struct {
	op  bytecode.Opcode
	imm bool
	k   int32
}

// width is how many recorded ops the instruction stands for.
func (in *segInstr) width() int {
	if in.imm {
		return 2
	}
	return 1
}

// methodTraces is the per-method trace cache: one descriptor slot and
// one anchor-heat counter per bytecode index.
type methodTraces struct {
	at   []*traceDesc
	heat []uint8
}

// traceRecorder captures one in-progress recording. Recording is purely
// observational: recordStep peeks at the instruction about to execute,
// appends it (or finalizes/aborts), then lets stepInstr run it, so the
// recording pass is bit-for-bit the ordinary interpreter. The VM keeps
// one recorder and reuses its ops buffer; installation copies the ops
// out at their exact size.
type traceRecorder struct {
	mi      int // method index
	thread  int // vm.cur at start; any switch aborts
	depth   int // frame depth at start; any call/return aborts
	level   jit.Level
	startBC int32
	expect  int32 // bytecode index the next recorded op must have
	ops     []traceOp
	rd      int // stack depth relative to entry
	minD    int
	maxG    int
}

// TraceStats counts trace-cache activity. They are deliberately kept
// out of Stats: fused replay changes how bytecodes retire, never which
// bytecodes retire, so Stats stays bit-for-bit identical across the
// batched, per-op, and trace-disabled configurations while TraceStats
// legitimately differs.
type TraceStats struct {
	Installed int // descriptors installed
	Aborted   int // recordings abandoned before installation
	// Replays counts the fused passes that retired at least one op: one
	// per loop iteration and one per straight-line pass, however many of
	// them a single replayTrace call ran.
	Replays       uint64
	OpsReplayed   uint64 // bytecodes retired by fused replay
	Deopts        uint64 // passes that left the trace before its recorded end
	Invalidations int    // per-method cache flushes on recompilation
	Dropped       int    // descriptors retired for chronic branch divergence
}

// TraceStats returns trace-cache activity counters.
func (vm *VM) TraceStats() TraceStats { return vm.traceStats }

// opNeeds returns how many operand-stack values the op reads below the
// current top (the recorder's entry-depth requirement).
func opNeeds(op bytecode.Opcode) int {
	switch op {
	case bytecode.Store, bytecode.Pop, bytecode.Dup, bytecode.Neg,
		bytecode.JmpZ, bytecode.JmpNZ, bytecode.PutStatic,
		bytecode.ArrayLen, bytecode.GetField, bytecode.GetRef:
		return 1
	case bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.Div, bytecode.Mod,
		bytecode.And, bytecode.Or, bytecode.Xor, bytecode.Shl, bytecode.Shr,
		bytecode.CmpLT, bytecode.CmpLE, bytecode.CmpEQ, bytecode.CmpNE,
		bytecode.CmpGT, bytecode.CmpGE,
		bytecode.ALoad, bytecode.PutField, bytecode.PutRef:
		return 2
	case bytecode.AStore:
		return 3
	}
	return 0
}

// traceable reports whether an opcode may appear inside a trace. Calls,
// returns, spawns, allocations, and intrinsics end recording: they
// change frames, run VM services, or allocate (and hence may collect),
// none of which a fused stretch may contain.
func traceable(op bytecode.Opcode) bool {
	switch op {
	case bytecode.Call, bytecode.Spawn, bytecode.Ret, bytecode.RetVoid,
		bytecode.New, bytecode.NewArray, bytecode.Intrinsic:
		return false
	}
	return true
}

// noteAnchor records one arrival at a trace anchor (method entry or
// backedge target) and starts a recording once the anchor is hot and
// the recorder is free.
func (vm *VM) noteAnchor(f *frame, bci int) {
	if vm.cfg.DisableTrace {
		return
	}
	mi := f.body.Method.Index
	mt := vm.traceAt[mi]
	if mt == nil {
		n := len(f.body.Method.Code)
		mt = &methodTraces{at: make([]*traceDesc, n), heat: make([]uint8, n)}
		vm.traceAt[mi] = mt
	}
	if bci < 0 || bci >= len(mt.at) || mt.at[bci] != nil {
		return
	}
	if mt.heat[bci] < 255 {
		mt.heat[bci]++
	}
	if mt.heat[bci] < traceHotThreshold || vm.rec != nil {
		return
	}
	r := &vm.recorder
	*r = traceRecorder{
		mi:      mi,
		thread:  vm.cur,
		depth:   len(vm.threads[vm.cur].frames),
		level:   f.body.Level,
		startBC: int32(bci),
		expect:  int32(bci),
		ops:     r.ops[:0],
	}
	vm.rec = r
}

// invalidateTraces drops every descriptor of a method. Called on
// recompilation: descriptor costs and the OSR-replaced bodies belong to
// the old JIT level. (The replayer's level guard is the second layer of
// this defence, catching frames that still run a stale body.)
func (vm *VM) invalidateTraces(mi int) {
	if vm.traceAt == nil || vm.traceAt[mi] == nil {
		return
	}
	vm.traceAt[mi] = nil
	vm.traceStats.Invalidations++
	if r := vm.rec; r != nil && r.mi == mi {
		vm.rec = nil
		vm.traceStats.Aborted++
	}
}

// stepTraced is the interpreter's dispatch entry: continue an active
// recording, replay an installed descriptor, or fall through to the
// ordinary stepInstr (bumping the entry anchor on the way).
func (vm *VM) stepTraced() error {
	if vm.cfg.DisableTrace {
		return vm.stepInstr()
	}
	th := vm.threads[vm.cur]
	f := &th.frames[len(th.frames)-1]
	mi := f.body.Method.Index
	if r := vm.rec; r != nil {
		if r.mi == mi && r.thread == vm.cur && r.depth == len(th.frames) &&
			r.level == f.body.Level && int(r.expect) == f.pc {
			return vm.recordStep(f)
		}
		vm.rec = nil
		vm.traceStats.Aborted++
	}
	if mt := vm.traceAt[mi]; mt != nil && f.pc >= 0 && f.pc < len(mt.at) {
		if d := mt.at[f.pc]; d != nil {
			if d.level == f.body.Level {
				done, err := vm.replayTrace(f, d)
				if done || err != nil {
					return err
				}
			} else {
				mt.at[f.pc] = nil
			}
		}
	}
	if f.pc == 0 {
		vm.noteAnchor(f, 0)
		if r := vm.rec; r != nil && r.mi == mi && r.thread == vm.cur &&
			r.depth == len(th.frames) && len(r.ops) == 0 && r.startBC == 0 {
			return vm.recordStep(f)
		}
	}
	return vm.stepInstr()
}

// recordStep observes the instruction stepInstr is about to execute:
// append it to the recording, finalize the trace (at an ending opcode,
// the length cap, or the loop-closing backedge), or abort. It then runs
// stepInstr unchanged, so recording has no architectural effect.
func (vm *VM) recordStep(f *frame) error {
	r := vm.rec
	meth := f.body.Method
	if f.pc < 0 || f.pc >= len(meth.Code) {
		vm.rec = nil
		vm.traceStats.Aborted++
		return vm.stepInstr()
	}
	in := meth.Code[f.pc]
	if !traceable(in.Op) {
		vm.finishRecording(f, false)
		return vm.stepInstr()
	}
	bci := int32(f.pc)
	cost := jit.OpCost(in.Op, r.level)
	switch in.Op {
	case bytecode.Jmp, bytecode.JmpZ, bytecode.JmpNZ:
		taken := true
		if in.Op != bytecode.Jmp {
			if len(f.stack) == 0 {
				// stepInstr will raise the underflow; nothing to record.
				vm.rec = nil
				vm.traceStats.Aborted++
				return vm.stepInstr()
			}
			top := f.stack[len(f.stack)-1]
			taken = (top.I == 0) == (in.Op == bytecode.JmpZ)
		}
		dest := f.pc + 1
		if taken {
			dest = int(in.A)
		}
		if dest <= f.pc {
			if taken && int32(dest) == r.startBC {
				// The loop closes on its own anchor: record the backedge
				// and install a loop trace.
				r.append(in, bci, cost, taken)
				vm.finishRecording(f, true)
			} else {
				// Backward control flow to a foreign target: not a
				// single-backedge loop, give up.
				vm.rec = nil
				vm.traceStats.Aborted++
			}
			return vm.stepInstr()
		}
		r.append(in, bci, cost, taken)
		r.expect = int32(dest)
	default:
		r.append(in, bci, cost, false)
		r.expect = bci + 1
	}
	if len(r.ops) >= traceMaxOps {
		vm.finishRecording(f, false)
	}
	return vm.stepInstr()
}

// append adds one op to the recording and folds its operand-stack shape
// into the descriptor's entry requirements.
func (r *traceRecorder) append(in bytecode.Instr, bci int32, cost uint32, taken bool) {
	if need := opNeeds(in.Op) - r.rd; need > r.minD {
		r.minD = need
	}
	r.rd += bytecode.StackDelta(in)
	if r.rd > r.maxG {
		r.maxG = r.rd
	}
	r.ops = append(r.ops, traceOp{
		bci: bci, a: in.A, cost: cost,
		op: in.Op, flags: opFlags(in.Op), taken: taken,
	})
}

// finishRecording installs the recorded trace as a descriptor at its
// anchor if it is long enough to be worth fusing. The frame supplies
// the body whose layout the descriptor predecodes its PC offsets from;
// its level was guarded at every recorded step.
func (vm *VM) finishRecording(f *frame, loop bool) {
	r := vm.rec
	vm.rec = nil
	mt := vm.traceAt[r.mi]
	if len(r.ops) < traceMinOps || f.body.Level != r.level ||
		mt == nil || int(r.startBC) >= len(mt.at) {
		vm.traceStats.Aborted++
		return
	}
	ops := slices.Clone(r.ops)
	base := f.body.PC(int(r.startBC))
	for i := range ops {
		ops[i].pcOff = uint32(f.body.PC(int(ops[i].bci)) - base)
	}
	mt.at[r.startBC] = &traceDesc{
		level:    r.level,
		startBC:  r.startBC,
		loop:     loop,
		ops:      ops,
		segs:     buildSegments(ops),
		minDepth: r.minD,
		maxGrow:  r.maxG,
	}
	vm.traceStats.Installed++
}

// buildSegments groups each maximal run of plain ops into a segment,
// flags the run's first op opfSeg, and compiles the run into segInstrs.
// A Const followed by a binary or compare op folds into one immediate
// instruction — into Div or Mod only when the constant is nonzero, the
// fold that proves the division cannot trap. An op that can still raise
// (opfFault) may only lead a segment, where the replayer guards it on
// the live stack before the segment runs.
func buildSegments(ops []traceOp) []traceSeg {
	// A segment starts at op 0, after a branch or memory op, or at a
	// faulting op: that bounds their number. No segment needs more
	// instructions than it has ops, so code never reallocates under the
	// segments slicing it.
	heads := 1
	for i := range ops {
		if ops[i].flags != 0 {
			heads++
		}
	}
	segs := make([]traceSeg, 0, heads)
	code := make([]segInstr, 0, len(ops))
	for j := 0; j < len(ops); {
		if ops[j].flags&(opfBranch|opfMem) != 0 {
			j++
			continue
		}
		start, c0 := j, len(code)
		guard := ops[j].flags&opfFault != 0
		for j < len(ops) && ops[j].flags&(opfBranch|opfMem) == 0 {
			o := &ops[j]
			if o.op == bytecode.Const && j+1 < len(ops) && foldsConst(ops[j+1].op, o.a) {
				code = append(code, segInstr{op: ops[j+1].op, imm: true, k: o.a})
				j += 2
				continue
			}
			if o.flags&opfFault != 0 && j > start {
				break
			}
			code = append(code, segInstr{op: o.op, k: o.a})
			j++
		}
		var cost uint32
		for i := start; i < j; i++ {
			cost += ops[i].cost
		}
		ops[start].flags |= opfSeg
		segs = append(segs, traceSeg{
			n:         uint32(j - start),
			cost:      cost,
			headCost:  cost - ops[j-1].cost,
			lastPcOff: ops[j-1].pcOff,
			guard:     guard,
			code:      code[c0:len(code):len(code)],
		})
	}
	return segs
}

// foldsConst reports whether a Const k followed by op folds into one
// immediate instruction.
func foldsConst(op bytecode.Opcode, k int32) bool {
	switch op {
	case bytecode.Add, bytecode.Sub, bytecode.Mul,
		bytecode.And, bytecode.Or, bytecode.Xor, bytecode.Shl, bytecode.Shr,
		bytecode.CmpLT, bytecode.CmpLE, bytecode.CmpEQ, bytecode.CmpNE,
		bytecode.CmpGT, bytecode.CmpGE:
		return true
	case bytecode.Div, bytecode.Mod:
		return k != 0
	}
	return false
}

// faults reports whether the segment's guarded first op would raise on
// the operand stack st[:sp]: a zero divisor, or ArrayLen of null.
func (s *traceSeg) faults(st []Value, sp int) bool {
	if !s.guard {
		return false
	}
	if s.code[0].op == bytecode.ArrayLen {
		return st[sp-1].R == nil
	}
	return st[sp-1].I == 0
}

// runSeg applies a segment's functional effect — exactly stepInstr's
// for each op it stands for — to the operand stack st, live up to sp,
// and the frame's locals, and returns the new stack depth. The stack
// has room for the segment's growth and holds every value its ops read
// (the descriptor's entry guard), and no op in it can raise.
func runSeg(code []segInstr, st []Value, sp int, locals []Value) int {
	var a, b int64
	for i := range code {
		in := &code[i]
		switch in.op {
		case bytecode.Nop:
		case bytecode.Const:
			st[sp] = Value{I: int64(in.k)}
			sp++
		case bytecode.Load:
			st[sp] = locals[in.k]
			sp++
		case bytecode.Store:
			sp--
			locals[in.k] = st[sp]
		case bytecode.Dup:
			st[sp] = st[sp-1]
			sp++
		case bytecode.Pop:
			sp--
		case bytecode.Neg:
			st[sp-1] = Value{I: -st[sp-1].I}
		case bytecode.ArrayLen:
			o := st[sp-1].R
			n := len(o.Scalars)
			if len(o.Refs) > 0 {
				n = len(o.Refs)
			}
			st[sp-1] = Value{I: int64(n)}
		case bytecode.Add:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: a + b}
		case bytecode.Sub:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: a - b}
		case bytecode.Mul:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: a * b}
		case bytecode.Div:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: a / b}
		case bytecode.Mod:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: a % b}
		case bytecode.And:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: a & b}
		case bytecode.Or:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: a | b}
		case bytecode.Xor:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: a ^ b}
		case bytecode.Shl:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: a << (uint64(b) & 63)}
		case bytecode.Shr:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: a >> (uint64(b) & 63)}
		case bytecode.CmpLT:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: b2i(a < b)}
		case bytecode.CmpLE:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: b2i(a <= b)}
		case bytecode.CmpEQ:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: b2i(a == b)}
		case bytecode.CmpNE:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: b2i(a != b)}
		case bytecode.CmpGT:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: b2i(a > b)}
		case bytecode.CmpGE:
			sp, a, b = operands(in, st, sp)
			st[sp-1] = Value{I: b2i(a >= b)}
		}
	}
	return sp
}

// operands pops a binary or compare op's operands, the right one being
// the folded constant or the top, and returns the new depth: the
// result goes to st[sp-1].
func operands(in *segInstr, st []Value, sp int) (int, int64, int64) {
	if in.imm {
		return sp, st[sp-1].I, int64(in.k)
	}
	return sp - 1, st[sp-2].I, st[sp-1].I
}

// b2i is a compare op's result: 1 for true, 0 for false.
func b2i(c bool) int64 {
	if c {
		return 1
	}
	return 0
}

// runSegPrefix applies the first m recorded ops of a segment. A prefix
// can end between a folded Const and the op consuming it; the Const
// alone then retired, and its value is pushed.
func runSegPrefix(code []segInstr, m int, st []Value, sp int, locals []Value) int {
	i := 0
	for ; i < len(code) && code[i].width() <= m; i++ {
		m -= code[i].width()
	}
	sp = runSeg(code[:i], st, sp, locals)
	if m > 0 {
		st[sp] = Value{I: int64(code[i].k)}
		sp++
	}
	return sp
}

// commitReplay books one fused pass that retired n ops.
func (vm *VM) commitReplay(d *traceDesc, n int, deopt bool) {
	vm.sinceYield += n
	vm.stats.BytecodesRun += uint64(n)
	if n > 0 {
		vm.traceStats.Replays++
		vm.traceStats.OpsReplayed += uint64(n)
		d.replays++
	}
	if deopt {
		vm.traceStats.Deopts++
	}
}

// replayTrace executes fused passes over a descriptor. It returns
// done=true when its last pass retired at least one bytecode (f.pc then
// points at the next bytecode to execute, which may be mid-trace after
// a deoptimization) and done=false when its last pass retired none — a
// guard that failed on the first op, or an entry guard refusing with
// zero architectural or functional effect — in which case f.pc is the
// anchor and the caller falls through to stepInstr, as on any refused
// entry. A loop trace replays one iteration per pass, and starts the
// next pass in the same call only when the Step loop would have
// re-entered this descriptor with nothing in between: slice left, the
// yield quantum not reached inside the next pass, no recording, no VM
// error, the descriptor still installed at the frame's level, and the
// entry stack depth. Each pass is committed on its own, so TraceStats
// counts passes exactly as one call per pass would.
//
// The operand stack is indexed through a local sp inside capacity
// grown once per pass; f.stack is written back before every precise
// op, backEdge, and exit. Deferring a segment's functional effect past
// its precise ops (the slow path below) relies on nothing outside the
// replayer reading the top frame's operand stack or locals during a
// replay: the NMI path reaches the VM only through CallStackPCs, which
// reads the callers' frames.
func (vm *VM) replayTrace(f *frame, d *traceDesc) (bool, error) {
	// Entry guards: enough operand stack for the recorded shape, and the
	// yield quantum cannot expire inside the fused stretch (scheduling
	// checks skipped by fusion are then provably no-ops).
	if len(f.stack) < d.minDepth || vm.sinceYield+len(d.ops) > vm.cfg.YieldQuantum {
		return false, nil
	}
	// The type is spelled out for the import: the compiler inlines the
	// core's accessors (Expired, SliceLeft) into this loop, and into
	// Step's, only when this package imports cpu itself.
	var core *cpu.Core = vm.m.CPU()
	if !core.Batching() {
		// The per-op oracle: replay must not run at all.
		return false, nil
	}
	body := f.body
	meth := body.Method
	mi := meth.Index
	startPC := body.PC(int(d.startBC))
	// Every op retires through the core's streaming batch, exactly as
	// stepInstr retires it: a segment in one BatchRun when it fits the
	// open batch whole, anything else op by op through BatchOp or
	// BatchMemOp. The batch is anchored per instruction page, not per
	// trace: a descriptor whose footprint spans a page boundary (long
	// bodies, post-promotion code layouts) fuses each page's segments
	// separately, with the crossing op retired precisely so it pays
	// exactly the per-op ITLB probe. A cold entry — the instruction page
	// moved, an NMI is latched, or a counter is within one op of
	// overflow — does not forbid replay: the first op(s) retire
	// precisely and the batch reopens warm.
	ops, segs, locals := d.ops, d.segs, f.locals
	last := len(ops) - 1

pass:
	for {
		// One pass. The stack grows at most maxGrow above its entry
		// depth, so one capacity check covers every push.
		if len(f.stack)+d.maxGrow > cap(f.stack) {
			f.stack = slices.Grow(f.stack, d.maxGrow)
		}
		st, sp := f.stack[:cap(f.stack)], len(f.stack)
		executed, si := 0, 0
		exitPC, diverged := 0, false
		for executed <= last {
			j := executed
			op := &ops[j]
			if op.flags&opfSeg != 0 {
				s := &segs[si]
				si++
				if core.Expired() || s.faults(st, sp) {
					// The slice expired at this op boundary, or the op
					// would raise: stop before it, unexecuted, and let
					// stepInstr run it (and raise its error).
					exitPC = int(op.bci)
					break
				}
				pc := startPC + addr.Address(op.pcOff)
				lastPC := startPC + addr.Address(s.lastPcOff)
				// The slice must outlast every op but the last, or the Step
				// loop would have yielded inside the segment.
				if uint64(s.headCost) < core.SliceLeft() &&
					core.BatchRun(pc, lastPC, uint64(s.n), uint64(s.cost)) {
					sp = runSeg(s.code, st, sp, locals)
					executed += int(s.n)
					continue
				}
				// The segment does not fit the batch whole: retire its ops
				// one by one, then apply the prefix that retired.
				f.stack = st[:sp]
				k := 0
				for ; k < int(s.n); k++ {
					if k > 0 && core.Expired() {
						break
					}
					o := &ops[j+k]
					core.BatchOp(startPC+addr.Address(o.pcOff), o.cost)
				}
				sp = runSegPrefix(s.code, k, st, sp, locals)
				executed += k
				if k < int(s.n) {
					exitPC = int(ops[executed].bci)
					break
				}
				continue
			}

			if core.Expired() {
				exitPC = int(op.bci)
				break
			}
			// A branch or memory op. Functional phase: validate without
			// mutating, then apply — exactly stepInstr's effect. An op
			// that would raise stops the pass unexecuted.
			var mem addr.Address
			taken := op.taken
			fault := false
			switch op.op {
			case bytecode.Jmp:
			case bytecode.JmpZ, bytecode.JmpNZ:
				sp--
				taken = (st[sp].I == 0) == (op.op == bytecode.JmpZ)
			case bytecode.ALoad:
				o, i := st[sp-2].R, st[sp-1].I
				switch {
				case o == nil:
					fault = true
				case len(o.Refs) > 0:
					if fault = i < 0 || int(i) >= len(o.Refs); !fault {
						mem = o.FieldAddr(int(i))
						st[sp-2] = Value{R: o.Refs[i]}
						sp--
					}
				default:
					if fault = i < 0 || int(i) >= len(o.Scalars); !fault {
						mem = o.FieldAddr(int(i))
						st[sp-2] = Value{I: o.Scalars[i]}
						sp--
					}
				}
			case bytecode.AStore:
				o, i, v := st[sp-3].R, st[sp-2].I, st[sp-1]
				switch {
				case o == nil:
					fault = true
				case len(o.Refs) > 0:
					if fault = i < 0 || int(i) >= len(o.Refs); !fault {
						o.Refs[i] = v.R
					}
				default:
					if fault = i < 0 || int(i) >= len(o.Scalars); !fault {
						o.Scalars[i] = v.I
					}
				}
				if !fault {
					mem = o.FieldAddr(int(i))
					sp -= 3
				}
			case bytecode.GetField:
				o := st[sp-1].R
				if fault = o == nil || int(op.a) >= len(o.Scalars); !fault {
					mem = o.FieldAddr(int(op.a))
					st[sp-1] = Value{I: o.Scalars[op.a]}
				}
			case bytecode.PutField:
				o := st[sp-2].R
				if fault = o == nil || int(op.a) >= len(o.Scalars); !fault {
					o.Scalars[op.a] = st[sp-1].I
					mem = o.FieldAddr(int(op.a))
					sp -= 2
				}
			case bytecode.GetRef:
				o := st[sp-1].R
				if fault = o == nil || int(op.a) >= len(o.Refs); !fault {
					mem = o.FieldAddr(int(op.a))
					st[sp-1] = Value{R: o.Refs[op.a]}
				}
			case bytecode.PutRef:
				o := st[sp-2].R
				if fault = o == nil || int(op.a) >= len(o.Refs); !fault {
					o.Refs[op.a] = st[sp-1].R
					mem = o.FieldAddr(int(op.a))
					sp -= 2
				}
			case bytecode.GetStatic:
				mem = vm.staticsBase + addr.Address(op.a)*8
				st[sp] = vm.statics[op.a]
				sp++
			case bytecode.PutStatic:
				mem = vm.staticsBase + addr.Address(op.a)*8
				sp--
				vm.statics[op.a] = st[sp]
			default:
				// A non-traceable opcode can only appear here through a
				// bug in the recorder; run it per-op.
				fault = true
			}
			if fault {
				exitPC = int(op.bci)
				break
			}
			f.stack = st[:sp]
			pc := startPC + addr.Address(op.pcOff)

			if op.flags&opfBranch != 0 {
				if j == last && d.loop && taken {
					// Loop-closing backedge, in stepInstr's order: the
					// adaptive system's verdict first. A promotion
					// (recompile, OSR-replace f.body, invalidate this
					// descriptor) ends the call; the backedge then charges
					// at the *new* body's address with the *old* level's
					// cost.
					executed = len(ops)
					if vm.aosSys.OnBackEdge(meth, 1) {
						vm.promoteOSR(meth)
						core.BatchOp(f.body.PC(int(op.bci)), op.cost)
						vm.noteAnchor(f, int(d.startBC))
						f.pc = int(d.startBC)
						vm.commitReplay(d, executed, false)
						return true, nil
					}
					// No promotion: the backedge is a plain op at pc.
					core.BatchOp(pc, op.cost)
					vm.commitReplay(d, executed, false)
					if mt := vm.traceAt[mi]; mt != nil && mt.at[d.startBC] == d &&
						d.level == f.body.Level && vm.rec == nil && vm.err == nil &&
						!core.Expired() && len(f.stack) >= d.minDepth &&
						vm.sinceYield+len(ops) <= vm.cfg.YieldQuantum {
						continue pass // the next iteration, in this call
					}
					vm.noteAnchor(f, int(d.startBC))
					f.pc = int(d.startBC)
					return true, nil
				}
				if taken != op.taken {
					// Divergence from the recorded direction exits the
					// trace after charging this op; a backward divergence
					// reports its backedge first, exactly as stepInstr
					// does.
					exitPC, diverged = int(op.bci)+1, true
					if taken {
						exitPC = int(op.a)
					}
					if exitPC <= int(op.bci) {
						vm.backEdge(meth)
						core.BatchOp(f.body.PC(int(op.bci)), op.cost)
						vm.noteAnchor(f, exitPC)
						f.pc = exitPC
						vm.commitReplay(d, j+1, true)
						d.diverges++
						vm.dropChronicDiverge(d, mi)
						return true, nil
					}
				}
			}
			// Architectural phase: into the batch when the op is provably
			// event-free, otherwise precisely; a refusal never abandons
			// the trace. Stores stream like loads, without the directory
			// mark stepInstr's BatchStoreOp adds: on a multi-core machine
			// replay therefore differs from stepping (ROADMAP item 1).
			core.BatchMemOp(pc, op.cost, mem)
			executed = j + 1
			if diverged {
				break
			}
		}
		f.stack = st[:sp]
		if executed > last && !diverged {
			// Recorded end of a straight-line trace (a loop trace's
			// closing branch either continued above or diverged).
			exitPC = nextTracePC(d, last)
		}
		f.pc = exitPC
		vm.commitReplay(d, executed, executed <= last || diverged)
		if diverged {
			d.diverges++
			vm.dropChronicDiverge(d, mi)
		}
		return executed > 0, nil
	}
}

// traceDivergeMinReplays is how many replays a descriptor gets before
// its divergence rate is judged.
const traceDivergeMinReplays = 32

// dropChronicDiverge retires a descriptor once more than half its
// replays left through a branch going the unrecorded way: the
// recording caught a rare arm of a data-dependent branch (or the
// program changed phase). Resetting the anchor's heat lets a fresh
// recording capture the now-common path.
func (vm *VM) dropChronicDiverge(d *traceDesc, mi int) {
	if d.replays < traceDivergeMinReplays || d.diverges*2 <= d.replays {
		return
	}
	mt := vm.traceAt[mi]
	if mt == nil || int(d.startBC) >= len(mt.at) || mt.at[d.startBC] != d {
		return
	}
	mt.at[d.startBC] = nil
	mt.heat[d.startBC] = 0
	vm.traceStats.Dropped++
}

// nextTracePC is the bytecode index control reaches after executing
// op j of the trace with its recorded branch outcome.
func nextTracePC(d *traceDesc, j int) int {
	op := &d.ops[j]
	switch op.op {
	case bytecode.Jmp:
		return int(op.a)
	case bytecode.JmpZ, bytecode.JmpNZ:
		if op.taken {
			return int(op.a)
		}
	}
	return int(op.bci) + 1
}
