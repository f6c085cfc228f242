package jvm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/jvm/bytecode"
	"viprof/internal/jvm/classes"
	"viprof/internal/kernel"
)

// The trace-replay equivalence property: a random loop-heavy program
// must produce bit-for-bit identical simulated machines under (a) the
// default fused trace replay, (b) DisableTrace (per-op interpretation
// over the streaming batch engine), and (c) SetBatching(false) (the
// fully per-op oracle). Programs mix arithmetic (every binary, compare
// and stack op, folded and unfolded), array and field RMW, statics,
// data-dependent branches (random deopt points), and periodic
// allocation (GC moves JIT bodies mid-trace), so the sweep exercises
// replay, segment slow paths, divergence deopts, trace invalidation on
// promotion, and descriptor survival across code motion.

// genTraceProgram builds a worker whose loop body is a random sequence
// of stack-neutral gadgets, plus a main that calls it enough times for
// entry and backedge anchors to pass the hot threshold.
//
// Worker locals: 0=iterations 1=i 2=arr 3=obj 4=acc 5=tmp.
// Statics: 0,1 allocation rings (refs), 2=acc 3=arr probe 4=field probe
// 5=static RMW cell.
func genTraceProgram(rng *rand.Rand) *classes.Program {
	p := classes.NewProgram("traceq", 8)
	arrLen := int32(16 + rng.Intn(48))

	w := bytecode.NewAsm()
	w.Const(arrLen).Emit(bytecode.NewArray, 8, 0).Store(2)
	w.Emit(bytecode.New, 1, 4).Store(3)
	w.Const(int32(rng.Intn(100))).Store(4)
	w.Const(0).Store(1)
	w.Label("loop")

	binOps := []bytecode.Opcode{
		bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.And,
		bytecode.Or, bytecode.Xor,
	}
	nGadgets := 3 + rng.Intn(4)
	for gi := 0; gi < nGadgets; gi++ {
		lbl := fmt.Sprintf("g%d", gi)
		switch rng.Intn(6) {
		case 0: // arithmetic chain on acc
			w.Load(4).Load(1).Emit(binOps[rng.Intn(len(binOps))])
			w.Const(int32(rng.Intn(200) - 100)).Emit(binOps[rng.Intn(len(binOps))])
			w.Store(4)
		case 1: // array RMW: arr[i%len] += i
			w.Load(2).Load(1).Const(arrLen).Emit(bytecode.Mod).Emit(bytecode.ALoad)
			w.Load(1).Emit(bytecode.Add)
			w.Store(5)
			w.Load(2).Load(1).Const(arrLen).Emit(bytecode.Mod)
			w.Load(5)
			w.Emit(bytecode.AStore)
		case 2: // scalar field RMW on the loop-local object
			fi := int32(rng.Intn(4))
			w.Load(3)
			w.Load(3).Emit(bytecode.GetField, fi)
			w.Const(int32(rng.Intn(50) + 1)).Emit(bytecode.Add)
			w.Emit(bytecode.PutField, fi)
		case 3: // static RMW
			w.Emit(bytecode.GetStatic, 5)
			w.Load(1).Emit(binOps[rng.Intn(len(binOps))])
			w.Emit(bytecode.PutStatic, 5)
		case 4: // wide ALU chain: the ops and operands the gadgets above never draw
			// obj.f1 = chain(obj.f1 + acc); acc ^= obj.f1 — through a
			// Dup'ed ref.
			w.Load(3).Emit(bytecode.Dup).Emit(bytecode.GetField, 1)
			w.Load(4).Emit(bytecode.Add)
			for k := 2 + rng.Intn(5); k > 0; k-- {
				switch rng.Intn(5) {
				case 0: // a Const right operand, folded at install
					op := wideOps[rng.Intn(len(wideOps))]
					w.Const(wideConst(rng, op)).Emit(op)
				case 1: // a stack right operand: i|1 is never zero
					w.Load(1).Const(1).Emit(bytecode.Or)
					w.Emit(wideOps[rng.Intn(len(wideOps))])
				case 2: // equal operands, except into a division (x may be 0)
					w.Emit(bytecode.Dup)
					if op := wideOps[rng.Intn(len(wideOps))]; op != bytecode.Div && op != bytecode.Mod {
						w.Emit(op)
					} else {
						w.Emit(bytecode.Pop)
					}
				case 3: // ArrayLen of the scalar array or of the ref-bearing object
					w.Load(int32(2 + rng.Intn(2))).Emit(bytecode.ArrayLen).Emit(bytecode.Add)
				default:
					w.Emit(bytecode.Neg)
				}
			}
			w.Emit(bytecode.Dup).Load(4).Emit(bytecode.Xor).Store(4)
			w.Emit(bytecode.PutField, 1)
		default: // data-dependent skip: diverges from any recorded direction
			br := bytecode.JmpZ
			if rng.Intn(2) == 0 {
				br = bytecode.JmpNZ
			}
			w.Load(1).Const(int32(rng.Intn(6) + 2)).Emit(bytecode.Mod)
			w.Branch(br, lbl)
			w.Load(4).Const(int32(rng.Intn(30) + 1)).Emit(bytecode.Add).Store(4)
			w.Label(lbl)
		}
	}
	// Always allocate on a random cadence so GC runs (and moves the
	// traced body) at seed-dependent points.
	w.Load(1).Const(int32(rng.Intn(14) + 3)).Emit(bytecode.Mod)
	w.Branch(bytecode.JmpNZ, "skipalloc")
	w.Emit(bytecode.New, 1, 2)
	w.Emit(bytecode.PutStatic, int32(rng.Intn(2)))
	w.Label("skipalloc")
	// i++; loop while i < iterations
	w.Load(1).Const(1).Emit(bytecode.Add).Store(1)
	w.Load(1).Load(0).Emit(bytecode.CmpLT)
	w.Branch(bytecode.JmpNZ, "loop")
	// Publish observable results into scalar statics.
	w.Load(4).Emit(bytecode.PutStatic, 2)
	w.Load(2).Const(arrLen/2).Emit(bytecode.ALoad).Emit(bytecode.PutStatic, 3)
	w.Load(3).Emit(bytecode.GetField, 1).Emit(bytecode.PutStatic, 4)
	w.Emit(bytecode.RetVoid)
	worker := p.Add(&classes.Method{
		Class: "traceq.Worker", Name: "run", NArgs: 1, MaxLocals: 6,
		Code: w.MustFinish(),
	})

	outer := int32(10 + rng.Intn(20))
	inner := int32(120 + rng.Intn(150))
	mn := bytecode.NewAsm()
	mn.Const(0).Store(0)
	mn.Label("loop")
	mn.Const(inner).Call(int32(worker.Index))
	mn.Load(0).Const(1).Emit(bytecode.Add).Store(0)
	mn.Load(0).Const(outer).Emit(bytecode.CmpLT)
	mn.Branch(bytecode.JmpNZ, "loop")
	mn.Emit(bytecode.RetVoid)
	main := p.Add(&classes.Method{
		Class: "traceq.Main", Name: "main", MaxLocals: 1,
		Code: mn.MustFinish(),
	})
	p.SetMain(main)
	return p
}

// wideOps are the binary and compare ops of the wide ALU gadget.
var wideOps = []bytecode.Opcode{
	bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.Div, bytecode.Mod,
	bytecode.And, bytecode.Or, bytecode.Xor, bytecode.Shl, bytecode.Shr,
	bytecode.CmpLT, bytecode.CmpLE, bytecode.CmpEQ, bytecode.CmpNE,
	bytecode.CmpGT, bytecode.CmpGE,
}

// wideConst draws a Const right operand for op: shift counts of 0, in
// range, and of 64 or more (negative too); nonzero divisors of either
// sign; anything else from [-200, 200].
func wideConst(rng *rand.Rand, op bytecode.Opcode) int32 {
	switch op {
	case bytecode.Shl, bytecode.Shr:
		counts := []int32{0, 1, 7, 63, 64, 65, 127, -1, -64}
		return counts[rng.Intn(len(counts))]
	case bytecode.Div, bytecode.Mod:
		divs := []int32{-1000, -9, -2, -1, 1, 2, 3, 7, 1000}
		return divs[rng.Intn(len(divs))]
	}
	return int32(rng.Intn(401) - 200)
}

type traceNMI struct {
	Ev   hpc.Event
	Snap cpu.Snapshot
}

// traceRunResult is everything observable about one run that must be
// identical across the fused, trace-disabled, and per-op machines.
// TraceStats is deliberately excluded: it legitimately differs.
type traceRunResult struct {
	Cycles, Instrs uint64
	Counters       [2][2]uint64 // (Total, Overflows) per programmed event
	CacheStats     [4][2]uint64 // (accesses, misses) for L1, L2, DTLB, ITLB
	NMIs           []traceNMI
	VMStats        Stats
	Statics        [4]int64 // scalar statics 2..5
	Finished       bool
	ErrStr         string
}

func runTraceProgram(t *testing.T, p *classes.Program, seed int64, disableTrace, noBatch bool) (traceRunResult, TraceStats) {
	t.Helper()
	core := cpu.New(hpc.NewBank(), cache.DefaultHierarchy())
	core.Bank.Program(hpc.GlobalPowerEvents, 7_003)
	core.Bank.Program(hpc.BSQCacheReference, 1_201)
	if noBatch {
		core.SetBatching(false)
	}
	m := kernel.NewMachine(core, seed)
	var res traceRunResult
	m.Kern.SetNMIHandler(func(mm *kernel.Machine, s cpu.Snapshot, ev hpc.Event) {
		res.NMIs = append(res.NMIs, traceNMI{Ev: ev, Snap: s})
	})
	vm, _, err := Launch(m, p, Config{
		HeapBytes: 96 << 10, AOSThreshold: 120, DisableTrace: disableTrace,
	})
	if err != nil {
		t.Fatalf("seed %d: launch: %v", seed, err)
	}
	if err := m.Kern.Run(3_000_000_000); err != nil {
		t.Fatalf("seed %d: run: %v", seed, err)
	}
	res.Cycles = core.Cycles()
	res.Instrs = core.Instructions()
	for i, ev := range []hpc.Event{hpc.GlobalPowerEvents, hpc.BSQCacheReference} {
		if c, ok := core.Bank.Counter(ev); ok {
			res.Counters[i] = [2]uint64{c.Total(), c.Overflows()}
		}
	}
	for i, c := range []*cache.Cache{core.Mem.L1, core.Mem.L2, core.Mem.DTLB, core.Mem.ITLB} {
		if c != nil {
			a, ms := c.Stats()
			res.CacheStats[i] = [2]uint64{a, ms}
		}
	}
	res.VMStats = vm.Stats()
	for i := 0; i < 4; i++ {
		res.Statics[i] = vm.statics[2+i].I
	}
	res.Finished = vm.Finished()
	if vm.Err() != nil {
		res.ErrStr = vm.Err().Error()
	}
	return res, vm.TraceStats()
}

func TestTraceReplayMatchesPerOpQuick(t *testing.T) {
	var totalReplays, totalOps, totalDeopts uint64
	var totalInstalled, totalInvalidations int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := genTraceProgram(rng)
		if err := p.Verify(); err != nil {
			t.Logf("seed %d: generated invalid program: %v", seed, err)
			return false
		}
		fused, ts := runTraceProgram(t, p, seed, false, false)
		totalReplays += ts.Replays
		totalOps += ts.OpsReplayed
		totalDeopts += ts.Deopts
		totalInstalled += ts.Installed
		totalInvalidations += ts.Invalidations
		if !fused.Finished {
			t.Logf("seed %d: fused run did not finish: %s", seed, fused.ErrStr)
			return false
		}
		plain, pts := runTraceProgram(t, p, seed, true, false)
		if pts.Installed != 0 || pts.Replays != 0 {
			t.Logf("seed %d: DisableTrace still traced: %+v", seed, pts)
			return false
		}
		if !reflect.DeepEqual(fused, plain) {
			t.Logf("seed %d: fused vs DisableTrace diverged:\n fused: %+v\n plain: %+v", seed, fused, plain)
			return false
		}
		perop, _ := runTraceProgram(t, p, seed, false, true)
		if !reflect.DeepEqual(fused, perop) {
			t.Logf("seed %d: fused vs per-op oracle diverged:\n fused: %+v\n perop: %+v", seed, fused, perop)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.25}); err != nil {
		t.Error(err)
	}
	// The sweep must actually exercise the fused path, its deopt exits,
	// and invalidation on promotion — otherwise the equivalence above is
	// vacuous.
	if totalInstalled == 0 || totalReplays == 0 || totalOps == 0 {
		t.Errorf("traces not exercised: installed=%d replays=%d ops=%d",
			totalInstalled, totalReplays, totalOps)
	}
	if totalDeopts == 0 {
		t.Error("no deopts across the sweep: divergence paths untested")
	}
	if totalInvalidations == 0 {
		t.Error("no invalidations across the sweep: recompile paths untested")
	}
	t.Logf("trace sweep: installed=%d replays=%d ops=%d deopts=%d invalidations=%d",
		totalInstalled, totalReplays, totalOps, totalDeopts, totalInvalidations)
}

// A deterministic loop-heavy workload must install loop traces and
// retire the overwhelming share of its bytecodes through fused replay —
// the property the ≥2x host-speed target rests on.
func TestTraceReplayCoversHotLoop(t *testing.T) {
	m := newMachine(7)
	prog := buildLoopProgram(60, 400)
	vm, _, err := Launch(m, prog, Config{HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(3_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !vm.Finished() {
		t.Fatalf("VM failed: %v", vm.Err())
	}
	ts := vm.TraceStats()
	if ts.Installed == 0 {
		t.Fatal("no traces installed on a hot loop")
	}
	st := vm.Stats()
	if ts.OpsReplayed*2 < st.BytecodesRun {
		t.Errorf("fused replay covered %d of %d bytecodes, want majority",
			ts.OpsReplayed, st.BytecodesRun)
	}
}

// zeroDivisorProgram builds a single long worker loop whose div op
// (Div or Mod) divides by the stack value late-i: a loop trace is
// recorded and replayed for hundreds of iterations before the divisor
// reaches zero at iteration late, inside a replay.
//
// Worker locals: 0=iterations 1=i 4=acc 5=tmp.
func zeroDivisorProgram(div bytecode.Opcode, late int32) *classes.Program {
	p := classes.NewProgram("tracediv", 8)
	w := bytecode.NewAsm()
	w.Const(7).Store(4)
	w.Const(0).Store(1)
	w.Label("loop")
	w.Load(4).Const(3).Emit(bytecode.Mul).Load(1).Emit(bytecode.Add).Store(4)
	w.Load(4).Const(late).Load(1).Emit(bytecode.Sub).Emit(div).Store(5)
	w.Load(4).Load(5).Emit(bytecode.Xor).Emit(bytecode.PutStatic, 2)
	w.Load(1).Const(1).Emit(bytecode.Add).Store(1)
	w.Load(1).Load(0).Emit(bytecode.CmpLT)
	w.Branch(bytecode.JmpNZ, "loop")
	w.Load(4).Emit(bytecode.PutStatic, 3)
	w.Emit(bytecode.RetVoid)
	worker := p.Add(&classes.Method{
		Class: "tracediv.Worker", Name: "run", NArgs: 1, MaxLocals: 6,
		Code: w.MustFinish(),
	})
	mn := bytecode.NewAsm()
	mn.Const(3 * late).Call(int32(worker.Index))
	mn.Emit(bytecode.RetVoid)
	main := p.Add(&classes.Method{
		Class: "tracediv.Main", Name: "main", MaxLocals: 1,
		Code: mn.MustFinish(),
	})
	p.SetMain(main)
	return p
}

// A zero divisor met inside a replayed loop trace must raise exactly
// what per-op execution raises, at the same cycle, with the same NMIs.
// And a Const 0 never folds into the Div or Mod it feeds: the division
// stays a guarded segment head that deopts to stepInstr.
func TestTraceReplayZeroDivisor(t *testing.T) {
	for _, div := range []bytecode.Opcode{bytecode.Div, bytecode.Mod} {
		p := zeroDivisorProgram(div, 1500)
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
		fused, ts := runTraceProgram(t, p, 3, false, false)
		if !strings.Contains(fused.ErrStr, "by zero") {
			t.Fatalf("%s: fused run ended with %q, want a division by zero", div, fused.ErrStr)
		}
		if ts.Replays < 1000 {
			t.Errorf("%s: only %d replays before the fault: the trace was not exercised", div, ts.Replays)
		}
		plain, _ := runTraceProgram(t, p, 3, true, false)
		if !reflect.DeepEqual(fused, plain) {
			t.Errorf("%s: fused vs DisableTrace diverged:\n fused: %+v\n plain: %+v", div, fused, plain)
		}
		perop, _ := runTraceProgram(t, p, 3, false, true)
		if !reflect.DeepEqual(fused, perop) {
			t.Errorf("%s: fused vs per-op oracle diverged:\n fused: %+v\n perop: %+v", div, fused, perop)
		}
	}

	// Load; Const 0; Div; Store; Load; Const 3; Div; Const 0; Mod
	code := []bytecode.Instr{
		{Op: bytecode.Load, A: 4}, {Op: bytecode.Const, A: 0}, {Op: bytecode.Div},
		{Op: bytecode.Store, A: 5}, {Op: bytecode.Load, A: 4},
		{Op: bytecode.Const, A: 3}, {Op: bytecode.Div},
		{Op: bytecode.Const, A: 0}, {Op: bytecode.Mod},
	}
	ops := make([]traceOp, len(code))
	for i, in := range code {
		ops[i] = traceOp{bci: int32(i), a: in.A, cost: 1, op: in.Op, flags: opFlags(in.Op)}
	}
	segs := buildSegments(ops)
	var got []string
	for _, s := range segs {
		got = append(got, fmt.Sprintf("n=%d guard=%v code=%v", s.n, s.guard, s.code))
	}
	want := []string{
		fmt.Sprintf("n=2 guard=false code=%v", []segInstr{{op: bytecode.Load, k: 4}, {op: bytecode.Const}}),
		fmt.Sprintf("n=6 guard=true code=%v", []segInstr{{op: bytecode.Div}, {op: bytecode.Store, k: 5},
			{op: bytecode.Load, k: 4}, {op: bytecode.Div, imm: true, k: 3}, {op: bytecode.Const}}),
		fmt.Sprintf("n=1 guard=true code=%v", []segInstr{{op: bytecode.Mod}}),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("segments:\n got  %q\n want %q", got, want)
	}
}

// stackShapeProgram builds a worker loop whose iterations change the
// operand stack's depth: it pushes i each iteration (grow), or pops one
// of 20 values pushed before the loop, so that the 21st iteration
// underflows (drain). The verifier does not check stack depths, so
// loop traces with a nonzero net delta are legal input.
//
// Worker locals: 0=iterations 1=i 5=tmp.
func stackShapeProgram(grow bool) *classes.Program {
	p := classes.NewProgram("traceshape", 8)
	w := bytecode.NewAsm()
	w.Const(0).Store(1)
	if !grow {
		for k := int32(0); k < 20; k++ {
			w.Const(k)
		}
	}
	w.Label("loop")
	if grow {
		w.Load(1)
	} else {
		w.Store(5)
	}
	w.Load(1).Const(1).Emit(bytecode.Add).Store(1)
	w.Load(1).Load(0).Emit(bytecode.CmpLT)
	w.Branch(bytecode.JmpNZ, "loop")
	w.Emit(bytecode.Dup).Emit(bytecode.PutStatic, 2)
	w.Emit(bytecode.RetVoid)
	worker := p.Add(&classes.Method{
		Class: "traceshape.Worker", Name: "run", NArgs: 1, MaxLocals: 6,
		Code: w.MustFinish(),
	})
	mn := bytecode.NewAsm()
	mn.Const(300).Call(int32(worker.Index))
	mn.Emit(bytecode.RetVoid)
	main := p.Add(&classes.Method{
		Class: "traceshape.Main", Name: "main", MaxLocals: 1,
		Code: mn.MustFinish(),
	})
	p.SetMain(main)
	return p
}

// Loop iterations that change the stack's depth: a growing loop makes
// the replayer grow the stack's capacity between passes of one call,
// and a draining loop must stop starting passes once the stack no
// longer covers the trace's entry requirement, so that stepInstr raises
// the underflow exactly where per-op execution does.
func TestTraceReplayStackShape(t *testing.T) {
	for _, grow := range []bool{true, false} {
		p := stackShapeProgram(grow)
		if err := p.Verify(); err != nil {
			t.Fatal(err)
		}
		fused, ts := runTraceProgram(t, p, 5, false, false)
		if grow && !fused.Finished || !grow && !strings.Contains(fused.ErrStr, "underflow") {
			t.Fatalf("grow=%v: run ended finished=%v err=%q", grow, fused.Finished, fused.ErrStr)
		}
		if ts.Replays < 10 {
			t.Errorf("grow=%v: only %d replays: the loop trace was not exercised", grow, ts.Replays)
		}
		plain, _ := runTraceProgram(t, p, 5, true, false)
		if !reflect.DeepEqual(fused, plain) {
			t.Errorf("grow=%v: fused vs DisableTrace diverged:\n fused: %+v\n plain: %+v", grow, fused, plain)
		}
		perop, _ := runTraceProgram(t, p, 5, false, true)
		if !reflect.DeepEqual(fused, perop) {
			t.Errorf("grow=%v: fused vs per-op oracle diverged:\n fused: %+v\n perop: %+v", grow, fused, perop)
		}
	}
}

// A fixed corpus of generated programs pins what the random sweep
// above can only sample. Fused passes must be booked exactly as one
// replayTrace call per pass books them, however many loop iterations
// a call runs: divergence hygiene (dropChronicDiverge) reads a
// descriptor's pass count, and OpsReplayed feeds the benchmark's exact
// trace-replay share. The counter sums are those of a replayer that
// returned after every iteration, and the digest folds the programs'
// published results (statics 2..5, pure functions of the program) as
// per-op interpretation computes them. Regenerate both only for a
// deliberate change to the trace policy or to genTraceProgram.
func TestTraceReplayFixedCorpus(t *testing.T) {
	var got TraceStats
	var digest uint64
	for seed := int64(0); seed < 40; seed++ {
		res, ts := runTraceProgram(t, genTraceProgram(rand.New(rand.NewSource(seed))), seed, false, false)
		if !res.Finished {
			t.Fatalf("seed %d: did not finish: %s", seed, res.ErrStr)
		}
		for _, v := range res.Statics {
			digest = digest*1099511628211 ^ uint64(v)
		}
		got.Installed += ts.Installed
		got.Aborted += ts.Aborted
		got.Replays += ts.Replays
		got.OpsReplayed += ts.OpsReplayed
		got.Deopts += ts.Deopts
		got.Invalidations += ts.Invalidations
		got.Dropped += ts.Dropped
	}
	want := TraceStats{
		Installed: 345, Aborted: 709, Replays: 140149, OpsReplayed: 6364083,
		Deopts: 37445, Invalidations: 40, Dropped: 267,
	}
	if got != want {
		t.Errorf("trace counters over the corpus:\n got  %+v\n want %+v", got, want)
	}
	if digest != 0x82d4a7175879480 {
		t.Errorf("results digest over the corpus = %#x, want 0x82d4a7175879480", digest)
	}
}
