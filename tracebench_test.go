package viprof

// The deterministic dispatch-heavy VM workload behind
// BenchmarkTraceBatch and TestTraceBenchPinned. The program is
// shaped like the interpreter phases the trace cache exists for: a hot
// single-backedge loop whose body mixes arithmetic chains, array and
// field read-modify-writes, a static accumulator, and a data-dependent
// branch (a recurring deopt point), plus a periodic allocation so the
// collector moves the traced body mid-run. All three sides run the
// identical program on identically configured machines and must agree
// on the final simulated cycle and NMI counts bit for bit: the fused
// side (trace cache + batching), the stepped side (batching on, trace
// off) and the per-op oracle (SetBatching(false), every bytecode
// through core.Exec) — the same configurations the trace quickcheck
// suite proves equivalent on random programs.

import (
	"testing"

	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/jvm"
	"viprof/internal/jvm/bytecode"
	"viprof/internal/jvm/classes"
	"viprof/internal/kernel"
)

// dispatchProgram builds the dispatch-heavy loop workload shared by the
// trace-batch and SMP benches: outer worker calls of inner iterations
// each, over the hash-mix/array/field/static body described above.
//
// Worker locals: 0=iterations 1=i 2=arr 3=obj 4=acc 5=tmp.
// Statics: 0,1 allocation rings (refs), 2=acc 3=arr probe 4=field
// probe 5=static accumulator.
func dispatchProgram(name string, outer, inner int) *classes.Program {
	p := classes.NewProgram(name, 8)
	const arrLen = 48

	w := bytecode.NewAsm()
	w.Const(arrLen).Emit(bytecode.NewArray, 8, 0).Store(2)
	w.Emit(bytecode.New, 1, 4).Store(3)
	w.Const(7).Store(4)
	w.Const(0).Store(1)
	w.Label("loop")
	// A hash-mix round over acc and i: the straight dispatch chains an
	// interpreter inner loop is made of (the bulk of any bytecode
	// histogram is loads, constants, and ALU ops — this is that bulk).
	w.Load(4).Load(1).Emit(bytecode.Add)
	w.Const(1021).Emit(bytecode.Xor)
	w.Load(1).Const(63).Emit(bytecode.And).Emit(bytecode.Sub)
	w.Store(4)
	// tmp = ((acc << 3) ^ (acc >> 5)) + (i * 31)
	w.Load(4).Const(3).Emit(bytecode.Shl)
	w.Load(4).Const(5).Emit(bytecode.Shr)
	w.Emit(bytecode.Xor)
	w.Load(1).Const(31).Emit(bytecode.Mul)
	w.Emit(bytecode.Add).Store(5)
	// acc = (acc | (tmp & 255)) - ((tmp >> 4) ^ (i << 1))
	w.Load(4).Load(5).Const(255).Emit(bytecode.And).Emit(bytecode.Or)
	w.Load(5).Const(4).Emit(bytecode.Shr)
	w.Load(1).Const(1).Emit(bytecode.Shl)
	w.Emit(bytecode.Xor)
	w.Emit(bytecode.Sub)
	w.Store(4)
	// acc = ((acc * 17) ^ (tmp + 99)) & ((i | 7) + acc)
	w.Load(4).Const(17).Emit(bytecode.Mul)
	w.Load(5).Const(99).Emit(bytecode.Add)
	w.Emit(bytecode.Xor)
	w.Load(1).Const(7).Emit(bytecode.Or)
	w.Load(4).Emit(bytecode.Add)
	w.Emit(bytecode.And)
	w.Store(4)
	// arr[i%48] += i
	w.Load(2).Load(1).Const(arrLen).Emit(bytecode.Mod).Emit(bytecode.ALoad)
	w.Load(1).Emit(bytecode.Add)
	w.Store(5)
	w.Load(2).Load(1).Const(arrLen).Emit(bytecode.Mod)
	w.Load(5)
	w.Emit(bytecode.AStore)
	// obj.f1 += 5
	w.Load(3)
	w.Load(3).Emit(bytecode.GetField, 1)
	w.Const(5).Emit(bytecode.Add)
	w.Emit(bytecode.PutField, 1)
	// static5 += acc
	w.Emit(bytecode.GetStatic, 5)
	w.Load(4).Emit(bytecode.Add)
	w.Emit(bytecode.PutStatic, 5)
	// Data-dependent skip: every 7th iteration takes the other arm, so
	// an installed trace deopts there on a fixed cadence.
	w.Load(1).Const(7).Emit(bytecode.Mod)
	w.Branch(bytecode.JmpNZ, "noboost")
	w.Load(4).Const(13).Emit(bytecode.Add).Store(4)
	w.Label("noboost")
	// Every 13th iteration allocates and roots an object, so the
	// collector runs — and moves the traced body — at known points.
	w.Load(1).Const(13).Emit(bytecode.Mod)
	w.Branch(bytecode.JmpNZ, "skipalloc")
	w.Emit(bytecode.New, 1, 2)
	w.Emit(bytecode.PutStatic, 0)
	w.Label("skipalloc")
	// i++; loop while i < iterations
	w.Load(1).Const(1).Emit(bytecode.Add).Store(1)
	w.Load(1).Load(0).Emit(bytecode.CmpLT)
	w.Branch(bytecode.JmpNZ, "loop")
	// Publish the observable results into scalar statics.
	w.Load(4).Emit(bytecode.PutStatic, 2)
	w.Load(2).Const(arrLen/2).Emit(bytecode.ALoad).Emit(bytecode.PutStatic, 3)
	w.Load(3).Emit(bytecode.GetField, 1).Emit(bytecode.PutStatic, 4)
	w.Emit(bytecode.RetVoid)
	worker := p.Add(&classes.Method{
		Class: name + ".Worker", Name: "run", NArgs: 1, MaxLocals: 6,
		Code: w.MustFinish(),
	})

	mn := bytecode.NewAsm()
	mn.Const(0).Store(0)
	mn.Label("loop")
	mn.Const(int32(inner)).Call(int32(worker.Index))
	mn.Load(0).Const(1).Emit(bytecode.Add).Store(0)
	mn.Load(0).Const(int32(outer)).Emit(bytecode.CmpLT)
	mn.Branch(bytecode.JmpNZ, "loop")
	mn.Emit(bytecode.RetVoid)
	main := p.Add(&classes.Method{
		Class: name + ".Main", Name: "main", MaxLocals: 1,
		Code: mn.MustFinish(),
	})
	p.SetMain(main)
	return p
}

// traceBenchResult is one side's outcome: everything the sides must
// agree on, plus the trace-cache counters (which legitimately differ —
// only the fused side installs traces).
type traceBenchResult struct {
	Cycles    uint64
	Bytecodes uint64
	NMIs      int
	Trace     jvm.TraceStats
}

// traceBenchRun executes the benchmark program on a fresh machine with
// both paper events armed at aggressive periods (so mid-trace
// overflows and sample attribution are part of what is timed) and
// returns the outcome. disableTrace switches off the trace cache;
// disableBatch additionally switches the core to the per-op oracle
// (which implies no tracing — recording refuses to start when batching
// is off).
func traceBenchRun(disableTrace, disableBatch bool) (traceBenchResult, error) {
	core := cpu.New(hpc.NewBank(), cache.DefaultHierarchy())
	core.Bank.Program(hpc.GlobalPowerEvents, 7_003)
	core.Bank.Program(hpc.BSQCacheReference, 1_201)
	if disableBatch {
		core.SetBatching(false)
	}
	m := kernel.NewMachine(core, 1)
	var res traceBenchResult
	m.Kern.SetNMIHandler(func(*kernel.Machine, cpu.Snapshot, hpc.Event) {
		res.NMIs++
	})
	// 200 worker calls of 1500 iterations, ~27 M bytecodes: enough for
	// the adaptive system to promote the worker and for tens of
	// collections to move its body while traces are live.
	vm, _, err := jvm.Launch(m, dispatchProgram("tracebench", 200, 1500), jvm.Config{
		HeapBytes: 256 << 10, AOSThreshold: 120, DisableTrace: disableTrace,
	})
	if err != nil {
		return res, err
	}
	if err := m.Kern.Run(30_000_000_000); err != nil {
		return res, err
	}
	if !vm.Finished() {
		return res, vm.Err()
	}
	res.Cycles = core.Cycles()
	res.Bytecodes = vm.Stats().BytecodesRun
	res.Trace = vm.TraceStats()
	return res, nil
}

// TestTraceBenchPinned runs all three sides and pins what they must
// share (cycles, NMIs, bytecodes) and the fused side's trace-cache
// counters. A change that moves a pin updates it and says why.
func TestTraceBenchPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("three 27 M-bytecode runs")
	}
	sides := []struct {
		name                       string
		disableTrace, disableBatch bool
	}{{"fused", false, false}, {"stepped", true, false}, {"per-op", true, true}}
	for _, side := range sides {
		r, err := traceBenchRun(side.disableTrace, side.disableBatch)
		if err != nil {
			t.Fatalf("%s: %v", side.name, err)
		}
		if r.Cycles != 36_673_077 || r.NMIs != 5_238 || r.Bytecodes != 27_224_203 {
			t.Errorf("%s: %d cycles, %d NMIs, %d bytecodes; want 36673077, 5238, 27224203",
				side.name, r.Cycles, r.NMIs, r.Bytecodes)
		}
		want := jvm.TraceStats{}
		if side.name == "fused" {
			want = jvm.TraceStats{Installed: 3, Aborted: 384, Replays: 293_313,
				OpsReplayed: 25_703_276, Deopts: 62_395, Invalidations: 1, Dropped: 1}
		}
		if r.Trace != want {
			t.Errorf("%s: trace stats %+v, want %+v", side.name, r.Trace, want)
		}
	}
}
