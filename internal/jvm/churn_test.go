package jvm

import (
	"reflect"
	"testing"

	"viprof/internal/jvm/bytecode"
	"viprof/internal/jvm/classes"
	"viprof/internal/jvm/gc"
)

// Allocation churn: a worker called once per iteration allocates a
// scalar array of varying length (0 to 22), fills it, allocates a ref
// array (length 0 to 4) and a 2-ref/2-scalar object linking both, files
// every fourth object in an 8-slot static ring (dropping the one it
// replaces), and reads a ring entry back, folding its fields, its
// array's length and last element, and its ref array's first element's
// length into a checksum. On the trace runner's 96 KiB heap this runs
// dozens of collections, so dead arrays and objects come back through
// the heap's free lists while the ring's survivors move and tenure. A
// second method with more locals is called every 16th iteration, so
// popped frame slots are taken over by callees of both sizes; both
// methods add locals they have not written yet into a static that must
// stay 0.
//
// Statics: 0=ring 2=checksum 3=reads 4=stale-local sum 5=ring sum.
const churnIters = 5000

func churnProgram() *classes.Program {
	p := classes.NewProgram("churn", 8)

	// worker(i). Locals: 0=i 1=n 2=arr/a 3=refs/r 4=obj 5=j 6=o 7=t.
	w := bytecode.NewAsm()
	w.Emit(bytecode.GetStatic, 4).Load(7).Emit(bytecode.Add).Load(5).Emit(bytecode.Add).Emit(bytecode.PutStatic, 4)
	w.Load(0).Const(7).Emit(bytecode.Mul).Const(3).Emit(bytecode.Add).Const(23).Emit(bytecode.Mod).Store(1)
	w.Load(1).Emit(bytecode.NewArray, 8, 0).Store(2)
	w.Const(0).Store(5)
	w.Label("fill")
	w.Load(5).Load(1).Emit(bytecode.CmpLT).Branch(bytecode.JmpZ, "filled")
	w.Load(2).Load(5).Load(0).Load(5).Emit(bytecode.Add).Emit(bytecode.AStore)
	w.Load(5).Const(1).Emit(bytecode.Add).Store(5)
	w.Branch(bytecode.Jmp, "fill")
	w.Label("filled")
	w.Load(0).Const(5).Emit(bytecode.Mod).Emit(bytecode.NewArray, 8, 1).Store(3)
	w.Emit(bytecode.New, 2, 2).Store(4)
	w.Load(4).Load(0).Emit(bytecode.PutField, 0)
	w.Load(4).Load(1).Emit(bytecode.PutField, 1)
	w.Load(4).Load(2).Emit(bytecode.PutRef, 0)
	w.Load(4).Load(3).Emit(bytecode.PutRef, 1)
	w.Load(3).Emit(bytecode.ArrayLen).Branch(bytecode.JmpZ, "norefs")
	w.Load(3).Const(0).Load(2).Emit(bytecode.AStore)
	w.Label("norefs")
	w.Load(0).Const(4).Emit(bytecode.Mod).Branch(bytecode.JmpNZ, "noring")
	w.Emit(bytecode.GetStatic, 0).Load(0).Const(4).Emit(bytecode.Div).Const(8).Emit(bytecode.Mod).Load(4).Emit(bytecode.AStore)
	w.Label("noring")
	w.Emit(bytecode.GetStatic, 0).Load(0).Const(3).Emit(bytecode.Mul).Const(1).Emit(bytecode.Add).Const(8).Emit(bytecode.Mod)
	w.Emit(bytecode.ALoad).Store(6)
	w.Load(6).Emit(bytecode.GetField, 0).Load(6).Emit(bytecode.GetField, 1).Const(7).Emit(bytecode.Mul).Emit(bytecode.Add).Store(7)
	w.Load(6).Emit(bytecode.GetRef, 0).Store(2)
	w.Load(7).Load(2).Emit(bytecode.ArrayLen).Emit(bytecode.Add).Store(7)
	w.Load(2).Emit(bytecode.ArrayLen).Branch(bytecode.JmpZ, "noa")
	w.Load(7).Load(2).Load(2).Emit(bytecode.ArrayLen).Const(1).Emit(bytecode.Sub).Emit(bytecode.ALoad).Emit(bytecode.Xor).Store(7)
	w.Label("noa")
	w.Load(6).Emit(bytecode.GetRef, 1).Store(3)
	w.Load(3).Emit(bytecode.ArrayLen).Branch(bytecode.JmpZ, "nor")
	w.Load(7).Load(3).Const(0).Emit(bytecode.ALoad).Emit(bytecode.ArrayLen).Emit(bytecode.Add).Store(7)
	w.Label("nor")
	w.Emit(bytecode.GetStatic, 2).Load(7).Emit(bytecode.Add).Emit(bytecode.PutStatic, 2)
	w.Emit(bytecode.GetStatic, 3).Const(1).Emit(bytecode.Add).Emit(bytecode.PutStatic, 3)
	w.Emit(bytecode.RetVoid)
	worker := p.Add(&classes.Method{Class: "churn.Worker", Name: "run", NArgs: 1, MaxLocals: 8, Code: w.MustFinish()})

	// wide(i): more locals than the worker, all but i unwritten.
	b := bytecode.NewAsm()
	b.Emit(bytecode.GetStatic, 4).Load(11).Emit(bytecode.Add).Load(5).Emit(bytecode.Add).Emit(bytecode.PutStatic, 4)
	b.Emit(bytecode.RetVoid)
	wide := p.Add(&classes.Method{Class: "churn.Worker", Name: "wide", NArgs: 1, MaxLocals: 12, Code: b.MustFinish()})

	// main. Locals: 0=i 1=k 2=obj.
	m := bytecode.NewAsm()
	m.Const(8).Emit(bytecode.NewArray, 8, 1).Emit(bytecode.PutStatic, 0)
	m.Const(0).Store(1)
	m.Label("init")
	m.Load(1).Const(8).Emit(bytecode.CmpLT).Branch(bytecode.JmpZ, "inited")
	m.Emit(bytecode.New, 2, 2).Store(2)
	m.Load(2).Load(1).Emit(bytecode.PutField, 0)
	m.Load(2).Load(1).Emit(bytecode.NewArray, 8, 0).Emit(bytecode.PutRef, 0)
	m.Load(2).Const(0).Emit(bytecode.NewArray, 8, 1).Emit(bytecode.PutRef, 1)
	m.Emit(bytecode.GetStatic, 0).Load(1).Load(2).Emit(bytecode.AStore)
	m.Load(1).Const(1).Emit(bytecode.Add).Store(1)
	m.Branch(bytecode.Jmp, "init")
	m.Label("inited")
	m.Const(0).Store(0)
	m.Label("loop")
	m.Load(0).Const(churnIters).Emit(bytecode.CmpLT).Branch(bytecode.JmpZ, "done")
	m.Load(0).Call(int32(worker.Index))
	m.Load(0).Const(16).Emit(bytecode.Mod).Branch(bytecode.JmpNZ, "skipwide")
	m.Load(0).Call(int32(wide.Index))
	m.Label("skipwide")
	m.Load(0).Const(1).Emit(bytecode.Add).Store(0)
	m.Branch(bytecode.Jmp, "loop")
	m.Label("done")
	m.Const(0).Store(1)
	m.Label("sum")
	m.Load(1).Const(8).Emit(bytecode.CmpLT).Branch(bytecode.JmpZ, "end")
	m.Emit(bytecode.GetStatic, 5).Emit(bytecode.GetStatic, 0).Load(1).Emit(bytecode.ALoad).Emit(bytecode.GetField, 0)
	m.Emit(bytecode.Add).Emit(bytecode.PutStatic, 5)
	m.Load(1).Const(1).Emit(bytecode.Add).Store(1)
	m.Branch(bytecode.Jmp, "sum")
	m.Label("end")
	m.Emit(bytecode.RetVoid)
	main := p.Add(&classes.Method{Class: "churn.Main", Name: "main", MaxLocals: 3, Code: m.MustFinish()})
	p.SetMain(main)
	return p
}

// churnChecksum computes the churn program's statics 2..5 in Go.
func churnChecksum() [4]int64 {
	type object struct {
		s0, s1 int64
		a      []int64
		r      [][]int64
	}
	var ring [8]*object
	for k := range ring {
		ring[k] = &object{s0: int64(k), a: make([]int64, k)}
	}
	var sum, reads int64
	for i := int64(0); i < churnIters; i++ {
		n := (i*7 + 3) % 23
		arr := make([]int64, n)
		for j := range arr {
			arr[j] = i + int64(j)
		}
		refs := make([][]int64, i%5)
		if len(refs) > 0 {
			refs[0] = arr
		}
		obj := &object{s0: i, s1: n, a: arr, r: refs}
		if i%4 == 0 {
			ring[(i/4)%8] = obj
		}
		o := ring[(i*3+1)%8]
		t := o.s0 + o.s1*7 + int64(len(o.a))
		if len(o.a) > 0 {
			t ^= o.a[len(o.a)-1]
		}
		if len(o.r) > 0 {
			t += int64(len(o.r[0]))
		}
		sum += t
		reads++
	}
	var ringSum int64
	for _, o := range ring {
		ringSum += o.s0
	}
	return [4]int64{sum, reads, 0, ringSum}
}

// TestAllocationChurnProgram runs the churn program fused, with
// DisableTrace and per-op: all three must compute the Go checksum and
// agree on every simulated count, and the cycles, instructions, VM
// stats and statics are pinned to the values the collector produced
// before it recycled dead objects.
func TestAllocationChurnProgram(t *testing.T) {
	p := churnProgram()
	want := churnChecksum()
	fused, _ := runTraceProgram(t, p, 3, false, false)
	if !fused.Finished {
		t.Fatalf("churn program failed: %s", fused.ErrStr)
	}
	if fused.Statics != want || want != [4]int64{2_987_670, churnIters, 0, 39_856} {
		t.Errorf("statics 2..5 = %v, Go checksum %v, pinned [2987670 5000 0 39856]", fused.Statics, want)
	}
	pinned := Stats{BaselineCompiles: 3, OptCompiles: 3, OSRs: 1, Collections: 38,
		BytecodesRun: 1_465_062, ClassesLoaded: 2}
	if fused.Cycles != 2_777_535 || fused.Instrs != 1_690_552 || fused.VMStats != pinned {
		t.Errorf("cycles %d instrs %d stats %+v, want 2777535, 1690552, %+v",
			fused.Cycles, fused.Instrs, fused.VMStats, pinned)
	}
	for _, alt := range []struct {
		name                  string
		disableTrace, noBatch bool
	}{{"DisableTrace", true, false}, {"per-op", false, true}} {
		got, _ := runTraceProgram(t, p, 3, alt.disableTrace, alt.noBatch)
		if !reflect.DeepEqual(got, fused) {
			t.Errorf("%s run diverged from the fused run:\n got: %+v\nwant: %+v", alt.name, got, fused)
		}
	}
}

// The heap's Alloc contract: no call site holds a reference it took off
// the roots across the call. Each of the three sites — New, NewArray
// (which pops only the length) and Call (whose callee's first compile
// allocates the body with the arguments still on the caller's stack) —
// runs here with a victim array reachable only from the operand stack
// and the semispace filled with dead arrays of the victim's shape, so
// the site's allocation collects. The victim must survive intact and
// never come back from the free lists.
func TestAllocCallSitesKeepOperandsRooted(t *testing.T) {
	p := classes.NewProgram("sites", 1)
	callee := p.Add(&classes.Method{Class: "sites.Main", Name: "take", NArgs: 1, MaxLocals: 1,
		Code: bytecode.NewAsm().Emit(bytecode.RetVoid).MustFinish()})
	a := bytecode.NewAsm()
	a.Emit(bytecode.New, 1, 1)
	a.Emit(bytecode.NewArray, 8, 0)
	a.Call(int32(callee.Index))
	a.Emit(bytecode.RetVoid)
	main := p.Add(&classes.Method{Class: "sites.Main", Name: "main", MaxLocals: 1, Code: a.MustFinish()})
	p.SetMain(main)
	m := newMachine(1)
	vm, _, err := Launch(m, p, Config{HeapBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	m.Core.StartSlice(1 << 40)
	vm.startup()
	if vm.err != nil {
		t.Fatal(vm.err)
	}
	th := vm.threads[0]
	for pc, site := range []string{"New", "NewArray", "Call"} {
		f := &th.frames[0]
		victim, err := vm.heap.Alloc(gc.KindArray, 32, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		copy(victim.Scalars, []int64{11, 22, 33, 44})
		f.stack = append(f.stack[:0], Value{R: victim})
		if site == "NewArray" {
			f.stack = append(f.stack, Value{I: 2})
		}
		// Dead arrays of the victim's shape, then empty ones, up to the
		// semispace's end: any allocation of 16 bytes or more collects.
		before, half := vm.heap.Collections(), uint64(16<<10)
		for half-vm.heap.Used() >= 48 {
			vm.heap.Alloc(gc.KindArray, 32, 0, 4)
		}
		for half-vm.heap.Used() >= 16 {
			vm.heap.Alloc(gc.KindArray, 0, 0, 0)
		}
		if vm.heap.Collections() != before {
			t.Fatalf("%s: the fill collected", site)
		}
		f.pc = pc
		if err := vm.stepInstr(); err != nil {
			t.Fatalf("%s: %v", site, err)
		}
		if vm.heap.Collections() != before+1 {
			t.Fatalf("%s: the site's allocation did not collect", site)
		}
		for i := 0; i < 400; i++ {
			o, err := vm.heap.Alloc(gc.KindArray, 32, 0, 4)
			if err != nil {
				t.Fatal(err)
			}
			if o == victim {
				t.Fatalf("%s: the victim came back from the free lists", site)
			}
		}
		if got := victim.Scalars; got[0] != 11 || got[1] != 22 || got[2] != 33 || got[3] != 44 {
			t.Errorf("%s: victim's payload now %v", site, got)
		}
		if site == "Call" {
			if len(th.frames) != 2 || th.frames[1].locals[0].R != victim {
				t.Errorf("Call: the callee did not receive the victim")
			}
		}
	}
}
