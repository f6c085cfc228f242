package jvm

import (
	"math/rand"
	"strings"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/jvm/bytecode"
	"viprof/internal/jvm/classes"
	"viprof/internal/jvm/jit"
	"viprof/internal/kernel"
)

// buildLoopProgram returns a program whose main calls a hot worker
// method `outer` times; the worker loops over an array doing loads,
// stores and arithmetic, allocates a small object per call, and keeps
// every `keepEvery`-th allocation live in a static ring.
func buildLoopProgram(outer, inner int32) *classes.Program {
	p := classes.NewProgram("test.loop", 8)

	// worker(iterations): arr = new long[64]; for i in 0..iterations:
	// arr[i%64] = arr[i%64] + i; obj = new(1 ref,2 scalars); statics[0]=obj (sometimes)
	w := bytecode.NewAsm()
	// locals: 0=iterations 1=i 2=arr 3=obj
	w.Const(64).Emit(bytecode.NewArray, 8, 0).Store(2)
	w.Const(0).Store(1)
	w.Label("loop")
	// arr[i%64] = arr[i%64] + i
	w.Load(2).Load(1).Const(64).Emit(bytecode.Mod) // arr, i%64
	w.Emit(bytecode.ALoad)
	w.Load(1).Emit(bytecode.Add) // value + i
	// need (ref, idx, val) for AStore: rebuild
	w.Store(3)                                     // tmp value in 3
	w.Load(2).Load(1).Const(64).Emit(bytecode.Mod) // arr, idx
	w.Load(3)
	w.Emit(bytecode.AStore)
	// every 16th: allocate object and root it
	w.Load(1).Const(16).Emit(bytecode.Mod)
	w.Branch(bytecode.JmpNZ, "skipalloc")
	w.Emit(bytecode.New, 1, 2)
	w.Emit(bytecode.PutStatic, 0)
	w.Label("skipalloc")
	// i++
	w.Load(1).Const(1).Emit(bytecode.Add).Store(1)
	w.Load(1).Load(0).Emit(bytecode.CmpLT)
	w.Branch(bytecode.JmpNZ, "loop")
	// native + kernel activity per call: memset scratch, write a record
	w.Const(2048).Emit(bytecode.Intrinsic, int32(bytecode.IntrMemset), 1)
	w.Const(64).Emit(bytecode.Intrinsic, int32(bytecode.IntrWrite), 1)
	w.Emit(bytecode.RetVoid)
	worker := p.Add(&classes.Method{
		Class: "test.app.Worker", Name: "run", NArgs: 1, MaxLocals: 4,
		Code: w.MustFinish(),
	})

	// main: for j in 0..outer: worker(inner)
	mn := bytecode.NewAsm()
	mn.Const(0).Store(0)
	mn.Label("loop")
	mn.Const(inner).Call(int32(worker.Index))
	mn.Load(0).Const(1).Emit(bytecode.Add).Store(0)
	mn.Load(0).Const(outer).Emit(bytecode.CmpLT)
	mn.Branch(bytecode.JmpNZ, "loop")
	mn.Emit(bytecode.RetVoid)
	main := p.Add(&classes.Method{
		Class: "test.app.Main", Name: "main", MaxLocals: 1,
		Code: mn.MustFinish(),
	})
	p.SetMain(main)
	return p
}

func newMachine(seed int64) *kernel.Machine {
	core := cpu.New(hpc.NewBank(), cache.DefaultHierarchy())
	return kernel.NewMachine(core, seed)
}

func TestVMRunsProgramToCompletion(t *testing.T) {
	m := newMachine(1)
	prog := buildLoopProgram(50, 200)
	vm, proc, err := Launch(m, prog, Config{HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !proc.Done() {
		t.Fatal("VM process did not exit")
	}
	if !vm.Finished() {
		t.Fatalf("VM did not finish cleanly: %v", vm.Err())
	}
	st := vm.Stats()
	if st.BaselineCompiles < 2 {
		t.Errorf("baseline compiles = %d, want >= 2 (main + worker)", st.BaselineCompiles)
	}
	if st.BytecodesRun == 0 {
		t.Error("no bytecodes executed")
	}
	if st.ClassesLoaded < 2 {
		t.Errorf("classes loaded = %d", st.ClassesLoaded)
	}
}

func TestHotMethodGetsPromoted(t *testing.T) {
	m := newMachine(1)
	prog := buildLoopProgram(300, 400)
	vm, _, err := Launch(m, prog, Config{HeapBytes: 1 << 20, AOSThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(5_000_000_000); err != nil {
		t.Fatal(err)
	}
	if vm.Stats().OptCompiles == 0 {
		t.Error("hot worker never promoted to opt")
	}
	worker := prog.Methods[0]
	body, ok := vm.Body(worker)
	if !ok || body.Level != jit.Opt {
		t.Errorf("worker body level = %v (ok=%v), want opt", body, ok)
	}
}

func TestAllocationsTriggerGC(t *testing.T) {
	m := newMachine(1)
	prog := buildLoopProgram(200, 400)
	vm, _, err := Launch(m, prog, Config{HeapBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(5_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !vm.Finished() {
		t.Fatalf("VM failed: %v", vm.Err())
	}
	if vm.Stats().Collections == 0 {
		t.Error("no collections despite small heap")
	}
	if vm.Heap().Epoch() != vm.Stats().Collections {
		t.Errorf("epoch %d != collections %d", vm.Heap().Epoch(), vm.Stats().Collections)
	}
}

// recordingAgent captures VM-agent events for inspection.
type recordingAgent struct {
	compiles []string // "sig level epoch"
	moves    int
	preGCs   []int
	exits    int
	moveSigs map[string]bool
}

func (a *recordingAgent) OnCompile(b *jit.CodeBody, epoch int) {
	a.compiles = append(a.compiles, b.Method.Signature()+" "+b.Level.String())
}
func (a *recordingAgent) OnMove(b *jit.CodeBody, old addr.Address) {
	a.moves++
	if a.moveSigs == nil {
		a.moveSigs = map[string]bool{}
	}
	a.moveSigs[b.Method.Signature()] = true
	if b.Obj.Addr == old {
		panic("OnMove with unchanged address")
	}
}
func (a *recordingAgent) PreGC(epoch int)  { a.preGCs = append(a.preGCs, epoch) }
func (a *recordingAgent) OnExit(epoch int) { a.exits++ }

func TestAgentObservesLifecycle(t *testing.T) {
	m := newMachine(1)
	prog := buildLoopProgram(200, 300)
	agent := &recordingAgent{}
	vm, _, err := Launch(m, prog, Config{
		HeapBytes: 64 << 10, AOSThreshold: 50, Agent: agent,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(5_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !vm.Finished() {
		t.Fatalf("VM failed: %v", vm.Err())
	}
	if len(agent.compiles) < 3 {
		t.Errorf("agent saw %d compiles, want >= 3 (2 baseline + 1 opt)", len(agent.compiles))
	}
	sawOpt := false
	for _, c := range agent.compiles {
		if strings.HasSuffix(c, " opt") {
			sawOpt = true
		}
	}
	if !sawOpt {
		t.Error("agent never saw an opt compile")
	}
	if agent.moves == 0 {
		t.Error("agent never saw a code move despite GCs")
	}
	for i, e := range agent.preGCs {
		if e != i {
			t.Fatalf("PreGC epochs not sequential: %v", agent.preGCs)
		}
	}
	if agent.exits != 1 {
		t.Errorf("OnExit fired %d times", agent.exits)
	}
}

// recordingRegistry captures JIT-region registration.
type recordingRegistry struct {
	pid        int
	start, end addr.Address
	epochFn    func() int
	unregs     int
}

func (r *recordingRegistry) RegisterJIT(pid int, start, end addr.Address, epoch func() int) {
	r.pid, r.start, r.end, r.epochFn = pid, start, end, epoch
}
func (r *recordingRegistry) UnregisterJIT(pid int) { r.unregs++ }

func TestRegistryRegistration(t *testing.T) {
	m := newMachine(1)
	prog := buildLoopProgram(20, 100)
	reg := &recordingRegistry{}
	vm, proc, err := Launch(m, prog, Config{HeapBytes: 256 << 10, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if reg.pid != proc.PID {
		t.Errorf("registered pid %d, process pid %d", reg.pid, proc.PID)
	}
	lo, hi := vm.Heap().Bounds()
	if reg.start != lo || reg.end != hi {
		t.Errorf("registered region [%s,%s), heap [%s,%s)", reg.start, reg.end, lo, hi)
	}
	if reg.epochFn == nil || reg.epochFn() != 0 {
		t.Error("epoch function missing or nonzero at start")
	}
	if err := m.Kern.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	if reg.unregs != 1 {
		t.Errorf("unregistered %d times", reg.unregs)
	}
}

// Samples taken during the run must land in every layer: JIT heap,
// boot image, kernel, and each at plausible shares.
func TestSamplesSpanAllLayers(t *testing.T) {
	core := cpu.New(hpc.NewBank(), cache.DefaultHierarchy())
	core.Bank.Program(hpc.GlobalPowerEvents, 5_000)
	m := kernel.NewMachine(core, 1)

	type bucket struct{ jit, boot, native, kern, other int }
	var b bucket
	var vmRef *VM
	m.Kern.SetNMIHandler(func(mm *kernel.Machine, s cpu.Snapshot, ev hpc.Event) {
		if vmRef == nil {
			return
		}
		lo, hi := vmRef.Heap().Bounds()
		switch {
		case s.PC >= lo && s.PC < hi:
			b.jit++
		case s.PC.IsKernel():
			b.kern++
		default:
			if p, ok := mm.Kern.Process(s.Ctx.PID); ok {
				if v, ok := p.Space.Lookup(s.PC); ok {
					switch {
					case v.Image == BootImageName:
						b.boot++
					case strings.HasPrefix(v.Image, "libc"), v.Image == "JikesRVM":
						b.native++
					default:
						b.other++
					}
					return
				}
			}
			b.other++
		}
	})

	prog := buildLoopProgram(300, 300)
	vm, _, err := Launch(m, prog, Config{HeapBytes: 128 << 10, AOSThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	vmRef = vm
	if err := m.Kern.Run(5_000_000_000); err != nil {
		t.Fatal(err)
	}
	total := b.jit + b.boot + b.native + b.kern + b.other
	if total < 100 {
		t.Fatalf("too few samples: %d", total)
	}
	if b.jit == 0 {
		t.Error("no samples in JIT code")
	}
	if b.boot == 0 {
		t.Error("no samples in the boot image (VM services invisible)")
	}
	if b.kern == 0 {
		t.Error("no kernel samples")
	}
	t.Logf("samples: jit=%d boot=%d native=%d kern=%d other=%d", b.jit, b.boot, b.native, b.kern, b.other)
}

func TestRuntimeErrorsSurface(t *testing.T) {
	p := classes.NewProgram("test.div0", 1)
	a := bytecode.NewAsm()
	a.Const(1).Const(0).Emit(bytecode.Div).Emit(bytecode.Pop).Emit(bytecode.RetVoid)
	main := p.Add(&classes.Method{Class: "t.Main", Name: "main", MaxLocals: 1, Code: a.MustFinish()})
	p.SetMain(main)

	m := newMachine(1)
	vm, proc, err := Launch(m, p, Config{HeapBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !proc.Done() {
		t.Fatal("crashed VM did not exit")
	}
	if vm.Finished() {
		t.Fatal("VM reported success after ArithmeticException")
	}
	if vm.Err() == nil || !strings.Contains(vm.Err().Error(), "zero") {
		t.Errorf("error = %v", vm.Err())
	}
}

func TestIntrinsicsRun(t *testing.T) {
	p := classes.NewProgram("test.intr", 1)
	a := bytecode.NewAsm()
	// memset(4096)
	a.Const(4096).Emit(bytecode.Intrinsic, int32(bytecode.IntrMemset), 1)
	// arrays: src = new[32]; dst = new[32]; arraycopy(src, dst, 32)
	a.Const(32).Emit(bytecode.NewArray, 8, 0).Store(0)
	a.Const(32).Emit(bytecode.NewArray, 8, 0).Store(1)
	// put a marker in src[5]
	a.Load(0).Const(5).Const(99).Emit(bytecode.AStore)
	a.Load(0).Load(1).Const(32).Emit(bytecode.Intrinsic, int32(bytecode.IntrArrayCopy), 3)
	// check dst[5] == 99: if not, divide by zero to fail loudly
	a.Load(1).Const(5).Emit(bytecode.ALoad)
	a.Const(99).Emit(bytecode.CmpEQ)
	a.Branch(bytecode.JmpNZ, "ok")
	a.Const(1).Const(0).Emit(bytecode.Div).Emit(bytecode.Pop)
	a.Label("ok")
	// write(64); t = currentTime()
	a.Const(64).Emit(bytecode.Intrinsic, int32(bytecode.IntrWrite), 1)
	a.Emit(bytecode.Intrinsic, int32(bytecode.IntrCurrentTime), 0).Emit(bytecode.Pop)
	a.Emit(bytecode.RetVoid)
	main := p.Add(&classes.Method{Class: "t.Main", Name: "main", MaxLocals: 2, Code: a.MustFinish()})
	p.SetMain(main)

	m := newMachine(1)
	vm, _, err := Launch(m, p, Config{HeapBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !vm.Finished() {
		t.Fatalf("intrinsics program failed: %v", vm.Err())
	}
	if !m.Kern.Disk().Exists("jikesrvm.out") {
		t.Error("IntrWrite produced no file")
	}
}

func TestRVMMapWrittenAtLaunch(t *testing.T) {
	m := newMachine(1)
	_, _, err := Launch(m, buildLoopProgram(1, 10), Config{HeapBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Kern.Disk().Read(RVMMapName)
	if err != nil {
		t.Fatalf("RVM.map not on disk: %v", err)
	}
	if !strings.Contains(string(data), "com.ibm.jikesrvm.VM_Compiler.compile") {
		t.Error("RVM.map missing compiler symbol")
	}
}

func TestStackOverflow(t *testing.T) {
	p := classes.NewProgram("test.rec", 1)
	rec := &classes.Method{Class: "t.R", Name: "rec", MaxLocals: 1}
	a := bytecode.NewAsm()
	a.Call(0) // self-call, index fixed after Add
	a.Emit(bytecode.RetVoid)
	rec.Code = a.MustFinish()
	p.Add(rec)
	mn := bytecode.NewAsm()
	mn.Call(0)
	mn.Emit(bytecode.RetVoid)
	main := p.Add(&classes.Method{Class: "t.Main", Name: "main", MaxLocals: 1, Code: mn.MustFinish()})
	p.SetMain(main)

	m := newMachine(1)
	vm, _, err := Launch(m, p, Config{HeapBytes: 256 << 10, MaxCallDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	if vm.Err() == nil || !strings.Contains(vm.Err().Error(), "StackOverflow") {
		t.Errorf("err = %v, want StackOverflowError", vm.Err())
	}
}

func TestDemandPagingFaults(t *testing.T) {
	m := newMachine(1)
	prog := buildLoopProgram(100, 300)
	vm, _, err := Launch(m, prog, Config{HeapBytes: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Kern.Run(5_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !vm.Finished() {
		t.Fatalf("VM failed: %v", vm.Err())
	}
	faults := m.Kern.PageFaults()
	if faults == 0 {
		t.Fatal("no page faults despite fresh heap pages")
	}
	// Faults are bounded by the touched page count, not by allocations:
	// most allocations reuse already-touched pages.
	maxPages := uint64(512<<10)/4096 + 16
	if faults > maxPages {
		t.Errorf("%d faults for at most %d heap pages", faults, maxPages)
	}
}

// faultIn's page bitmap must fault exactly the pages a set of faulted
// page numbers would: random spans anywhere in a 1 MiB heap (256 pages,
// so every bitmap word and bit position is used), including single
// bytes at both ends and spans crossing word boundaries.
func TestFaultInMatchesPageSet(t *testing.T) {
	m := newMachine(1)
	vm, _, err := Launch(m, buildLoopProgram(1, 1), Config{HeapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := vm.heap.Bounds()
	rng := rand.New(rand.NewSource(5))
	seen := map[addr.Address]bool{}
	spans := [][2]uint64{{0, 1}, {uint64(hi-lo) - 1, 1}, {63 << 12, 2 << 12}, {4095, 2}}
	for i := 0; i < 400; i++ {
		size := uint64(1 + rng.Intn(3*4096))
		spans = append(spans, [2]uint64{uint64(rng.Int63n(int64(uint64(hi-lo) - size))), size})
	}
	for _, sp := range spans {
		start := lo + addr.Address(sp[0])
		want := m.Kern.PageFaults()
		for page := start >> 12; page <= (start+addr.Address(sp[1])-1)>>12; page++ {
			if !seen[page] {
				seen[page] = true
				want++
			}
		}
		vm.faultIn(start, uint32(sp[1]))
		if got := m.Kern.PageFaults(); got != want {
			t.Fatalf("span %s+%d: %d faults, want %d", start, sp[1], got, want)
		}
	}
	if len(seen) < 200 {
		t.Errorf("only %d of 256 pages touched", len(seen))
	}
}

// BenchmarkInterpreterThroughput measures real-time cost per simulated
// bytecode through the full pipeline (interpreter + cache + counters).
func BenchmarkInterpreterThroughput(b *testing.B) {
	m := newMachine(1)
	prog := buildLoopProgram(1_000_000, 1_000) // effectively endless
	vm, _, err := Launch(m, prog, Config{HeapBytes: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	_ = vm
	b.ResetTimer()
	done := uint64(0)
	for done < uint64(b.N) {
		m.Core.StartSlice(100_000)
		p, _ := m.Kern.Process(1)
		before := vm.Stats().BytecodesRun
		vm.Step(m, p)
		done += vm.Stats().BytecodesRun - before
	}
	b.ReportMetric(float64(vm.Stats().BytecodesRun), "bytecodes")
}
