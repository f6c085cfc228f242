// Package jvm implements the simulated Java virtual machine the paper
// profiles: a compile-only VM in the style of Jikes RVM 2.4.4. Methods
// are baseline-compiled on first invocation and recompiled by an
// optimizing compiler when the adaptive system finds them hot; compiled
// code lives in the garbage-collected heap and moves when the semispace
// collector runs. The VM's own runtime services execute at boot-image
// symbols (see bootimage.go), application code executes at its compiled
// bodies' heap addresses, and native calls execute in libc — so a
// sampling profiler sees the full three-layer picture the paper's
// Figure 1 shows.
package jvm

import (
	"fmt"

	"viprof/internal/addr"
	"viprof/internal/image"
	"viprof/internal/jvm/aos"
	"viprof/internal/jvm/classes"
	"viprof/internal/jvm/gc"
	"viprof/internal/jvm/jit"
	"viprof/internal/kernel"
)

// Value is one operand-stack or local slot: a scalar or a reference.
type Value struct {
	I int64
	R *gc.Object
}

// Agent observes VM events on behalf of a profiler. It is the paper's
// "VM agent": "a library with several hooks in the VM's code" (§3).
// All methods are called synchronously from VM execution.
type Agent interface {
	// OnCompile fires after a method is compiled or recompiled, with
	// the new body and the epoch it was produced in.
	OnCompile(body *jit.CodeBody, epoch int)
	// OnMove fires from inside the collector for each moved code body;
	// implementations must do minimal work (the paper flags the method
	// rather than logging, §3).
	OnMove(body *jit.CodeBody, old addr.Address)
	// PreGC fires just before a collection, closing epoch `epoch`.
	PreGC(epoch int)
	// OnExit fires once when the VM shuts down.
	OnExit(epoch int)
}

// Registry is the runtime profiler's registration interface: "a
// mechanism that allows a VM to register the fact that it is executing
// dynamically generated code ... [and] the boundaries of its memory
// heap" (§3).
type Registry interface {
	RegisterJIT(pid int, start, end addr.Address, epoch func() int)
	UnregisterJIT(pid int)
}

// Config parameterizes a VM instance.
type Config struct {
	// HeapBytes is the total heap (two semispaces). Default 24 MiB.
	HeapBytes uint64
	// AOSThreshold overrides the adaptive system's promotion threshold.
	AOSThreshold int
	// MaxCallDepth bounds recursion (per thread). Default 512.
	MaxCallDepth int
	// YieldQuantum is how many bytecodes a thread runs before the VM
	// scheduler's yieldpoint considers switching threads. Default 4000.
	YieldQuantum int
	// DisableOSR turns off on-stack replacement: promoted methods only
	// take effect at the next invocation (the pre-OSR Jikes behaviour;
	// kept for the ablation benchmark).
	DisableOSR bool
	// DisableTrace turns off trace recording and fused superinstruction
	// replay: every bytecode dispatches through stepInstr (the ablation
	// baseline for the trace-batching benchmark). Simulated results are
	// identical either way, on any core count; only host-side speed
	// differs (see the equivalence contract in trace.go).
	DisableTrace bool
	// Agent, if set, receives VM events (the VIProf VM agent).
	Agent Agent
	// Registry, if set, receives the JIT-region registration.
	Registry Registry
	// Personality selects the runtime product being simulated; nil
	// means Jikes RVM (the paper's prototype).
	Personality *Personality
}

func (c *Config) fillDefaults() {
	if c.HeapBytes == 0 {
		c.HeapBytes = 24 << 20
	}
	if c.MaxCallDepth == 0 {
		c.MaxCallDepth = 512
	}
	if c.YieldQuantum == 0 {
		c.YieldQuantum = 4000
	}
	if c.Personality == nil {
		c.Personality = Jikes()
	}
}

// Stats exposes VM activity counters.
type Stats struct {
	BaselineCompiles int
	OptCompiles      int
	OSRs             int
	Collections      int
	BytecodesRun     uint64
	ClassesLoaded    int
	ThreadsSpawned   int
}

type frame struct {
	body   *jit.CodeBody
	pc     int
	locals []Value
	stack  []Value
}

// vmThread is one green thread inside the VM (Jikes RVM multiplexes
// Java threads onto virtual processors the same way). Threads share the
// heap and compiled-method table; the VM's internal scheduler rotates
// between them at yieldpoints.
type vmThread struct {
	id     int
	frames []frame
}

func (t *vmThread) alive() bool { return len(t.frames) > 0 }

type svcRange struct {
	start, end addr.Address
	weight     int
}

// VM is one running virtual machine instance (one per process).
type VM struct {
	prog *classes.Program
	cfg  Config
	m    *kernel.Machine
	proc *kernel.Process

	heap    *gc.Heap
	aosSys  *aos.AOS
	bodies  []*jit.CodeBody // current body per method index (nil = not compiled)
	loaded  map[string]bool
	statics []Value

	threads    []*vmThread
	cur        int // index of the scheduled thread
	sinceYield int // bytecodes since the last yieldpoint

	traceAt    []*methodTraces // per-method trace cache (index = method)
	rec        *traceRecorder  // active trace recording, if any (points at recorder)
	recorder   traceRecorder   // the one recorder, its ops buffer reused
	traceStats TraceStats
	scatterBuf []addr.Address // reusable operand vector for ExecScatter

	bootImg       *image.Image
	bootBase      addr.Address
	bootstrapImg  *image.Image
	bootstrapBase addr.Address
	libcImg       *image.Image
	libcBase      addr.Address
	staticsBase   addr.Address
	scratch       addr.Address
	scratchLen    uint64

	svcPCs    [numServices][]svcRange
	svcCursor [numServices]int
	memTick   uint64
	copyTick  uint64 // sequential cursor for the GC copy phase's heap walk
	payload   []byte // reusable buffer for simulated writes

	// touchedPages has one bit per heap page, set once the page has
	// been demand-faulted in (bit i is page heapPage0+i); allocation into
	// a fresh page costs a minor fault, putting do_page_fault rows into
	// profiles.
	touchedPages []uint64
	heapPage0    addr.Address

	rootBuf []*gc.Object // the collector's root set, refilled per collection

	started  bool
	finished bool
	err      error

	stats Stats
}

// Launch creates the VM process inside the machine: it loads the
// bootstrap binary, libc and the boot image, writes RVM.map to disk,
// maps the heap, and registers the process with the scheduler. The VM
// starts executing when the kernel schedules it.
func Launch(m *kernel.Machine, prog *classes.Program, cfg Config) (*VM, *kernel.Process, error) {
	if err := prog.Verify(); err != nil {
		return nil, nil, fmt.Errorf("jvm: %v", err)
	}
	cfg.fillDefaults()
	vm := &VM{
		prog:    prog,
		cfg:     cfg,
		m:       m,
		aosSys:  aos.New(cfg.AOSThreshold),
		bodies:  make([]*jit.CodeBody, len(prog.Methods)),
		loaded:  make(map[string]bool),
		traceAt: make([]*methodTraces, len(prog.Methods)),
	}
	proc, err := m.Kern.NewProcess(cfg.Personality.ProcName, vm)
	if err != nil {
		return nil, nil, err
	}
	vm.proc = proc

	// Bootstrap loader (a plain C binary, profiled like any object file).
	vm.bootstrapImg, err = cfg.Personality.buildBootstrap()
	if err != nil {
		return nil, nil, err
	}
	vm.bootstrapBase, err = m.Kern.LoadImage(proc, vm.bootstrapImg, false)
	if err != nil {
		return nil, nil, err
	}

	// libc.
	vm.libcImg, err = buildLibc()
	if err != nil {
		return nil, nil, err
	}
	vm.libcBase, err = m.Kern.LoadImage(proc, vm.libcImg, true)
	if err != nil {
		return nil, nil, err
	}

	// Boot image: mapped file-backed, but its internal format carries
	// no ELF symbols — only RVM.map (written to disk here, as a build
	// artifact) can symbolize it.
	vm.bootImg, err = cfg.Personality.buildBootImage()
	if err != nil {
		return nil, nil, err
	}
	vm.bootBase, err = m.Kern.LoadImage(proc, vm.bootImg, true)
	if err != nil {
		return nil, nil, err
	}
	// The boot image (and hence its map) is the same build artifact for
	// every VM instance of a personality; write it once per machine.
	if !m.Kern.Disk().Exists(cfg.Personality.MapFileName) {
		var mapBuf writerBuf
		if err := image.WriteRVMMap(&mapBuf, vm.bootImg); err != nil {
			return nil, nil, err
		}
		m.Kern.Disk().Append(cfg.Personality.MapFileName, mapBuf.b)
	}

	// Statics block and native scratch buffer.
	nStatics := prog.StaticSlots
	if nStatics < 1 {
		nStatics = 1
	}
	vm.staticsBase, err = m.Kern.MapAnon(proc, uint64(nStatics*8+4096)&^4095+4096, false)
	if err != nil {
		return nil, nil, err
	}
	vm.statics = make([]Value, nStatics)
	vm.scratchLen = 256 << 10
	vm.scratch, err = m.Kern.MapAnon(proc, vm.scratchLen, false)
	if err != nil {
		return nil, nil, err
	}

	// The heap (both semispaces) in one executable anonymous mapping —
	// the region OProfile will report as anon and VIProf will claim.
	heapBase, err := m.Kern.MapAnon(proc, cfg.HeapBytes, true)
	if err != nil {
		return nil, nil, err
	}
	vm.heapPage0 = heapBase >> 12
	heapPages := (heapBase+addr.Address(cfg.HeapBytes)-1)>>12 - vm.heapPage0 + 1
	vm.touchedPages = make([]uint64, (heapPages+63)/64)
	vm.heap, err = gc.NewHeap(heapBase, cfg.HeapBytes, vm.roots, gc.Hooks{
		PreGC: func(epoch int) {
			if vm.cfg.Agent != nil {
				vm.cfg.Agent.PreGC(epoch)
			}
		},
		Moved: func(o *gc.Object, old addr.Address) {
			if vm.cfg.Agent != nil {
				if body, ok := o.Meta.(*jit.CodeBody); ok {
					vm.cfg.Agent.OnMove(body, old)
				}
			}
		},
		PostGC: func(epoch int, s gc.CollectStats) { vm.stats.Collections++ },
		Work:   vm.gcWork,
	})
	if err != nil {
		return nil, nil, err
	}

	// Precompute service symbol ranges.
	for svc, syms := range cfg.Personality.services {
		for _, s := range syms {
			sym, ok := vm.bootImg.Lookup(s.name)
			if !ok {
				return nil, nil, fmt.Errorf("jvm: service symbol %q missing from boot image", s.name)
			}
			vm.svcPCs[svc] = append(vm.svcPCs[svc], svcRange{
				start:  vm.bootBase + sym.Off,
				end:    vm.bootBase + sym.Off + addr.Address(sym.Size),
				weight: s.weight,
			})
		}
	}

	if cfg.Registry != nil {
		lo, hi := vm.heap.Bounds()
		cfg.Registry.RegisterJIT(proc.PID, lo, hi, vm.heap.Epoch)
	}
	return vm, proc, nil
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// Heap exposes the VM heap (examples and tests).
func (vm *VM) Heap() *gc.Heap { return vm.heap }

// Process returns the VM's OS process.
func (vm *VM) Process() *kernel.Process { return vm.proc }

// Stats returns activity counters.
func (vm *VM) Stats() Stats {
	s := vm.stats
	s.ClassesLoaded = len(vm.loaded)
	return s
}

// Err returns the runtime error that terminated the VM, if any.
func (vm *VM) Err() error { return vm.err }

// Finished reports whether the program ran to completion.
func (vm *VM) Finished() bool { return vm.finished && vm.err == nil }

// Body returns the current compiled body for a method, if compiled.
func (vm *VM) Body(m *classes.Method) (*jit.CodeBody, bool) {
	b := vm.bodies[m.Index]
	return b, b != nil
}

// Program returns the program this VM executes.
func (vm *VM) Program() *classes.Program { return vm.prog }

// NativeImages returns the ordinary object files loaded into the VM
// process (bootstrap loader and libc) — everything a baseline profiler
// can symbolize with plain symbol tables.
func (vm *VM) NativeImages() []*image.Image {
	return []*image.Image{vm.bootstrapImg, vm.libcImg}
}

// roots provides the collector's root set: statics, every frame's
// locals/stack/code body, and the compiled-method table. The slice is
// the VM's reused buffer, valid until the next call.
func (vm *VM) roots() []*gc.Object {
	out := vm.rootBuf[:0]
	for i := range vm.statics {
		if r := vm.statics[i].R; r != nil {
			out = append(out, r)
		}
	}
	for _, th := range vm.threads {
		for fi := range th.frames {
			f := &th.frames[fi]
			out = append(out, f.body.Obj)
			for i := range f.locals {
				if r := f.locals[i].R; r != nil {
					out = append(out, r)
				}
			}
			for i := range f.stack {
				if r := f.stack[i].R; r != nil {
					out = append(out, r)
				}
			}
		}
	}
	for _, b := range vm.bodies {
		if b != nil {
			out = append(out, b.Obj)
		}
	}
	vm.rootBuf = out
	return out
}

// work executes ops micro-ops of the given VM service at boot-image
// symbols, in user mode, with a sprinkling of memory traffic over the
// scratch working set.
func (vm *VM) work(svc ServiceID, ops int) {
	vm.workMem(svc, ops, vm.scratch, vm.scratchLen)
}

// workMem is work with an explicit memory working set (the collector
// passes the heap so GC traffic has GC locality). The op stream is cut
// into wrap-free segments and executed through cpu.Core.ExecScatter:
// the scattered memory operands are resolved upfront by one pass of
// cache probes (cache.Hierarchy.DataBatch) and the event-free stretches
// between misses retire in bulk — bit-for-bit what the old per-op
// stream produced, without a precise fallback at every scattered
// operand.
func (vm *VM) workMem(svc ServiceID, ops int, memBase addr.Address, memLen uint64) {
	vm.workScatter(svc, ops, memBase, memLen, false)
}

// workMemSeq is workMem with sequential memory traffic: the mem ops
// walk the working set in address order (one word per op), the access
// pattern of the collector's semispace copy loop.
func (vm *VM) workMemSeq(svc ServiceID, ops int, memBase addr.Address, memLen uint64) {
	vm.workScatter(svc, ops, memBase, memLen, true)
}

func (vm *VM) workScatter(svc ServiceID, ops int, memBase addr.Address, memLen uint64, seq bool) {
	ranges := vm.svcPCs[svc]
	if len(ranges) == 0 {
		return
	}
	core := vm.m.CPU()
	for ops > 0 {
		r := ranges[vm.svcCursor[svc]%len(ranges)]
		vm.svcCursor[svc]++
		chunk := r.weight * 12
		if chunk > ops {
			chunk = ops
		}
		pc := r.start
		for rem := chunk; rem > 0; {
			// One wrap-free segment: ops at pc, pc+4, ... below r.end.
			span := rem
			stride := uint32(4)
			if r.end > pc+4 {
				if s := int((uint64(r.end-pc) + 3) / 4); s < span {
					span = s
				}
			} else {
				stride = 0 // degenerate range: every op executes at pc
			}
			buf := vm.scatterBuf[:0]
			for i := 0; i < span; i++ {
				vm.memTick++
				var mem addr.Address
				if vm.memTick%6 == 0 && memLen > 0 {
					if seq {
						// The sequential sweep is the collector's
						// semispace copy.
						mem = memBase + addr.Address((vm.copyTick*8)%memLen)
						vm.copyTick++
					} else {
						mem = memBase + addr.Address((vm.memTick*88)%memLen)
					}
				}
				buf = append(buf, mem)
			}
			vm.scatterBuf = buf
			core.ExecScatter(pc, stride, 1, buf)
			if stride != 0 {
				pc += addr.Address(4 * span)
				if pc >= r.end {
					pc = r.start
				}
			}
			rem -= span
		}
		ops -= chunk
	}
}

// gcWork charges collector phases to the GC service symbols, walking
// heap addresses so collections disturb the caches realistically.
func (vm *VM) gcWork(phase string, units int) {
	lo, hi := vm.heap.Bounds()
	switch phase {
	case "trace":
		vm.workMem(SvcGCTrace, units*3, lo, uint64(hi-lo))
	case "copy":
		// Semispace copy is a sequential sweep of the live data, not a
		// scatter: walk the heap in address order so the traffic has
		// copy locality (and batches as a guaranteed-hit stream).
		vm.workMemSeq(SvcGCCopy, units*2, lo, uint64(hi-lo))
	case "alloc":
		// Allocation's fast path is charged at the New/NewArray opcode.
	}
}

// faultIn demand-pages the span [start, start+size), which lies inside
// the heap mapping: each page touched for the first time costs a minor
// fault.
func (vm *VM) faultIn(start addr.Address, size uint32) {
	for page := start >> 12; page <= (start+addr.Address(size)-1)>>12; page++ {
		i := page - vm.heapPage0
		if w, bit := i/64, uint64(1)<<(i%64); vm.touchedPages[w]&bit == 0 {
			vm.touchedPages[w] |= bit
			vm.m.Kern.PageFault(vm.proc)
		}
	}
}

// ensureCompiled returns the method's current body, classloading and
// baseline-compiling on first use.
func (vm *VM) ensureCompiled(mi int) (*jit.CodeBody, error) {
	if b := vm.bodies[mi]; b != nil {
		return b, nil
	}
	meth := vm.prog.Methods[mi]
	if !vm.loaded[meth.Class] {
		vm.loaded[meth.Class] = true
		vm.work(SvcClassload, 900+15*len(meth.Code))
	}
	vm.work(SvcBaseCompile, jit.CompileCostOps(meth, jit.Baseline))
	body, err := jit.Compile(vm.heap, meth, jit.Baseline)
	if err != nil {
		return nil, err
	}
	vm.faultIn(body.Obj.Addr, body.Obj.Size)
	vm.bodies[mi] = body
	vm.stats.BaselineCompiles++
	if vm.cfg.Agent != nil {
		vm.cfg.Agent.OnCompile(body, vm.heap.Epoch())
	}
	return body, nil
}

// promote recompiles a hot method with the optimizing compiler; future
// invocations use the new body (no on-stack replacement).
func (vm *VM) promote(mi int) error {
	meth := vm.prog.Methods[mi]
	vm.work(SvcOptCompile, jit.CompileCostOps(meth, jit.Opt))
	body, err := jit.Compile(vm.heap, meth, jit.Opt)
	if err != nil {
		return err
	}
	vm.faultIn(body.Obj.Addr, body.Obj.Size)
	vm.bodies[mi] = body
	vm.invalidateTraces(mi)
	vm.stats.OptCompiles++
	if vm.cfg.Agent != nil {
		vm.cfg.Agent.OnCompile(body, vm.heap.Epoch())
	}
	return nil
}
