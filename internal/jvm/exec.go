package jvm

import (
	"fmt"

	"viprof/internal/addr"
	"viprof/internal/jvm/bytecode"
	"viprof/internal/jvm/classes"
	"viprof/internal/jvm/gc"
	"viprof/internal/jvm/jit"
	"viprof/internal/kernel"
)

// Step implements kernel.Executor: the VM runs bytecode (as compiled
// code) until the scheduling slice expires or the program finishes.
func (vm *VM) Step(m *kernel.Machine, p *kernel.Process) kernel.StepResult {
	core := m.CPU()
	if vm.finished || vm.err != nil {
		return kernel.StepExit
	}
	if !vm.started {
		vm.startup()
		if vm.err != nil {
			return kernel.StepExit
		}
	}
	for !core.Expired() {
		if !vm.scheduleThread() {
			vm.shutdown()
			return kernel.StepExit
		}
		if err := vm.stepTraced(); err != nil {
			vm.err = err
			vm.shutdown()
			return kernel.StepExit
		}
	}
	return kernel.StepYield
}

// scheduleThread ensures vm.cur points at a live thread, rotating at
// yieldpoints (VM_Thread.yieldpoint in the boot image) when the
// quantum expires and another thread is runnable. It reports false
// when every thread has finished.
func (vm *VM) scheduleThread() bool {
	n := len(vm.threads)
	if n == 0 {
		return false
	}
	rotate := vm.sinceYield >= vm.cfg.YieldQuantum
	if rotate {
		vm.sinceYield = 0
	}
	if !rotate && vm.threads[vm.cur].alive() {
		return true
	}
	start := vm.cur
	if rotate {
		start = (vm.cur + 1) % n
	}
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if vm.threads[idx].alive() {
			if idx != vm.cur || rotate {
				// Yieldpoint + thread switch inside the VM.
				vm.work(SvcScheduler, 60)
			}
			vm.cur = idx
			return true
		}
	}
	return false
}

// startup runs the C bootstrap loader and VM boot sequence, then
// invokes main.
func (vm *VM) startup() {
	vm.started = true
	// Bootstrap: the small C loader mmaps the boot image.
	if sym, ok := vm.bootstrapImg.Lookup("loadBootImage"); ok {
		pc := vm.bootstrapBase + sym.Off
		vm.m.CPU().ExecBatch(pc, 1500, 4, 1)
	}
	// VM.boot: scheduler and runtime initialization.
	vm.work(SvcStartup, 12_000)
	body, err := vm.ensureCompiled(vm.prog.Main)
	if err != nil {
		vm.err = err
		return
	}
	main := vm.prog.Methods[vm.prog.Main]
	vm.threads = append(vm.threads, &vmThread{id: 0, frames: []frame{{
		body:   body,
		locals: make([]Value, main.MaxLocals),
		stack:  make([]Value, 0, 16),
	}}})
}

// shutdown finalizes the VM: the agent writes its last code map, the
// JIT region is deregistered, and the process exits.
func (vm *VM) shutdown() {
	if vm.err == nil {
		vm.finished = true
	}
	vm.work(SvcScheduler, 800)
	if vm.cfg.Agent != nil {
		vm.cfg.Agent.OnExit(vm.heap.Epoch())
	}
	if vm.cfg.Registry != nil {
		vm.cfg.Registry.UnregisterJIT(vm.proc.PID)
	}
	// A finished VM pins no dead objects through its host-side buffers.
	vm.heap.Release()
	vm.rootBuf = nil
}

// runtimeError builds a VM runtime error with source context.
func (vm *VM) runtimeError(f *frame, format string, args ...interface{}) error {
	loc := fmt.Sprintf("%s@%d", f.body.Method.Signature(), f.pc)
	return fmt.Errorf("jvm: %s: %s", loc, fmt.Sprintf(format, args...))
}

// stepInstr executes one bytecode of the top frame: it pops/pushes
// operand-stack values (the functional effect) and emits one machine
// micro-op at the compiled body's PC (the architectural effect).
func (vm *VM) stepInstr() error {
	th := vm.threads[vm.cur]
	f := &th.frames[len(th.frames)-1]
	vm.sinceYield++
	meth := f.body.Method
	if f.pc < 0 || f.pc >= len(meth.Code) {
		return vm.runtimeError(f, "pc out of range")
	}
	in := meth.Code[f.pc]
	level := f.body.Level
	cost := jit.OpCost(in.Op, level)
	var mem addr.Address
	nextPC := f.pc + 1
	vm.stats.BytecodesRun++

	// Stack helpers over the frame's slice.
	push := func(v Value) { f.stack = append(f.stack, v) }
	pop := func() (Value, bool) {
		if len(f.stack) == 0 {
			return Value{}, false
		}
		v := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		return v, true
	}
	pop2 := func() (a, b Value, ok bool) {
		b, ok1 := pop()
		a, ok2 := pop()
		return a, b, ok1 && ok2
	}
	underflow := func() error { return vm.runtimeError(f, "operand stack underflow on %s", in) }

	switch in.Op {
	case bytecode.Nop:

	case bytecode.Const:
		push(Value{I: int64(in.A)})
	case bytecode.Load:
		push(f.locals[in.A])
	case bytecode.Store:
		v, ok := pop()
		if !ok {
			return underflow()
		}
		f.locals[in.A] = v
	case bytecode.Dup:
		if len(f.stack) == 0 {
			return underflow()
		}
		push(f.stack[len(f.stack)-1])
	case bytecode.Pop:
		if _, ok := pop(); !ok {
			return underflow()
		}

	case bytecode.Add, bytecode.Sub, bytecode.Mul, bytecode.Div, bytecode.Mod,
		bytecode.And, bytecode.Or, bytecode.Xor, bytecode.Shl, bytecode.Shr:
		a, b, ok := pop2()
		if !ok {
			return underflow()
		}
		var r int64
		switch in.Op {
		case bytecode.Add:
			r = a.I + b.I
		case bytecode.Sub:
			r = a.I - b.I
		case bytecode.Mul:
			r = a.I * b.I
		case bytecode.Div:
			if b.I == 0 {
				return vm.runtimeError(f, "ArithmeticException: / by zero")
			}
			r = a.I / b.I
		case bytecode.Mod:
			if b.I == 0 {
				return vm.runtimeError(f, "ArithmeticException: %% by zero")
			}
			r = a.I % b.I
		case bytecode.And:
			r = a.I & b.I
		case bytecode.Or:
			r = a.I | b.I
		case bytecode.Xor:
			r = a.I ^ b.I
		case bytecode.Shl:
			r = a.I << (uint64(b.I) & 63)
		case bytecode.Shr:
			r = a.I >> (uint64(b.I) & 63)
		}
		push(Value{I: r})
	case bytecode.Neg:
		v, ok := pop()
		if !ok {
			return underflow()
		}
		push(Value{I: -v.I})

	case bytecode.CmpLT, bytecode.CmpLE, bytecode.CmpEQ, bytecode.CmpNE,
		bytecode.CmpGT, bytecode.CmpGE:
		a, b, ok := pop2()
		if !ok {
			return underflow()
		}
		var r bool
		switch in.Op {
		case bytecode.CmpLT:
			r = a.I < b.I
		case bytecode.CmpLE:
			r = a.I <= b.I
		case bytecode.CmpEQ:
			r = a.I == b.I
		case bytecode.CmpNE:
			r = a.I != b.I
		case bytecode.CmpGT:
			r = a.I > b.I
		case bytecode.CmpGE:
			r = a.I >= b.I
		}
		var v int64
		if r {
			v = 1
		}
		push(Value{I: v})

	case bytecode.Jmp:
		nextPC = int(in.A)
		if nextPC <= f.pc {
			vm.backEdge(meth)
			vm.noteAnchor(f, nextPC)
		}
	case bytecode.JmpZ, bytecode.JmpNZ:
		v, ok := pop()
		if !ok {
			return underflow()
		}
		taken := (v.I == 0) == (in.Op == bytecode.JmpZ)
		if taken {
			nextPC = int(in.A)
			if nextPC <= f.pc {
				vm.backEdge(meth)
				vm.noteAnchor(f, nextPC)
			}
		}

	case bytecode.Call:
		return vm.doCall(th, f, in, cost)

	case bytecode.Spawn:
		return vm.doSpawn(th, f, in, cost)

	case bytecode.Ret, bytecode.RetVoid:
		var rv Value
		if in.Op == bytecode.Ret {
			v, ok := pop()
			if !ok {
				return underflow()
			}
			rv = v
		}
		vm.m.CPU().BatchOp(f.body.PC(f.pc), cost)
		th.frames = th.frames[:len(th.frames)-1]
		if len(th.frames) > 0 && in.Op == bytecode.Ret {
			caller := &th.frames[len(th.frames)-1]
			caller.stack = append(caller.stack, rv)
		}
		return nil

	case bytecode.New:
		vm.work(SvcRuntime, 3) // allocation fast path
		obj, err := vm.heap.Alloc(gc.KindData, uint32((in.A+in.B)*8), int(in.A), int(in.B))
		if err != nil {
			return vm.runtimeError(f, "OutOfMemoryError: %v", err)
		}
		vm.faultIn(obj.Addr, obj.Size)
		mem = obj.Addr
		push(Value{R: obj})
	case bytecode.NewArray:
		v, ok := pop()
		if !ok {
			return underflow()
		}
		n := v.I
		if n < 0 || n > 1<<20 {
			return vm.runtimeError(f, "NegativeArraySizeException or oversized array: %d", n)
		}
		vm.work(SvcRuntime, 3)
		var obj *gc.Object
		var err error
		if in.B != 0 {
			obj, err = vm.heap.Alloc(gc.KindArray, uint32(n*8), int(n), 0)
		} else {
			obj, err = vm.heap.Alloc(gc.KindArray, uint32(n)*uint32(in.A), 0, int(n))
		}
		if err != nil {
			return vm.runtimeError(f, "OutOfMemoryError: %v", err)
		}
		vm.faultIn(obj.Addr, obj.Size)
		mem = obj.Addr
		push(Value{R: obj})

	case bytecode.ALoad:
		ref, idx, ok := pop2()
		if !ok {
			return underflow()
		}
		o := ref.R
		if o == nil {
			return vm.runtimeError(f, "NullPointerException")
		}
		i := idx.I
		if len(o.Refs) > 0 {
			if i < 0 || int(i) >= len(o.Refs) {
				return vm.runtimeError(f, "ArrayIndexOutOfBoundsException: %d/%d", i, len(o.Refs))
			}
			mem = o.FieldAddr(int(i))
			push(Value{R: o.Refs[i]})
		} else {
			if i < 0 || int(i) >= len(o.Scalars) {
				return vm.runtimeError(f, "ArrayIndexOutOfBoundsException: %d/%d", i, len(o.Scalars))
			}
			mem = o.FieldAddr(int(i))
			push(Value{I: o.Scalars[i]})
		}
	case bytecode.AStore:
		val, ok0 := pop()
		idx, ok1 := pop()
		ref, ok2 := pop()
		if !ok0 || !ok1 || !ok2 {
			return underflow()
		}
		o := ref.R
		if o == nil {
			return vm.runtimeError(f, "NullPointerException")
		}
		i := idx.I
		if len(o.Refs) > 0 {
			if i < 0 || int(i) >= len(o.Refs) {
				return vm.runtimeError(f, "ArrayIndexOutOfBoundsException: %d/%d", i, len(o.Refs))
			}
			o.Refs[i] = val.R
		} else {
			if i < 0 || int(i) >= len(o.Scalars) {
				return vm.runtimeError(f, "ArrayIndexOutOfBoundsException: %d/%d", i, len(o.Scalars))
			}
			o.Scalars[i] = val.I
		}
		mem = o.FieldAddr(int(i))
	case bytecode.ArrayLen:
		ref, ok := pop()
		if !ok {
			return underflow()
		}
		if ref.R == nil {
			return vm.runtimeError(f, "NullPointerException")
		}
		n := len(ref.R.Scalars)
		if len(ref.R.Refs) > 0 {
			n = len(ref.R.Refs)
		}
		push(Value{I: int64(n)})

	case bytecode.GetField:
		ref, ok := pop()
		if !ok {
			return underflow()
		}
		o := ref.R
		if o == nil {
			return vm.runtimeError(f, "NullPointerException")
		}
		if int(in.A) >= len(o.Scalars) {
			return vm.runtimeError(f, "bad scalar field %d", in.A)
		}
		mem = o.FieldAddr(int(in.A))
		push(Value{I: o.Scalars[in.A]})
	case bytecode.PutField:
		val, ok0 := pop()
		ref, ok1 := pop()
		if !ok0 || !ok1 {
			return underflow()
		}
		o := ref.R
		if o == nil {
			return vm.runtimeError(f, "NullPointerException")
		}
		if int(in.A) >= len(o.Scalars) {
			return vm.runtimeError(f, "bad scalar field %d", in.A)
		}
		o.Scalars[in.A] = val.I
		mem = o.FieldAddr(int(in.A))

	case bytecode.GetRef:
		ref, ok := pop()
		if !ok {
			return underflow()
		}
		o := ref.R
		if o == nil {
			return vm.runtimeError(f, "NullPointerException")
		}
		if int(in.A) >= len(o.Refs) {
			return vm.runtimeError(f, "bad ref field %d", in.A)
		}
		mem = o.FieldAddr(int(in.A))
		push(Value{R: o.Refs[in.A]})
	case bytecode.PutRef:
		val, ok0 := pop()
		ref, ok1 := pop()
		if !ok0 || !ok1 {
			return underflow()
		}
		o := ref.R
		if o == nil {
			return vm.runtimeError(f, "NullPointerException")
		}
		if int(in.A) >= len(o.Refs) {
			return vm.runtimeError(f, "bad ref field %d", in.A)
		}
		o.Refs[in.A] = val.R
		mem = o.FieldAddr(int(in.A))

	case bytecode.GetStatic:
		mem = vm.staticsBase + addr.Address(in.A)*8
		push(vm.statics[in.A])
	case bytecode.PutStatic:
		v, ok := pop()
		if !ok {
			return underflow()
		}
		mem = vm.staticsBase + addr.Address(in.A)*8
		vm.statics[in.A] = v

	case bytecode.Intrinsic:
		if err := vm.intrinsic(f, in); err != nil {
			return err
		}

	default:
		return vm.runtimeError(f, "unimplemented opcode %s", in.Op)
	}

	// All straight-line bytecodes stream through the batched engine:
	// no-memory ops accumulate as before, memory ops (loads and stores
	// alike) accumulate when their access is provably a plain hit and
	// take the precise path otherwise (cache probes and miss events
	// happen in exact sequence either way).
	if mem == 0 {
		vm.m.CPU().BatchOp(f.body.PC(f.pc), cost)
	} else {
		vm.m.CPU().BatchMemOp(f.body.PC(f.pc), cost, mem)
	}
	f.pc = nextPC
	return nil
}

// doCall handles the Call opcode: resolve, maybe compile/promote, push
// the callee frame.
func (vm *VM) doCall(th *vmThread, f *frame, in bytecode.Instr, cost uint32) error {
	if len(th.frames) >= vm.cfg.MaxCallDepth {
		return vm.runtimeError(f, "StackOverflowError at depth %d", len(th.frames))
	}
	callee := vm.prog.Methods[in.A]
	body, err := vm.ensureCompiled(int(in.A))
	if err != nil {
		return vm.runtimeError(f, "compiling %s: %v", callee.Signature(), err)
	}
	if vm.aosSys.OnInvoke(callee) {
		if err := vm.promote(int(in.A)); err != nil {
			return vm.runtimeError(f, "recompiling %s: %v", callee.Signature(), err)
		}
		body = vm.bodies[in.A]
	}
	if len(f.stack) < callee.NArgs {
		return vm.runtimeError(f, "operand stack underflow calling %s", callee.Signature())
	}
	// The slot above the top frame still holds the arrays of the frame
	// last popped from it; nothing else refers to them, so the callee
	// takes them over, cleared, when they are large enough.
	var old frame
	if n := len(th.frames); n < cap(th.frames) {
		old = th.frames[:n+1][n]
	}
	locals := old.locals[:0]
	if cap(locals) >= callee.MaxLocals {
		locals = locals[:callee.MaxLocals]
		clear(locals)
	} else {
		locals = make([]Value, callee.MaxLocals)
	}
	stack := old.stack[:0]
	if cap(stack) >= 16 {
		clear(stack[:cap(stack)])
	} else {
		stack = make([]Value, 0, 16)
	}
	base := len(f.stack) - callee.NArgs
	copy(locals, f.stack[base:])
	f.stack = f.stack[:base]

	// The call instruction executes in the caller, then control enters
	// the callee prologue.
	vm.m.CPU().BatchOp(f.body.PC(f.pc), cost)
	f.pc++ // return continues after the call

	th.frames = append(th.frames, frame{
		body:   body,
		locals: locals,
		stack:  stack,
	})
	return nil
}

// doSpawn handles the Spawn opcode: like a call, but the callee frame
// becomes the root of a brand-new VM thread.
func (vm *VM) doSpawn(th *vmThread, f *frame, in bytecode.Instr, cost uint32) error {
	callee := vm.prog.Methods[in.A]
	body, err := vm.ensureCompiled(int(in.A))
	if err != nil {
		return vm.runtimeError(f, "compiling %s: %v", callee.Signature(), err)
	}
	if vm.aosSys.OnInvoke(callee) {
		if err := vm.promote(int(in.A)); err != nil {
			return vm.runtimeError(f, "recompiling %s: %v", callee.Signature(), err)
		}
		body = vm.bodies[in.A]
	}
	if len(f.stack) < callee.NArgs {
		return vm.runtimeError(f, "operand stack underflow spawning %s", callee.Signature())
	}
	locals := make([]Value, callee.MaxLocals)
	base := len(f.stack) - callee.NArgs
	copy(locals, f.stack[base:])
	f.stack = f.stack[:base]

	vm.m.CPU().BatchOp(f.body.PC(f.pc), cost)
	f.pc++
	// Thread creation is a VM service (stack setup, scheduler insert).
	vm.work(SvcScheduler, 300)
	vm.stats.ThreadsSpawned++
	vm.threads = append(vm.threads, &vmThread{
		id: len(vm.threads),
		frames: []frame{{
			body:   body,
			locals: locals,
			stack:  make([]Value, 0, 16),
		}},
	})
	return nil
}

// CallStackPCs returns the machine PCs of the caller frames below the
// currently executing one, innermost first — the VM-side stack walk the
// VIProf call-graph extension samples. Each caller's PC points at its
// call site.
func (vm *VM) CallStackPCs(max int) []addr.Address {
	if len(vm.threads) == 0 || max <= 0 {
		return nil
	}
	th := vm.threads[vm.cur]
	if len(th.frames) < 2 {
		return nil
	}
	out := make([]addr.Address, 0, max)
	for i := len(th.frames) - 2; i >= 0 && len(out) < max; i-- {
		f := &th.frames[i]
		pc := f.pc - 1 // doCall advances past the call instruction
		if pc < 0 {
			pc = 0
		}
		out = append(out, f.body.PC(pc))
	}
	return out
}

// backEdge reports a taken loop back-edge to the adaptive system and
// promotes the method when it crosses the hotness threshold.
func (vm *VM) backEdge(meth *classes.Method) {
	if vm.aosSys.OnBackEdge(meth, 1) {
		vm.promoteOSR(meth)
	}
}

// promoteOSR recompiles a method at the optimizing level and — as Jikes
// RVM's OSR machinery does — replaces the method's body in every frame
// currently running it, so a hot loop benefits immediately.
func (vm *VM) promoteOSR(meth *classes.Method) {
	if err := vm.promote(meth.Index); err != nil {
		vm.err = err
		return
	}
	if vm.cfg.DisableOSR {
		return
	}
	// On-stack replacement: frame PCs are bytecode indexes, so they
	// remain valid across body layouts; the specialization work is
	// charged at the boot image's OSR symbols (via the opt-compile
	// service group, which includes them).
	newBody := vm.bodies[meth.Index]
	replaced := 0
	for _, th := range vm.threads {
		for fi := range th.frames {
			if th.frames[fi].body.Method == meth && th.frames[fi].body != newBody {
				th.frames[fi].body = newBody
				replaced++
			}
		}
	}
	if replaced > 0 {
		vm.work(SvcOptCompile, 500+200*replaced)
		vm.stats.OSRs += replaced
	}
}
