package jvm

import (
	"viprof/internal/addr"
	"viprof/internal/jvm/bytecode"
)

// Intrinsics are the VM's native runtime services: calls that leave JIT
// code and execute in libc or the kernel. They give profiles their
// native rows — Figure 1 of the paper shows libc memset costing 0.8% of
// time but a large share of L2 misses during the ps benchmark.

// libcRange returns the absolute address range of a libc symbol.
func (vm *VM) libcRange(name string) (start, end addr.Address) {
	sym, ok := vm.libcImg.Lookup(name)
	if !ok {
		// Construction guarantees the symbols exist; fall back to the
		// image base so a typo cannot crash a run.
		return vm.libcBase, vm.libcBase + 64
	}
	return vm.libcBase + sym.Off, vm.libcBase + sym.Off + addr.Address(sym.Size)
}

// execNative runs n micro-ops walking a libc symbol, touching memory
// every memEvery ops starting at memBase with the given stride.
func (vm *VM) execNative(symbol string, n int, memBase addr.Address, stride uint64, memEvery int) {
	start, end := vm.libcRange(symbol)
	pc := start
	core := vm.m.CPU()
	if memEvery == 1 && memBase != 0 {
		// Pure data run (memset-style fill): every op touches memory at
		// a uniform stride — the bulk cache-replay path, one PC-wrap
		// segment at a time.
		vm.memRun(pc, start, end, n, memBase, uint32(stride))
		return
	}
	var memOff uint64
	for i := 0; i < n; i++ {
		if memEvery > 0 && i%memEvery == 0 && memBase != 0 {
			mem := memBase + addr.Address(memOff)
			memOff += stride
			core.BatchMemOp(pc, 1, mem)
		} else {
			core.BatchOp(pc, 1)
		}
		pc += 4
		if pc >= end {
			pc = start
		}
	}
}

// memRun retires n cost-1 micro-ops walking PCs through [start,end)
// from pc (wrapping), each touching memory at mem, mem+memStride, ...
// through the core's bulk cache-replay path. It returns the PC after
// the run, for callers that keep walking the same symbol.
func (vm *VM) memRun(pc, start, end addr.Address, n int, mem addr.Address, memStride uint32) addr.Address {
	core := vm.m.CPU()
	for n > 0 {
		seg := int((end - pc + 3) / 4)
		if seg > n {
			seg = n
		}
		core.ExecMemBatch(pc, seg, 4, 1, mem, memStride)
		mem += addr.Address(uint64(seg) * uint64(memStride))
		n -= seg
		pc += 4 * addr.Address(seg)
		if pc >= end {
			pc = start
		}
	}
	return pc
}

const maxMemsetBytes = 64 << 10

// intrinsic executes the Intrinsic opcode of the current frame. The
// instruction's own machine op is emitted by the caller; this method
// performs the native-side work.
func (vm *VM) intrinsic(f *frame, in bytecode.Instr) error {
	pop := func() (Value, bool) {
		if len(f.stack) == 0 {
			return Value{}, false
		}
		v := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		return v, true
	}
	switch bytecode.IntrinsicID(in.A) {
	case bytecode.IntrMemset:
		v, ok := pop()
		if !ok {
			return vm.runtimeError(f, "memset: missing length")
		}
		n := v.I
		if n < 0 {
			n = 0
		}
		if n > maxMemsetBytes {
			n = maxMemsetBytes
		}
		// One op per 16 bytes set, every op stores.
		vm.execNative("memset", int(n/16)+4, vm.scratch, 16, 1)

	case bytecode.IntrArrayCopy:
		lv, ok0 := pop()
		dst, ok1 := pop()
		src, ok2 := pop()
		if !ok0 || !ok1 || !ok2 {
			return vm.runtimeError(f, "arraycopy: missing operands")
		}
		if src.R == nil || dst.R == nil {
			return vm.runtimeError(f, "arraycopy: NullPointerException")
		}
		n := int(lv.I)
		sn, dn := len(src.R.Scalars), len(dst.R.Scalars)
		if len(src.R.Refs) > 0 {
			sn = len(src.R.Refs)
		}
		if len(dst.R.Refs) > 0 {
			dn = len(dst.R.Refs)
		}
		if n > sn {
			n = sn
		}
		if n > dn {
			n = dn
		}
		if n < 0 {
			n = 0
		}
		// Functional copy for scalar arrays (ref arrays copy refs).
		if len(src.R.Refs) > 0 && len(dst.R.Refs) > 0 {
			copy(dst.R.Refs[:n], src.R.Refs[:n])
		} else if len(src.R.Scalars) > 0 && len(dst.R.Scalars) > 0 {
			copy(dst.R.Scalars[:n], src.R.Scalars[:n])
		}
		// Reads from src and writes to dst, one op per element, copied
		// block-wise the way an unrolled memcpy streams: per block, a
		// read run over the source then a write run over the
		// destination (each a strided guaranteed-hit stream the bulk
		// cache-replay path retires line by line). The block is large —
		// real memcpy kernels stream whole pages — so the per-run setup
		// cost of the batched replay amortizes over many lines.
		start, end := vm.libcRange("memcpy")
		pc := start
		const copyBlock = 128
		for base := 0; base < n; base += copyBlock {
			bn := copyBlock
			if n-base < bn {
				bn = n - base
			}
			sn := (bn + 1) / 2 // ops that read src fields base, base+2, ...
			dn := bn / 2       // ops that write dst fields base+1, base+3, ...
			pc = vm.memRun(pc, start, end, sn, src.R.FieldAddr(base), 16)
			if dn > 0 {
				pc = vm.memRun(pc, start, end, dn, dst.R.FieldAddr(base+1), 16)
			}
		}

	case bytecode.IntrWrite:
		v, ok := pop()
		if !ok {
			return vm.runtimeError(f, "write: missing length")
		}
		n := v.I
		if n < 0 {
			n = 0
		}
		if n > 256 {
			n = 256
		}
		vm.execNative("write", 12, 0, 0, 0)
		// Simulated guest stdout: the workload's own write(2) failing
		// models a full disk for the guest, not for the profiler — no
		// profile artifact depends on jikesrvm.out landing.
		//viplint:allow errflow guest stdout, not a profile artifact
		vm.m.Kern.SysWrite(vm.proc, "jikesrvm.out", vm.ioPayload(int(n))) //viplint:allow record-frame guest stdout, not a profiler artifact

	case bytecode.IntrCurrentTime:
		vm.execNative("gettimeofday", 8, 0, 0, 0)
		f.stack = append(f.stack, Value{I: int64(vm.m.CPU().Cycles())})

	default:
		return vm.runtimeError(f, "unknown intrinsic %d", in.A)
	}
	return nil
}

// ioPayload returns a reusable zero buffer of the requested size for
// simulated writes.
func (vm *VM) ioPayload(n int) []byte {
	if cap(vm.payload) < n {
		vm.payload = make([]byte, n)
	}
	return vm.payload[:n]
}
