package kernel

import (
	"fmt"

	"viprof/internal/addr"
	"viprof/internal/cpu"
	"viprof/internal/image"
)

// NewProcess creates a process with a fresh address space (kernel
// mappings included) and registers it with the scheduler as runnable.
func (k *Kernel) NewProcess(name string, exec Executor) (*Process, error) {
	sp := addr.NewSpace()
	for _, v := range k.kernSpace.All() {
		if err := sp.Map(v); err != nil {
			return nil, fmt.Errorf("kernel: mapping kernel into %s: %v", name, err)
		}
	}
	p := &Process{
		PID:       k.nextPID,
		Name:      name,
		Space:     sp,
		exec:      exec,
		state:     stateRunnable,
		cpu:       k.spawned % len(k.cores),
		libAlloc:  addr.NewAllocator(LibBase, HeapBase),
		userAlloc: addr.NewAllocator(UserBase, LibBase),
	}
	k.nextPID++
	k.spawned++
	k.procs = append(k.procs, p)
	return p, nil
}

// LoadImage maps an object file into the process at the next free slot
// of the appropriate region (user text for executables, library region
// for .so names) and returns its base address.
func (k *Kernel) LoadImage(p *Process, im *image.Image, lib bool) (addr.Address, error) {
	al := p.userAlloc
	if lib {
		al = p.libAlloc
	}
	base, err := al.Alloc(im.Size, 0x1000)
	if err != nil {
		return 0, fmt.Errorf("kernel: loading %s into %s: %v", im.Name, p.Name, err)
	}
	err = p.Space.Map(addr.VMA{
		Start: base,
		End:   base + addr.Address(im.Size),
		Image: im.Name,
		Prot:  addr.ProtRead | addr.ProtExec,
	})
	if err != nil {
		return 0, err
	}
	return base, nil
}

// anonPeriod is the largest index period of the default cache
// geometry: the L2's 512 sets of 128-byte lines, and the TLBs' 16 sets
// of 4 KiB pages. A range starting on it indexes every cache and TLB
// set exactly as one starting at HeapBase.
const anonPeriod = 64 << 10

// MapAnon maps size bytes of anonymous memory (heap) into the process
// and returns the base. Executable anonymous mappings are where JIT
// compilers put generated code — the regions OProfile cannot attribute.
//
// Anonymous memory is private, yet the caches and TLBs key lines by
// virtual address alone, so every process's mappings come from one
// machine-wide range and never overlap: no process hits, or evicts as
// its own, a line another process brought in. The first process to map
// gets the addresses it would get alone, and a process mapping right
// after a different one starts on an anonPeriod boundary, so a VM that
// maps its regions in one go (as jvm.Launch does) indexes the caches
// as if it ran alone. File-backed images keep shared addresses, which
// models page-cache sharing of read-only text.
func (k *Kernel) MapAnon(p *Process, size uint64, exec bool) (addr.Address, error) {
	align := uint64(0x1000)
	if k.anonPID != 0 && k.anonPID != p.PID {
		align = anonPeriod
	}
	base, err := k.anon.Alloc(size, align)
	if err != nil {
		return 0, fmt.Errorf("kernel: anon map %d bytes in %s: %v", size, p.Name, err)
	}
	k.anonPID = p.PID
	prot := addr.ProtRead | addr.ProtWrite
	if exec {
		prot |= addr.ProtExec
	}
	err = p.Space.Map(addr.VMA{Start: base, End: base + addr.Address(size), Prot: prot})
	if err != nil {
		return 0, err
	}
	return base, nil
}

// Process returns the process with the given PID.
func (k *Kernel) Process(pid int) (*Process, bool) {
	for _, p := range k.procs {
		if p.PID == pid {
			return p, true
		}
	}
	return nil, false
}

// Processes returns all processes.
func (k *Kernel) Processes() []*Process { return k.procs }

// ExecKernel executes n micro-ops of the named kernel symbol in kernel
// mode at the given per-op cost, walking PCs through the symbol's
// range. It is how all simulated kernel work is accounted. The walk is
// retired through the core's batched engine one wrap-around segment at
// a time (cpu.Core.ExecSymbol) — the PC sequence, and hence every
// sample and cache event, is identical to the per-op loop it replaces.
func (k *Kernel) ExecKernel(symbol string, n int, cost uint32) {
	k.ExecKernelMem(symbol, n, cost, 0, 0)
}

// ExecKernelMem is ExecKernel for kernel routines that stream over a
// buffer (copy_from_user and friends): every op carries a memory
// operand walking memStride bytes from mem (mem 0: none), retired
// through the core's bulk cache-replay path one wrap-around PC segment
// at a time. The miss sequence and every sample are identical to the
// per-op loop it stands for.
func (k *Kernel) ExecKernelMem(symbol string, n int, cost uint32, mem addr.Address, memStride uint32) {
	v, ok := k.kernSyms[symbol]
	if !ok {
		panic("kernel: exec of unknown kernel symbol " + symbol)
	}
	prev := k.core.Context()
	k.core.SetContext(cpu.Context{PID: prev.PID, Kernel: true})
	k.core.ExecSymbol(v.Start, v.Start, v.End, n, cost, mem, memStride)
	k.core.SetContext(prev)
}

// KernelLookup resolves a kernel-space address to the VMA of the kernel
// image or module containing it (profilers attribute kernel samples
// through this).
func (k *Kernel) KernelLookup(a addr.Address) (addr.VMA, bool) {
	return k.kernSpace.Lookup(a)
}

// KernelSymbol returns the absolute address range of a kernel or module
// symbol.
func (k *Kernel) KernelSymbol(name string) (addr.VMA, bool) {
	v, ok := k.kernSyms[name]
	return v, ok
}

// PageFault charges a minor-fault service (no disk: anonymous zero
// page) to the current context. The VM calls it the first time an
// allocation touches a fresh heap page, which is how do_page_fault and
// handle_mm_fault rows get into profiles.
func (k *Kernel) PageFault(p *Process) {
	k.ExecKernel("do_page_fault", 40, 1)
	k.ExecKernel("handle_mm_fault", 110, 1)
	k.faults++
}

// PageFaults returns the number of faults serviced.
func (k *Kernel) PageFaults() uint64 { return k.faults }

// Sleep blocks the process until the given number of cycles has passed.
// The executor must return StepBlocked after calling this.
func (k *Kernel) Sleep(p *Process, cycles uint64) {
	p.state = stateBlocked
	p.wakeAt = k.core.Cycles() + cycles
}

// Block parks the process until someone calls Wake. The executor must
// return StepBlocked after calling this.
func (k *Kernel) Block(p *Process) {
	p.state = stateBlocked
	p.wakeAt = ^uint64(0)
}

// Wake makes a blocked process runnable again. Killed processes stay
// dead: there is no resurrecting a crashed writer.
func (k *Kernel) Wake(p *Process) {
	if p.state == stateBlocked && !p.killed {
		p.state = stateRunnable
		p.wakeAt = 0
	}
}

// Kill marks the process crashed: its pending and future writes fail
// with ErrCrashed, it cannot be woken, and the scheduler reaps it at
// the end of its current slice (the executor may still be on the stack
// when Kill fires from inside one of its own syscalls, so the state
// flip is deferred to the scheduler rather than done here — otherwise
// a post-kill Sleep from the dying executor would overwrite it).
func (k *Kernel) Kill(p *Process) {
	if p == nil || p.state == stateDone {
		return
	}
	p.killed = true
}

// AddTicker registers fn to run (in whatever context the scheduler is
// in) every `period` cycles, checked at scheduling boundaries. The
// hypervisor layer uses this for VCPU slice exits; tests use it for
// periodic assertions.
func (k *Kernel) AddTicker(period uint64, fn func()) {
	if period == 0 {
		return
	}
	k.tickers = append(k.tickers, &ticker{period: period, next: k.core.Cycles() + period, fn: fn})
}

func (k *Kernel) runTickers() {
	now := k.core.Cycles()
	for _, t := range k.tickers {
		for t.next <= now {
			t.next += t.period
			t.fn()
		}
	}
}

// Run drives the multi-queue scheduler until every non-daemon process
// has exited or the cycle limit is hit (0 means no limit). It returns
// an error on limit overrun so runaway workloads fail loudly instead
// of hanging.
//
// Each iteration schedules the core with the least-advanced cycle
// clock (ties to the lowest CPU number), so the per-core clocks stay
// in near-lockstep and every simulated event has a deterministic
// global order for a fixed seed and core count. The chosen core runs
// the next runnable process of its own queue; an empty queue pulls
// work from the first victim queue holding at least two runnable
// processes (stealing a single runnable would just ping-pong it); a
// core with nothing to run or steal idles its clock past the next busy
// core's. On a single-core machine the iteration order — ticker
// firing, round-robin pick, slice jitter RNG draws, idle advancement —
// is exactly the pre-SMP loop's (RunLegacy is that loop, kept verbatim
// as the equivalence oracle).
func (k *Kernel) Run(maxCycles uint64) error {
	for {
		if !k.anyNonDaemonAlive() {
			return nil
		}
		ci := k.minClockCore()
		c := k.cores[ci]
		k.core = c
		if maxCycles > 0 && c.Cycles() > maxCycles {
			return fmt.Errorf("kernel: cycle limit %d exceeded at %d", maxCycles, c.Cycles())
		}
		k.runTickers()
		p := k.pickNextOn(ci)
		if p == nil {
			p = k.stealFor(ci)
		}
		if p == nil {
			if !k.anyRunnable() {
				// Everyone is blocked: idle until the earliest wakeup.
				next := k.earliestWake()
				if next == ^uint64(0) {
					return fmt.Errorf("kernel: deadlock — all processes blocked with no pending wakeup")
				}
				if next > c.Cycles() {
					c.AdvanceIdle(next - c.Cycles())
				}
				k.wakeExpired()
				continue
			}
			// Work exists, but on other queues and not stealable: idle
			// this core just past the next busy core's clock (it was the
			// minimum, so this always advances and the busy core becomes
			// the next minimum), or to the earliest wakeup if sooner.
			target := k.minBusyClock(ci) + 1
			if w := k.earliestWake(); w > c.Cycles() && w < target {
				target = w
			}
			c.AdvanceIdle(target - c.Cycles())
			k.wakeExpired()
			continue
		}
		k.switchTo(p)
		// Small jitter models timer-tick phase and other system noise
		// (paper §4.3 attributes sub-1% run variance to such noise).
		slice := k.Timeslice + uint64(k.rng.Intn(int(k.Timeslice/16)+1))
		c.StartSlice(slice)
		before := c.Cycles()
		res := p.exec.Step(k.m, p)
		// Close any batch the executor left open, so counter state is
		// current at every scheduler boundary (tickers, sleeps, stats).
		c.FlushBatch()
		p.cpuTime += c.Cycles() - before
		if p.killed {
			// Crashed mid-slice (an injected FaultCrash): reap it no
			// matter what the executor reported.
			p.state = stateDone
		} else {
			switch res {
			case StepExit:
				p.state = stateDone
			case StepBlocked:
				if p.state == stateRunnable {
					// Executor said blocked but never arranged a wakeup;
					// treat as a yield to avoid losing the process.
					break
				}
			case StepYield:
				// stays runnable
			}
		}
		k.wakeExpired()
	}
}

// RunLegacy is the pre-SMP single-queue scheduler loop, kept verbatim
// as the reference side of the N=1 equivalence oracle: on a one-core
// machine Run must produce bit-for-bit the same execution (cycles,
// samples, RNG draws, profile bytes) as this loop. It refuses
// multi-core machines.
func (k *Kernel) RunLegacy(maxCycles uint64) error {
	if len(k.cores) != 1 {
		return fmt.Errorf("kernel: RunLegacy on a %d-core machine", len(k.cores))
	}
	for {
		if !k.anyNonDaemonAlive() {
			return nil
		}
		if maxCycles > 0 && k.core.Cycles() > maxCycles {
			return fmt.Errorf("kernel: cycle limit %d exceeded at %d", maxCycles, k.core.Cycles())
		}
		k.runTickers()
		p := k.pickNextLegacy()
		if p == nil {
			next := k.earliestWake()
			if next == ^uint64(0) {
				return fmt.Errorf("kernel: deadlock — all processes blocked with no pending wakeup")
			}
			if next > k.core.Cycles() {
				k.core.AdvanceIdle(next - k.core.Cycles())
			}
			k.wakeExpired()
			continue
		}
		k.switchTo(p)
		slice := k.Timeslice + uint64(k.rng.Intn(int(k.Timeslice/16)+1))
		k.core.StartSlice(slice)
		before := k.core.Cycles()
		res := p.exec.Step(k.m, p)
		k.core.FlushBatch()
		p.cpuTime += k.core.Cycles() - before
		if p.killed {
			p.state = stateDone
		} else {
			switch res {
			case StepExit:
				p.state = stateDone
			case StepBlocked:
				if p.state == stateRunnable {
					break
				}
			case StepYield:
			}
		}
		k.wakeExpired()
	}
}

// switchTo performs a context switch to p on the scheduling core,
// charging its cost and disturbing that core's L1 (a newly scheduled
// process sees a cold private cache). Per-core warm-cache ownership is
// tracked in currents: re-running the same process on the same core
// charges nothing, exactly the pre-SMP behavior on one core.
//
// The TLBs are not flushed: they behave as tagged TLBs, keeping each
// process's entries across switches. Processes' anonymous ranges are
// disjoint (MapAnon), so no entry translates another process's private
// page. A Pentium 4 has no tags and flushes at each CR3 switch; the
// simplification keeps single-core cycle counts, and Figures 2 and 3,
// where they are.
func (k *Kernel) switchTo(p *Process) {
	ci := p.cpu
	if k.currents[ci] != p {
		k.ctxSwitches++
		k.core.SetContext(cpu.Context{PID: 0, Kernel: true})
		k.ExecKernel("schedule", int(k.SwitchCost/2), 1)
		k.ExecKernel("__switch_to", int(k.SwitchCost/2), 1)
		if k.core.Mem != nil && k.currents[ci] != nil {
			k.core.Mem.L1.Flush()
		}
		k.currents[ci] = p
	}
	k.current = p
	k.core.SetContext(cpu.Context{PID: p.PID, Kernel: false})
}

func (k *Kernel) anyNonDaemonAlive() bool {
	for _, p := range k.procs {
		if !p.Daemon && p.state != stateDone {
			return true
		}
	}
	return false
}

// minClockCore returns the core with the least-advanced cycle clock,
// ties to the lowest CPU number.
func (k *Kernel) minClockCore() int {
	ci := 0
	min := k.cores[0].Cycles()
	for i := 1; i < len(k.cores); i++ {
		if c := k.cores[i].Cycles(); c < min {
			min, ci = c, i
		}
	}
	return ci
}

// minBusyClock returns the smallest cycle clock among cores other than
// ci whose queues hold runnable work. Callers guarantee one exists
// (anyRunnable and an empty queue on ci).
func (k *Kernel) minBusyClock(ci int) uint64 {
	min := ^uint64(0)
	for i, c := range k.cores {
		if i == ci {
			continue
		}
		if k.hasRunnable(i) && c.Cycles() < min {
			min = c.Cycles()
		}
	}
	return min
}

func (k *Kernel) hasRunnable(ci int) bool {
	for _, p := range k.procs {
		if p.cpu == ci && p.state == stateRunnable {
			return true
		}
	}
	return false
}

func (k *Kernel) anyRunnable() bool {
	for _, p := range k.procs {
		if p.state == stateRunnable {
			return true
		}
	}
	return false
}

// pickNextOn returns the next runnable process of core ci's queue,
// round-robin starting after the process the core last ran.
func (k *Kernel) pickNextOn(ci int) *Process {
	start := 0
	if cur := k.currents[ci]; cur != nil {
		for i, p := range k.procs {
			if p == cur {
				start = i + 1
				break
			}
		}
	}
	n := len(k.procs)
	for i := 0; i < n; i++ {
		p := k.procs[(start+i)%n]
		if p.cpu == ci && p.state == stateRunnable {
			return p
		}
	}
	return nil
}

// pickNextLegacy is the pre-SMP single-queue pick, used by RunLegacy.
func (k *Kernel) pickNextLegacy() *Process {
	// Round-robin starting after the current process.
	start := 0
	for i, p := range k.procs {
		if p == k.current {
			start = i + 1
			break
		}
	}
	n := len(k.procs)
	for i := 0; i < n; i++ {
		p := k.procs[(start+i)%n]
		if p.state == stateRunnable {
			return p
		}
	}
	return nil
}

// Pin fixes the process to core ci's run queue (sched_setaffinity with
// a single-CPU mask): placement moves immediately and the work stealer
// will never migrate it. The core index wraps, so callers can pin
// shard i of a service to core i without knowing the core count.
func (k *Kernel) Pin(p *Process, ci int) {
	n := len(k.cores)
	p.cpu = ((ci % n) + n) % n
	p.pinned = true
}

// stealFor implements pull-based migration: core ci's queue is empty,
// so scan the other queues in deterministic order (ci+1, ci+2, ...)
// for one holding at least two runnable processes, and pull the last
// runnable that is not the victim core's warm-cache owner and is not
// affinity-pinned. Requiring two keeps a lone runnable process from
// ping-ponging between idle cores; sparing the owner keeps its warm L1
// worth something; sparing pinned processes is the affinity contract.
func (k *Kernel) stealFor(ci int) *Process {
	n := len(k.cores)
	for d := 1; d < n; d++ {
		vi := (ci + d) % n
		runnable := 0
		var cand *Process
		for _, p := range k.procs {
			if p.cpu == vi && p.state == stateRunnable {
				runnable++
				if p != k.currents[vi] && !p.pinned {
					cand = p
				}
			}
		}
		if runnable >= 2 && cand != nil {
			cand.cpu = ci
			k.migrations++
			return cand
		}
	}
	return nil
}

func (k *Kernel) earliestWake() uint64 {
	min := ^uint64(0)
	for _, p := range k.procs {
		if p.state == stateBlocked && p.wakeAt < min {
			min = p.wakeAt
		}
	}
	return min
}

func (k *Kernel) wakeExpired() {
	now := k.core.Cycles()
	for _, p := range k.procs {
		if p.killed {
			if p.state != stateDone {
				p.state = stateDone
			}
			continue
		}
		if p.state == stateBlocked && p.wakeAt != ^uint64(0) && p.wakeAt <= now {
			p.state = stateRunnable
		}
	}
}
