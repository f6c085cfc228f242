// Package kernel simulates the operating system under the profiled
// software stack: processes with address spaces, a round-robin
// scheduler with timeslices and context-switch costs, interrupt
// dispatch, a simulated disk, and a loadable-module interface that the
// OProfile driver plugs into (paper §3: "OProfile consists of a Linux
// kernel module, and a user level application").
//
// Kernel work is itself simulated execution at kernel-image symbol
// addresses, so kernel time shows up in profiles — full-system
// profiling needs the kernel to be profilable, not just modelled.
package kernel

import (
	"fmt"
	"math/rand"

	"viprof/internal/addr"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/image"
)

// Well-known layout constants.
const (
	// UserBase is where the first user image is loaded (the classic
	// 0x08048000 ELF text base).
	UserBase addr.Address = 0x0804_8000
	// LibBase is where shared libraries are mapped.
	LibBase addr.Address = 0x4000_0000
	// HeapBase is where anonymous mappings begin: the first process to
	// map anonymous memory gets it (see MapAnon).
	HeapBase addr.Address = 0x6000_0000
	// StackTop is the top of the user stack region.
	StackTop addr.Address = 0xBFFF_F000
)

// DefaultTimeslice is the scheduler quantum in cycles (~10 ms at the
// simulated 3.4 MHz clock).
const DefaultTimeslice = 34_000

// HypervisorBase is where a hypervisor (the Xen layer of the paper's
// future work) maps its text: the top 64 MiB of the address space,
// as 32-bit Xen does. Kernel modules are allocated below it.
const HypervisorBase addr.Address = 0xFC00_0000

// StepResult tells the scheduler what a process did with its slice.
type StepResult int

// Step outcomes.
const (
	// StepYield: the slice expired or the process voluntarily yielded;
	// it remains runnable.
	StepYield StepResult = iota
	// StepBlocked: the process blocked (sleep or event wait); the
	// executor must have arranged a wakeup.
	StepBlocked
	// StepExit: the process terminated.
	StepExit
)

// Executor is the code a process runs. Step should execute micro-ops on
// m.Core until the slice budget expires (m.Core.Expired()), the process
// blocks, or it finishes.
type Executor interface {
	Step(m *Machine, p *Process) StepResult
}

// ExecFunc adapts a function to the Executor interface.
type ExecFunc func(m *Machine, p *Process) StepResult

// Step implements Executor.
func (f ExecFunc) Step(m *Machine, p *Process) StepResult { return f(m, p) }

// procState is the scheduler-visible process state.
type procState int

const (
	stateRunnable procState = iota
	stateBlocked
	stateDone
)

// Process is a simulated OS process.
type Process struct {
	PID  int
	Name string
	// Space is the process address space (kernel mapping included).
	Space *addr.Space
	// Daemon processes do not keep the machine alive: Run returns when
	// only daemons remain runnable.
	Daemon bool

	exec    Executor
	state   procState
	killed  bool   // crashed by fault injection; reaped at slice end
	wakeAt  uint64 // cycle at which a sleeping process becomes runnable
	cpuTime uint64 // cycles consumed (user+kernel on its behalf)
	cpu     int    // run-queue (core) this process is assigned to
	pinned  bool   // affinity-pinned: the stealer must never migrate it

	libAlloc  *addr.Allocator
	userAlloc *addr.Allocator
}

// CPUTime returns the cycles this process has consumed.
func (p *Process) CPUTime() uint64 { return p.cpuTime }

// CPU returns the core whose run queue currently holds this process.
func (p *Process) CPU() int { return p.cpu }

// Done reports whether the process has exited.
func (p *Process) Done() bool { return p.state == stateDone }

// Killed reports whether the process was crashed by fault injection
// (as opposed to exiting cleanly).
func (p *Process) Killed() bool { return p.killed }

// Machine is the full simulated system: one or more cores plus the
// kernel. Core is the boot core (Cores[0]), kept for the single-core
// call sites that predate SMP; executors that run under the scheduler
// must use CPU(), which returns the core their process is currently
// scheduled on.
type Machine struct {
	Core  *cpu.Core
	Cores []*cpu.Core
	Kern  *Kernel
}

// CPU returns the core the kernel is currently scheduling on — the one
// an executor's micro-ops must retire through. On a single-core
// machine this is always Core.
func (m *Machine) CPU() *cpu.Core { return m.Kern.core }

// Kernel is the simulated operating system.
type Kernel struct {
	// core is the core the scheduler is currently driving: ExecKernel,
	// Sleep, tickers and NMI dispatch all charge it. The Run loop
	// repoints it each iteration (always the least-advanced clock).
	core    *cpu.Core
	cores   []*cpu.Core
	procs   []*Process
	nextPID int
	spawned int // processes created, for round-robin queue assignment
	// current is the process on the scheduling core; currents[i] is the
	// last process core i ran (its warm-cache owner).
	current  *Process
	currents []*Process

	vmlinux    *image.Image
	kernBase   addr.Address
	modAlloc   *addr.Allocator
	modules    map[string]*LoadedModule
	kernSyms   map[string]addr.VMA // symbol name -> absolute range
	kernSpace  *addr.Space         // the shared kernel mapping (one VMA per image)
	nmiHandler func(m *Machine, s cpu.Snapshot, ev hpc.Event)
	m          *Machine

	// anon hands out every process's anonymous mappings from one range
	// (see MapAnon); anonPID is the process that mapped last.
	anon    *addr.Allocator
	anonPID int

	disk      *Disk
	rng       *rand.Rand
	tickers   []*ticker
	faults    uint64
	injectors []*faultInjector

	Timeslice uint64
	// SwitchCost is the context-switch overhead in cycles.
	SwitchCost uint32
	// ctxSwitches counts scheduler context switches.
	ctxSwitches uint64
	// migrations counts pull-based steals (a process moving between
	// per-core run queues).
	migrations uint64
}

// LoadedModule is a kernel module mapped into kernel space.
type LoadedModule struct {
	Image *image.Image
	Base  addr.Address
}

// ticker is a periodic kernel callback (see AddTicker).
type ticker struct {
	period, next uint64
	fn           func()
}

// NewMachine builds a single-core machine: core + kernel with the
// standard kernel image loaded at addr.KernelBase. The seed drives
// scheduling jitter and any other modelled nondeterminism (paper §4.3
// attributes run-to-run variance to "system noise").
func NewMachine(core *cpu.Core, seed int64) *Machine {
	return NewMachineN(seed, core)
}

// NewMachineN builds an SMP machine over the given cores. Core i is
// assigned CPU number i; processes are placed on run queues round-robin
// by creation order and may later migrate via pull-based stealing. The
// cores should share an L2 (cache.SharedHierarchies), each over its own
// L1 and TLBs. No coherency traffic is modelled: a process's anonymous
// memory is its own (MapAnon) and a VM runs on one core at a time, so
// no two cores share a written line.
func NewMachineN(seed int64, cores ...*cpu.Core) *Machine {
	if len(cores) == 0 {
		panic("kernel: NewMachineN with no cores")
	}
	k := &Kernel{
		core:       cores[0],
		cores:      cores,
		currents:   make([]*Process, len(cores)),
		modules:    make(map[string]*LoadedModule),
		kernSyms:   make(map[string]addr.VMA),
		kernSpace:  addr.NewSpace(),
		anon:       addr.NewAllocator(HeapBase, StackTop-0x100_0000),
		disk:       NewDisk(),
		rng:        rand.New(rand.NewSource(seed)),
		Timeslice:  DefaultTimeslice,
		SwitchCost: 600,
		nextPID:    1,
	}
	m := &Machine{Core: cores[0], Cores: cores, Kern: k}
	k.m = m
	k.loadVmlinux()
	for i, c := range cores {
		c.SetID(i)
		c.SetNMIHandler(k.dispatchNMI)
	}
	// The periodic timer interrupt (HZ=100): a small slice of kernel
	// work every tick, as on the real machine, so timer_interrupt and
	// do_IRQ rows appear in profiles.
	k.AddTicker(k.Timeslice, func() {
		k.ExecKernel("timer_interrupt", 28, 1)
		k.ExecKernel("do_IRQ", 10, 1)
	})
	return m
}

// loadVmlinux builds the kernel text image with the symbols the
// simulation executes, and maps it at KernelBase.
func (k *Kernel) loadVmlinux() {
	b := image.NewBuilder("vmlinux")
	for _, s := range []struct {
		name string
		size uint64
	}{
		{"default_idle", 256},
		{"schedule", 2048},
		{"__switch_to", 512},
		{"do_nmi", 512},
		{"do_IRQ", 768},
		{"sys_write", 512},
		{"sys_rename", 512},
		{"vfs_write", 1024},
		{"generic_file_write", 2048},
		{"sys_read", 512},
		{"do_page_fault", 1024},
		{"handle_mm_fault", 2048},
		{"copy_to_user", 512},
		{"copy_from_user", 512},
		{"kmalloc", 768},
		{"kfree", 512},
		{"timer_interrupt", 512},
	} {
		b.Add(s.name, s.size)
	}
	im, err := b.Image()
	if err != nil {
		panic("kernel: vmlinux build: " + err.Error())
	}
	k.vmlinux = im
	k.kernBase = addr.KernelBase
	if err := k.kernSpace.Map(addr.VMA{
		Start: k.kernBase,
		End:   k.kernBase + addr.Address(im.Size),
		Image: im.Name,
		Prot:  addr.ProtRead | addr.ProtExec,
	}); err != nil {
		panic("kernel: map vmlinux: " + err.Error())
	}
	for _, s := range im.Symbols() {
		k.kernSyms[s.Name] = addr.VMA{
			Start: k.kernBase + s.Off,
			End:   k.kernBase + s.Off + addr.Address(s.Size),
			Image: im.Name,
		}
	}
	k.modAlloc = addr.NewAllocator(k.kernBase+addr.Address(im.Size)+0x1000, HypervisorBase)
}

// Vmlinux returns the kernel text image (for post-processing symbol
// resolution).
func (k *Kernel) Vmlinux() *image.Image { return k.vmlinux }

// Disk returns the simulated disk.
func (k *Kernel) Disk() *Disk { return k.disk }

// ContextSwitches returns the number of scheduler context switches.
func (k *Kernel) ContextSwitches() uint64 { return k.ctxSwitches }

// Migrations returns how many times a process was stolen onto another
// core's run queue.
func (k *Kernel) Migrations() uint64 { return k.migrations }

// Cores returns the machine's cores in CPU order.
func (k *Kernel) Cores() []*cpu.Core { return k.cores }

// LoadModule maps a module image into kernel space and records it.
func (k *Kernel) LoadModule(im *image.Image) (*LoadedModule, error) {
	if _, dup := k.modules[im.Name]; dup {
		return nil, fmt.Errorf("kernel: module %s already loaded", im.Name)
	}
	base, err := k.modAlloc.Alloc(im.Size, 0x1000)
	if err != nil {
		return nil, fmt.Errorf("kernel: no space for module %s: %v", im.Name, err)
	}
	return k.mapModule(im, base)
}

// LoadModuleAt is LoadModule at a caller-chosen base; the hypervisor
// layer maps itself at HypervisorBase with it.
func (k *Kernel) LoadModuleAt(im *image.Image, base addr.Address) (*LoadedModule, error) {
	if _, dup := k.modules[im.Name]; dup {
		return nil, fmt.Errorf("kernel: module %s already loaded", im.Name)
	}
	if !base.IsKernel() {
		return nil, fmt.Errorf("kernel: module base %s not in kernel space", base)
	}
	return k.mapModule(im, base)
}

func (k *Kernel) mapModule(im *image.Image, base addr.Address) (*LoadedModule, error) {
	v := addr.VMA{Start: base, End: base + addr.Address(im.Size), Image: im.Name,
		Prot: addr.ProtRead | addr.ProtExec}
	if err := k.kernSpace.Map(v); err != nil {
		return nil, err
	}
	lm := &LoadedModule{Image: im, Base: base}
	k.modules[im.Name] = lm
	for _, s := range im.Symbols() {
		k.kernSyms[s.Name] = addr.VMA{
			Start: base + s.Off,
			End:   base + s.Off + addr.Address(s.Size),
			Image: im.Name,
		}
	}
	// Retrofit the new mapping into existing process spaces.
	for _, p := range k.procs {
		if err := p.Space.Map(v); err != nil {
			return nil, err
		}
	}
	return lm, nil
}

// Module returns a loaded module by name.
func (k *Kernel) Module(name string) (*LoadedModule, bool) {
	lm, ok := k.modules[name]
	return lm, ok
}

// Modules returns all loaded kernel modules.
func (k *Kernel) Modules() []*LoadedModule {
	out := make([]*LoadedModule, 0, len(k.modules))
	for _, lm := range k.modules {
		out = append(out, lm)
	}
	return out
}

// SetNMIHandler registers the profiler driver's NMI callback.
func (k *Kernel) SetNMIHandler(h func(m *Machine, s cpu.Snapshot, ev hpc.Event)) {
	k.nmiHandler = h
}

// dispatchNMI is the core's NMI entry: it charges the trap entry cost
// at do_nmi (in kernel mode, so the trap itself is profilable) and
// forwards to the registered handler.
func (k *Kernel) dispatchNMI(core *cpu.Core, s cpu.Snapshot, ev hpc.Event) {
	core.SetContext(cpu.Context{PID: s.Ctx.PID, Kernel: true})
	k.ExecKernel("do_nmi", 8, 1)
	if k.nmiHandler != nil {
		k.nmiHandler(k.m, s, ev)
	}
}
