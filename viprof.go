// Package viprof is a full-system reproduction of "VIProf: Vertically
// Integrated Full-System Performance Profiler" (Mousa, Krintz, Youseff,
// Wolski — IPDPS Workshops 2007).
//
// VIProf extends a system-wide, hardware-counter sampling profiler
// (OProfile) so that samples landing in dynamically generated JIT code
// are attributed to the Java methods that own the code — even while the
// VM recompiles methods and its garbage collector relocates code bodies.
// The key mechanisms are a runtime-profiler registration of the VM's
// JIT region, a VM agent that writes partial code maps at every GC
// *execution epoch*, and post-processing that searches the epoch map
// chain backwards to find the most recent method to occupy a sampled
// address.
//
// Because the original runs on Pentium 4 hardware counters, a Linux
// kernel module and Jikes RVM, this package reproduces the entire stack
// as a deterministic simulation: a cycle-level CPU with performance
// counters, caches and NMIs; an operating system with processes,
// scheduling and a disk; a Jikes-RVM-style virtual machine with a real
// bytecode interpreter, two JIT tiers and a moving generational
// collector; the OProfile baseline; and VIProf itself. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for the paper's figures
// reproduced on this substrate.
//
// # Quick start
//
//	out, err := viprof.ProfileBenchmark("ps", viprof.Options{Scale: 0.2})
//	if err != nil { ... }
//	fmt.Println(out.RenderReport(20))
//
// For custom programs, build bytecode with NewAsm/NewProgram, create a
// machine, start a Session and launch the program under it; see
// examples/quickstart.
package viprof

import (
	"bytes"
	"fmt"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/core"
	"viprof/internal/cpu"
	"viprof/internal/harness"
	"viprof/internal/hpc"
	"viprof/internal/image"
	"viprof/internal/jvm"
	"viprof/internal/jvm/bytecode"
	"viprof/internal/jvm/classes"
	"viprof/internal/jvm/jit"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/workload"
)

// Simulation substrate types.
type (
	// Machine is the simulated computer: one core plus the OS kernel.
	Machine = kernel.Machine
	// Process is a simulated OS process.
	Process = kernel.Process
	// Address is a simulated virtual address.
	Address = addr.Address
	// Event is a hardware performance counter event.
	Event = hpc.Event
)

// Program construction types.
type (
	// Program is a closed set of methods with an entry point, executed
	// by the simulated VM.
	Program = classes.Program
	// Method is one bytecode method.
	Method = classes.Method
	// Asm assembles bytecode with symbolic labels.
	Asm = bytecode.Asm
	// Instr is one bytecode instruction.
	Instr = bytecode.Instr
	// Opcode is a bytecode operation.
	Opcode = bytecode.Opcode
)

// Profiling types.
type (
	// Session is a running VIProf profiling session.
	Session = core.Session
	// Report is a symbol-level profile report (both VIProf's and plain
	// OProfile's post-processing produce this shape).
	Report = oprofile.Report
	// VM is a running virtual machine instance.
	VM = jvm.VM
	// Spec describes a synthetic benchmark workload.
	Spec = workload.Spec
)

// Profiled hardware events (Figure 1 uses both).
const (
	// EventCycles is GLOBAL_POWER_EVENTS: non-halted cycles, i.e. time.
	EventCycles = hpc.GlobalPowerEvents
	// EventL2Miss is BSQ_CACHE_REFERENCE: L2 data cache misses.
	EventL2Miss = hpc.BSQCacheReference
)

// ClockHz is the simulated core frequency; simulated seconds are
// cycles/ClockHz.
const ClockHz = cpu.ClockHz

// NewMachine builds a simulated machine. The seed drives scheduler
// jitter and other modelled system noise; distinct seeds model the
// run-to-run variance of §4.1's repeated-runs protocol.
func NewMachine(seed int64) *Machine {
	return kernel.NewMachine(cpu.New(hpc.NewBank(), cache.DefaultHierarchy()), seed)
}

// NewProgram returns an empty program with the given number of static
// (GC root) slots.
func NewProgram(name string, staticSlots int) *Program {
	return classes.NewProgram(name, staticSlots)
}

// NewAsm returns a bytecode assembler.
func NewAsm() *Asm { return bytecode.NewAsm() }

// EventConfig arms one counter at a sampling period.
type EventConfig = oprofile.EventConfig

// SessionConfig parameterizes StartSession.
type SessionConfig = core.Config

// VMConfig parameterizes LaunchVM.
type VMConfig = jvm.Config

// StartSession arms the full VIProf pipeline (extended driver, daemon,
// JIT registry) on a machine. Launch VMs with Session.LaunchJVM so they
// register their JIT regions and agents.
func StartSession(m *Machine, cfg SessionConfig) (*Session, error) {
	return core.Start(m, cfg)
}

// Benchmarks returns the names of the paper's benchmark suite
// (pseudojbb, JVM98, antlr, bloat, fop, hsqldb, pmd, xalan, ps).
func Benchmarks() []string { return workload.Names() }

// BenchmarkSpec returns the workload spec for a named benchmark.
func BenchmarkSpec(name string) (Spec, error) { return workload.ByName(name) }

// BuildWorkload generates a benchmark program at the given scale
// (fraction of the calibrated full-length run; 1.0 reproduces Figure 3
// times).
func BuildWorkload(s Spec, scale float64) (*Program, error) {
	return workload.Build(s, scale)
}

// Profiler selects the profiling configuration for ProfileBenchmark.
type Profiler int

// Profiler kinds. The zero value selects VIProf.
const (
	// ProfilerVIProf runs the full VIProf pipeline (the default).
	ProfilerVIProf Profiler = iota
	// ProfilerNone runs the benchmark unprofiled (the Figure 3 baseline).
	ProfilerNone
	// ProfilerOProfile runs the unmodified baseline profiler.
	ProfilerOProfile
)

// kind maps the public enum to the harness configuration.
func (p Profiler) kind() harness.ProfKind {
	switch p {
	case ProfilerNone:
		return harness.ProfNone
	case ProfilerOProfile:
		return harness.ProfOprofile
	default:
		return harness.ProfVIProf
	}
}

// Options tune ProfileBenchmark.
type Options struct {
	// Profiler selects the pipeline; default ProfilerVIProf.
	Profiler Profiler
	// Period is the cycles-event sampling period (default 90_000, the
	// paper's median frequency).
	Period uint64
	// MissPeriod, when nonzero, also samples L2 misses (Figure 1's
	// two-event setup). Default 0 (time only); RunFigure1 uses both.
	MissPeriod uint64
	// Scale is the workload scale factor; default 1.0 (full length).
	Scale float64
	// Seed drives modelled noise; default 1.
	Seed int64
	// CallGraphDepth enables cross-layer call-graph sampling.
	CallGraphDepth int
	// Xen runs the stack on the simulated hypervisor layer (the
	// paper's §5 future work): hypervisor samples appear as xen-syms
	// rows in the report, as XenoProf reports them.
	Xen bool
	// NoRecovery skips the session's startup crash-recovery pass.
	// The default (false) matches the deployed daemon, which always
	// salvages whatever a previous run left in var/ before arming.
	NoRecovery bool
	// Cores sets the simulated machine's core count (0 or 1 = the
	// classic single-core machine). Multi-core runs shard the
	// profiling pipeline per CPU and the report gains a per-CPU
	// breakdown (DESIGN §16).
	Cores int
}

func (o *Options) fill() {
	if o.Period == 0 {
		o.Period = 90_000
	}
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Outcome is the result of a profiled benchmark run.
type Outcome struct {
	Bench string
	// Seconds is the benchmark's simulated wall time.
	Seconds float64
	// Report is the post-processed profile (nil for ProfilerNone).
	Report *Report
	// Events is the report's column order.
	Events []Event
	// VMStats summarizes VM activity (compiles, GCs, bytecodes).
	VMStats jvm.Stats

	res *harness.Result
}

// RenderReport formats the report like the paper's Figure 1 (at most
// maxRows rows; 0 = all).
func (o *Outcome) RenderReport(maxRows int) string {
	if o.Report == nil {
		return "(no profiler was attached)"
	}
	var buf bytes.Buffer
	if err := oprofile.Format(&buf, o.Report, maxRows); err != nil {
		return err.Error()
	}
	return buf.String()
}

// ProfileBenchmark runs one of the paper's benchmarks under the chosen
// profiler on a fresh simulated machine and returns the measurement and
// (for profiled runs) the post-processed report.
func ProfileBenchmark(name string, opt Options) (*Outcome, error) {
	opt.fill()
	spec, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	rc := harness.RunConfig{
		Kind:           opt.Profiler.kind(),
		Period:         opt.Period,
		MissPeriod:     opt.MissPeriod,
		CallGraphDepth: opt.CallGraphDepth,
		Noise:          true,
		Xen:            opt.Xen,
	}
	res, err := harness.RunOnce(spec, rc, harness.Options{
		Scale: opt.Scale, Seed: opt.Seed, KeepSession: true,
		NoRecovery: opt.NoRecovery, Cores: opt.Cores,
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Bench:   name,
		Seconds: res.Seconds,
		VMStats: res.VMStats,
		res:     res,
	}
	switch opt.Profiler.kind() {
	case harness.ProfVIProf:
		s := res.Session
		rep, _, err := s.Report(s.Images(res.VM), map[string]int{res.Proc.Name: res.Proc.PID})
		if err != nil {
			return nil, err
		}
		out.Report = rep
		out.Events = s.Events()
	case harness.ProfOprofile:
		images := core.StandardImages(res.Machine, res.VM)
		events := []hpc.Event{hpc.GlobalPowerEvents}
		if opt.MissPeriod > 0 {
			events = append(events, hpc.BSQCacheReference)
		}
		rep, err := oprofile.Opreport(res.Machine.Kern.Disk(), images, events)
		if err != nil {
			return nil, err
		}
		out.Report = rep
		out.Events = events
	}
	return out, nil
}

// Session accessors on the raw result, for advanced post-processing
// (call graphs, code-map inspection).

// RawSession returns the underlying VIProf session (nil unless the run
// used ProfilerVIProf).
func (o *Outcome) RawSession() *Session {
	if o.res == nil {
		return nil
	}
	return o.res.Session
}

// RawMachine returns the simulated machine the run executed on.
func (o *Outcome) RawMachine() *Machine {
	if o.res == nil {
		return nil
	}
	return o.res.Machine
}

// RawVM returns the VM instance of the run.
func (o *Outcome) RawVM() *VM {
	if o.res == nil {
		return nil
	}
	return o.res.VM
}

// RawProcess returns the VM's OS process.
func (o *Outcome) RawProcess() *Process {
	if o.res == nil {
		return nil
	}
	return o.res.Proc
}

// Images assembles the symbol tables for the run's machine and VM.
func (o *Outcome) Images() map[string]*image.Image {
	if o.res == nil {
		return nil
	}
	if o.res.Session != nil {
		return o.res.Session.Images(o.res.VM)
	}
	return core.StandardImages(o.res.Machine, o.res.VM)
}

// Figures — the paper's evaluation, re-exported from the harness.

// RunFigure1 regenerates the paper's Figure 1: the DaCapo ps benchmark
// profiled by VIProf and by plain OProfile with both events armed,
// rendered side by side.
func RunFigure1(scale float64, seed int64, maxRows int) (string, error) {
	fig, err := harness.Figure1(scale, seed, maxRows)
	if err != nil {
		return "", err
	}
	return fig.Rendered, nil
}

// RunFigure2 regenerates the paper's Figure 2 (profiling slowdowns) at
// the given scale with the given repetition count, returning the
// formatted table.
func RunFigure2(scale float64, runs int, seed int64) (string, error) {
	fig, err := harness.Figure2(scale, runs, seed)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := fig.Format(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// RunFigure3 regenerates the paper's Figure 3 (base execution times).
func RunFigure3(scale float64, runs int, seed int64) (string, error) {
	fig, err := harness.Figure3(scale, runs, seed)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := fig.Format(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// Version identifies this reproduction.
const Version = "1.0.0"

// Bytecode opcodes, re-exported for program construction with Asm.
const (
	OpNop       = bytecode.Nop
	OpConst     = bytecode.Const
	OpLoad      = bytecode.Load
	OpStore     = bytecode.Store
	OpDup       = bytecode.Dup
	OpPop       = bytecode.Pop
	OpAdd       = bytecode.Add
	OpSub       = bytecode.Sub
	OpMul       = bytecode.Mul
	OpDiv       = bytecode.Div
	OpMod       = bytecode.Mod
	OpNeg       = bytecode.Neg
	OpAnd       = bytecode.And
	OpOr        = bytecode.Or
	OpXor       = bytecode.Xor
	OpShl       = bytecode.Shl
	OpShr       = bytecode.Shr
	OpCmpLT     = bytecode.CmpLT
	OpCmpLE     = bytecode.CmpLE
	OpCmpEQ     = bytecode.CmpEQ
	OpCmpNE     = bytecode.CmpNE
	OpCmpGT     = bytecode.CmpGT
	OpCmpGE     = bytecode.CmpGE
	OpJmp       = bytecode.Jmp
	OpJmpZ      = bytecode.JmpZ
	OpJmpNZ     = bytecode.JmpNZ
	OpCall      = bytecode.Call
	OpRet       = bytecode.Ret
	OpRetVoid   = bytecode.RetVoid
	OpNew       = bytecode.New
	OpNewArray  = bytecode.NewArray
	OpALoad     = bytecode.ALoad
	OpAStore    = bytecode.AStore
	OpArrayLen  = bytecode.ArrayLen
	OpGetField  = bytecode.GetField
	OpPutField  = bytecode.PutField
	OpGetRef    = bytecode.GetRef
	OpPutRef    = bytecode.PutRef
	OpGetStatic = bytecode.GetStatic
	OpPutStatic = bytecode.PutStatic
	OpIntrinsic = bytecode.Intrinsic
)

// Intrinsic identifiers (the Intrinsic opcode's A operand): native
// runtime services that execute in libc or the kernel.
const (
	// IntrMemset models libc memset over a scratch buffer.
	IntrMemset = int32(bytecode.IntrMemset)
	// IntrArrayCopy models System.arraycopy between two arrays.
	IntrArrayCopy = int32(bytecode.IntrArrayCopy)
	// IntrWrite models a write syscall (kernel activity).
	IntrWrite = int32(bytecode.IntrWrite)
	// IntrCurrentTime reads the cycle clock (cheap native call).
	IntrCurrentTime = int32(bytecode.IntrCurrentTime)
)

// Call-graph types (the cross-layer extension of §4.2).
type (
	// CallGraph aggregates sampled caller→callee arcs.
	CallGraph = core.CallGraph
	// Arc is one caller→callee edge between resolved symbols.
	Arc = core.Arc
)

// CallGraph folds the run's sampled call stacks into a cross-layer
// call graph, resolving every frame with the full VIProf resolver
// (epoch code maps for JIT frames, RVM.map for the boot image, ELF
// tables for native code). The run must have used ProfilerVIProf with
// Options.CallGraphDepth > 0. Each call drains the session's stack
// buffer, so call it once.
func (o *Outcome) CallGraph() (*CallGraph, error) {
	s := o.RawSession()
	if s == nil {
		return nil, fmt.Errorf("viprof: call graphs need a VIProf session")
	}
	stacks := s.Prof.Driver.DrainStacks()
	vm, m, proc := o.RawVM(), o.RawMachine(), o.RawProcess()
	_, res, err := s.Report(s.Images(vm), map[string]int{proc.Name: proc.PID})
	if err != nil {
		return nil, err
	}
	lookup := func(pid int, pc Address) (string, Address, bool) {
		lo, hi := vm.Heap().Bounds()
		if pc >= lo && pc < hi {
			return "", pc, true
		}
		if p, ok := m.Kern.Process(pid); ok {
			if v, found := p.Space.Lookup(pc); found {
				return v.Image, v.ImageOffset(pc), false
			}
		}
		return "", 0, false
	}
	return core.BuildCallGraph(stacks, func(pid int, pc Address, epoch int) string {
		return res.ResolvePC(lookup, pid, pc, epoch)
	}), nil
}

// Runtime personalities — the same VM engine running as different
// products, all profiled by the unchanged pipeline (§2's generality
// claim).
type PersonalityConfig = jvm.Personality

// JikesPersonality returns the paper's prototype target (the default).
func JikesPersonality() *PersonalityConfig { return jvm.Jikes() }

// CLRPersonality returns a Microsoft-.NET-style runtime: mscorwks
// boot image, CLR.map symbol map, CLR service symbols.
func CLRPersonality() *PersonalityConfig { return jvm.CLR() }

// JVM98Members returns the seven individual SpecJVM98 benchmarks
// (compress, jess, db, javac, mpegaudio, mtrt, jack). The Figure 2/3
// suite carries the composite "JVM98" entry; the members are available
// through BenchmarkSpec/ProfileBenchmark by short name.
func JVM98Members() []Spec { return workload.JVM98Members() }

// Annotate produces an opannotate-style per-bytecode sample listing for
// a method of a profiled run (by fully qualified signature). It needs a
// live VIProf session (the body layout does not persist in archives).
func (o *Outcome) Annotate(signature string) (string, error) {
	s := o.RawSession()
	vm := o.RawVM()
	proc := o.RawProcess()
	if s == nil || vm == nil {
		return "", fmt.Errorf("viprof: annotation needs a live VIProf session")
	}
	var body *jvmBody
	for _, meth := range o.methods() {
		if meth.Signature() == signature {
			if b, ok := vm.Body(meth); ok {
				body = b
			}
			break
		}
	}
	if body == nil {
		return "", fmt.Errorf("viprof: no compiled body for %q", signature)
	}
	disk := o.RawMachine().Kern.Disk()
	data, err := disk.Read("var/lib/oprofile/samples.log")
	if err != nil {
		return "", err
	}
	counts, sal, err := oprofile.ReadCountsSalvage(data)
	if err != nil {
		return "", err
	}
	chain, err := core.ReadMapChain(disk, proc.PID)
	if err != nil {
		return "", err
	}
	rows := core.AnnotateBody(counts, chain, body, proc.Name)
	var buf bytes.Buffer
	if sal.Lossy() {
		fmt.Fprintf(&buf, "WARNING: sample file damaged — %d records dropped (%d bytes); annotation built from the %d that survived\n",
			sal.DroppedRecords, sal.DroppedBytes, sal.Records)
	}
	if err := core.FormatAnnotation(&buf, signature, rows, o.Events); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// jvmBody aliases the compiled-body type for Annotate's internals.
type jvmBody = jit.CodeBody

// methods lists the profiled program's methods.
func (o *Outcome) methods() []*Method {
	if o.res == nil || o.res.VM == nil {
		return nil
	}
	return o.res.VM.Program().Methods
}

// RunActivityTable runs the suite once under VIProf at the 90K median
// frequency and renders per-benchmark internals (compiles, epochs, map
// volume, JIT sample share) — the quantities the paper's overhead
// explanations appeal to.
func RunActivityTable(scale float64, seed int64) (string, error) {
	act, err := harness.ActivityTable(scale, seed)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := act.Format(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}
