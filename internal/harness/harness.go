// Package harness runs the paper's experiments: it executes workloads
// on fresh simulated machines under the base / OProfile / VIProf
// configurations, applies the paper's measurement protocol ("running
// the benchmark 10 times, eliminating the fastest and slowest run, and
// then averaging the remaining 8", §4.1), and formats the results as
// the paper's figures.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"viprof/internal/cache"
	"viprof/internal/core"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/jvm"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/workload"
	"viprof/internal/xen"
)

// ProfKind selects the profiling configuration.
type ProfKind int

// Profiler configurations.
const (
	ProfNone ProfKind = iota
	ProfOprofile
	ProfVIProf
)

// String names the configuration as Figure 2's legend does.
func (k ProfKind) String() string {
	switch k {
	case ProfOprofile:
		return "Oprof"
	case ProfVIProf:
		return "VIProf"
	default:
		return "base"
	}
}

// RunConfig is one experimental cell.
type RunConfig struct {
	Kind ProfKind
	// Period is the cycles-event sampling period (45K/90K/450K in
	// Figure 2). Ignored for ProfNone.
	Period uint64
	// MissPeriod, when nonzero, also arms the L2-miss counter (the
	// two-event setup of Figure 1).
	MissPeriod uint64
	// CallGraphDepth enables stack sampling (VIProf only).
	CallGraphDepth int
	// FullMaps selects the full-map ablation agent mode (VIProf only).
	FullMaps bool
	// EagerMoveLog selects the log-inside-GC ablation mode (VIProf
	// only).
	EagerMoveLog bool
	// Noise adds the desktop background process (X server images).
	Noise bool
	// Xen runs the whole stack on the simulated hypervisor (the
	// paper's future-work layer); hypervisor samples appear as
	// xen-syms rows.
	Xen bool
}

// Label renders the cell name as the paper's Figure 2 legend ("Oprof
// 90K", "VIProf 45K", ...).
func (rc RunConfig) Label() string {
	if rc.Kind == ProfNone {
		return "base"
	}
	return fmt.Sprintf("%s %dK", rc.Kind, rc.Period/1000)
}

// Result is one benchmark execution.
type Result struct {
	Bench   string
	Config  RunConfig
	Seconds float64 // simulated wall time of the benchmark run
	Cycles  uint64

	VMStats     jvm.Stats
	DriverStats oprofile.DriverStats
	AgentStats  core.AgentStats

	// Session state for report generation (nil unless KeepSession).
	Machine *kernel.Machine
	Session *core.Session
	VM      *jvm.VM
	Proc    *kernel.Process
}

// Options tune a run.
type Options struct {
	// Scale multiplies workload outer iterations (1.0 = paper-scale).
	Scale float64
	// Seed drives machine noise; vary per repetition.
	Seed int64
	// KeepSession retains the machine/session in the Result for
	// post-processing (Figure 1 report generation).
	KeepSession bool
	// NoBatch disables the core's event-horizon batched execution and
	// forces the precise per-op path. It exists for the determinism
	// tests and benchmarks proving the two paths are bit-for-bit
	// identical; production runs leave it false.
	NoBatch bool
	// NoRecovery skips the session's startup recovery pass (VIProf
	// runs only). Production runs leave it false — recovery on a fresh
	// disk is a cheap no-decision pass — but tests that stage var/
	// themselves can opt out.
	NoRecovery bool
	// Cores sets the simulated machine's core count (0 or 1 = the
	// classic single-core machine). Multi-core machines share an L2;
	// each core gets private L1/TLBs and its own counter bank, and the
	// profiling pipeline shards per CPU.
	Cores int
	// legacyRun drives the run through the kernel's pre-SMP scheduler
	// loop (RunLegacy), kept verbatim as the single-core differential
	// oracle. Test-only; requires Cores <= 1.
	legacyRun bool
}

// BuildMachine constructs a simulated machine with n cores (n <= 1
// builds the classic single-core machine) sharing one L2, each with a
// private L1/TLB pair and its own counter bank.
func BuildMachine(n int, seed int64) *kernel.Machine {
	hs := cache.SharedHierarchies(max(n, 1))
	cores := make([]*cpu.Core, len(hs))
	for i, h := range hs {
		cores[i] = cpu.New(hpc.NewBank(), h)
	}
	return kernel.NewMachineN(seed, cores...)
}

// RunOnce executes one benchmark under one configuration on a fresh
// machine and returns the measurement.
func RunOnce(spec workload.Spec, rc RunConfig, opt Options) (*Result, error) {
	if opt.Scale <= 0 {
		opt.Scale = 1.0
	}
	prog, err := workload.Build(spec, opt.Scale)
	if err != nil {
		return nil, err
	}
	machine := BuildMachine(opt.Cores, opt.Seed)
	if opt.NoBatch {
		for _, c := range machine.Cores {
			c.SetBatching(false)
		}
	}
	if rc.Xen {
		if _, err := xen.Enable(machine, xen.Config{}); err != nil {
			return nil, err
		}
	}
	if rc.Noise {
		if err := StartNoise(machine, opt.Seed^0x5EED); err != nil {
			return nil, err
		}
	}

	events := []oprofile.EventConfig{}
	if rc.Kind != ProfNone {
		events = append(events, oprofile.EventConfig{Event: hpc.GlobalPowerEvents, Period: rc.Period})
		if rc.MissPeriod > 0 {
			events = append(events, oprofile.EventConfig{Event: hpc.BSQCacheReference, Period: rc.MissPeriod})
		}
	}

	res := &Result{Bench: spec.Name, Config: rc, Machine: machine}
	vmCfg := jvm.Config{HeapBytes: spec.HeapBytes}

	var session *core.Session
	var prof *oprofile.Profiler
	var vm *jvm.VM
	var proc *kernel.Process
	switch rc.Kind {
	case ProfNone:
		vm, proc, err = jvm.Launch(machine, prog, vmCfg)
	case ProfOprofile:
		prof, err = oprofile.Start(machine, oprofile.Config{Events: events})
		if err == nil {
			vm, proc, err = jvm.Launch(machine, prog, vmCfg)
		}
	case ProfVIProf:
		session, err = core.Start(machine, core.Config{
			Events:         events,
			CallGraphDepth: rc.CallGraphDepth,
			FullMaps:       rc.FullMaps,
			EagerMoveLog:   rc.EagerMoveLog,
			NoRecovery:     opt.NoRecovery,
		})
		if err == nil {
			vm, proc, err = session.LaunchJVM(prog, vmCfg)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %v", spec.Name, rc.Label(), err)
	}

	// Generous limit: 100x the calibrated base time catches runaways.
	limit := uint64(spec.BaseSeconds*opt.Scale*100+60) * cpu.ClockHz
	runLoop := machine.Kern.Run
	if opt.legacyRun {
		runLoop = machine.Kern.RunLegacy
	}
	if err := runLoop(limit); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %v", spec.Name, rc.Label(), err)
	}
	if !vm.Finished() {
		return nil, fmt.Errorf("harness: %s/%s: VM error: %v", spec.Name, rc.Label(), vm.Err())
	}

	// "We configure it to measure the execution time of the benchmarks
	// only": the clock when the benchmark process exits. On SMP the
	// wall clock is the furthest-ahead core.
	res.Cycles = machine.Core.Cycles()
	for _, c := range machine.Cores {
		if c.Cycles() > res.Cycles {
			res.Cycles = c.Cycles()
		}
	}
	res.Seconds = cpu.Seconds(res.Cycles)
	res.VMStats = vm.Stats()
	res.VM = vm
	res.Proc = proc

	switch rc.Kind {
	case ProfOprofile:
		prof.Shutdown(machine)
		res.DriverStats = prof.Driver.Stats()
	case ProfVIProf:
		session.Shutdown()
		res.DriverStats = session.Prof.Driver.Stats()
		if a, ok := session.Agents[proc.PID]; ok {
			res.AgentStats = a.Stats()
		}
		res.Session = session
	}
	if !opt.KeepSession {
		res.Machine, res.Session, res.VM, res.Proc = nil, nil, nil, nil
	}
	return res, nil
}

// Series is the paper's measurement protocol over repeated runs.
type Series struct {
	Bench   string
	Config  RunConfig
	Seconds []float64 // per-run, in run order
	Mean    float64   // trimmed mean (drop fastest+slowest)
}

// TrimmedMean drops the fastest and slowest values and averages the
// rest (with fewer than 3 runs it averages everything).
func TrimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) > 2 {
		sorted = sorted[1 : len(sorted)-1]
	}
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	return sum / float64(len(sorted))
}

// Repeat runs one cell `runs` times with distinct seeds, in parallel up
// to GOMAXPROCS, and aggregates with the trimmed mean.
func Repeat(spec workload.Spec, rc RunConfig, runs int, opt Options) (*Series, error) {
	if runs <= 0 {
		runs = 1
	}
	secs := make([]float64, runs)
	errs := make([]error, runs)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := opt
			o.Seed = opt.Seed + int64(i)*7919
			o.KeepSession = false
			r, err := RunOnce(spec, rc, o)
			if err != nil {
				errs[i] = err
				return
			}
			secs[i] = r.Seconds
		}(i)
	}
	wg.Wait()
	// Join every failure, not just the first: a multi-run breakage
	// should report each failing seed.
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return &Series{
		Bench:   spec.Name,
		Config:  rc,
		Seconds: secs,
		Mean:    TrimmedMean(secs),
	}, nil
}
