package viprof

// Several VM processes at once (the paper's §5 "multiple concurrently
// executing software stacks") on an SMP machine, run three ways: fused
// trace replay, DisableTrace (every bytecode stepped) and the per-op
// core (SetBatching(false)). The three are one simulation, so every
// core's cycles and instructions, the NMI count and the report bytes
// must agree. One VM per run, as the chaos sweeps launch, can never
// show a difference that needs two processes' memory to meet in the
// shared L2; these shapes can.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"viprof/internal/core"
	"viprof/internal/cpu"
	"viprof/internal/harness"
	"viprof/internal/hpc"
	"viprof/internal/jvm"
	"viprof/internal/oprofile"
	"viprof/internal/workload"
)

// multiVMBenches are the VMs a shape draws from, in launch order: the
// smp4-mix benchmark's four.
var multiVMBenches = []string{"antlr", "fop", "JVM98", "pmd"}

// multiVMMode is one way to execute the same simulation.
type multiVMMode struct {
	name         string
	disableTrace bool // jvm.Config.DisableTrace
	perOp        bool // cpu.Core.SetBatching(false) on every core
}

var multiVMModes = []multiVMMode{{"fused", false, false}, {"DisableTrace", true, false}, {"per-op", false, true}}

// multiVMResult is everything the three modes must agree on.
type multiVMResult struct {
	Cycles, Instrs []uint64 // per core
	NMIs           uint64
	Report         []byte
}

// multiVMRun runs the first vms of multiVMBenches as concurrent VM
// processes under one VIProf session on a machine with the given core
// count, with the background noise process and GLOBAL_POWER_EVENTS
// sampling, and returns the result. Each VM gets its own process name,
// as the smp4-mix benchmark gives them, so the report resolves every
// VM's JIT samples.
func multiVMRun(vms, cores int, seed int64, scale float64, mode multiVMMode) (multiVMResult, error) {
	var res multiVMResult
	m := harness.BuildMachine(cores, seed)
	if mode.perOp {
		for _, c := range m.Cores {
			c.SetBatching(false)
		}
	}
	if err := harness.StartNoise(m, seed^0x5EED); err != nil {
		return res, err
	}
	s, err := core.Start(m, core.Config{Events: []oprofile.EventConfig{{Event: hpc.GlobalPowerEvents, Period: 90_000}}})
	if err != nil {
		return res, err
	}
	launched := make([]*jvm.VM, vms)
	pids := make(map[string]int, vms)
	var baseSeconds float64
	for i, name := range multiVMBenches[:vms] {
		spec, err := workload.ByName(name)
		if err != nil {
			return res, err
		}
		prog, err := workload.Build(spec, scale)
		if err != nil {
			return res, err
		}
		p := jvm.Jikes()
		p.ProcName += "-" + name
		vm, proc, err := s.LaunchJVM(prog, jvm.Config{HeapBytes: spec.HeapBytes, Personality: p, DisableTrace: mode.disableTrace})
		if err != nil {
			return res, err
		}
		launched[i], pids[proc.Name] = vm, proc.PID
		baseSeconds += spec.BaseSeconds
	}
	if err := m.Kern.Run(uint64(baseSeconds*scale*100+60) * cpu.ClockHz); err != nil {
		return res, err
	}
	for i, vm := range launched {
		if !vm.Finished() {
			return res, fmt.Errorf("VM %s did not finish: %v", multiVMBenches[i], vm.Err())
		}
	}
	s.Shutdown()
	rep, _, err := s.Report(s.Images(launched...), pids)
	if err != nil {
		return res, err
	}
	var text bytes.Buffer
	if err := oprofile.Format(&text, rep, 0); err != nil {
		return res, err
	}
	for _, c := range m.Cores {
		res.Cycles = append(res.Cycles, c.Cycles())
		res.Instrs = append(res.Instrs, c.Instructions())
	}
	res.NMIs = s.Prof.Driver.Stats().NMIs
	res.Report = text.Bytes()
	return res, nil
}

// checkModesAgree runs one shape in every mode and reports where a mode
// departs from the fused run.
func checkModesAgree(t *testing.T, vms, cores int, seed int64, scale float64) bool {
	t.Helper()
	var fused multiVMResult
	for i, mode := range multiVMModes {
		r, err := multiVMRun(vms, cores, seed, scale, mode)
		if err != nil {
			t.Errorf("%d VMs, %d cores, seed %d, %s: %v", vms, cores, seed, mode.name, err)
			return false
		}
		if i == 0 {
			fused = r
			continue
		}
		if !slices.Equal(r.Cycles, fused.Cycles) || !slices.Equal(r.Instrs, fused.Instrs) ||
			r.NMIs != fused.NMIs || !bytes.Equal(r.Report, fused.Report) {
			t.Errorf("%d VMs, %d cores, seed %d: %s reads cycles %v, instructions %v, %d NMIs; fused reads %v, %v, %d (reports equal: %v)",
				vms, cores, seed, mode.name, r.Cycles, r.Instrs, r.NMIs,
				fused.Cycles, fused.Instrs, fused.NMIs, bytes.Equal(r.Report, fused.Report))
			return false
		}
	}
	return true
}

// TestMultiVMModesAgree runs the smp4-mix shape (four VMs on four
// cores) in all three modes, then a seeded sweep of shapes: 2-4 VMs on
// 2 or 4 cores, at small scales. The sweep runs 2 shapes by default
// (one under -short); `-args -quickchecks=N` widens it to N/50, as
// `make chaos-nightly` does.
func TestMultiVMModesAgree(t *testing.T) {
	checkModesAgree(t, 4, 4, 1, 0.2)
	if t.Failed() {
		return
	}
	cfg := &quick.Config{MaxCountScale: 0.02, Rand: rand.New(rand.NewSource(1))}
	if testing.Short() {
		cfg.MaxCount = 1
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return checkModesAgree(t, 2+r.Intn(3), 2<<r.Intn(2), 1+r.Int63n(1000), 0.05+0.05*float64(r.Intn(3)))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
