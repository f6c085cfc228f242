package viprof

// The SMP scaling workload: the dispatch-heavy program of the trace
// bench, run as several concurrent VM processes under one VIProf
// session on machines with 1, 2, 4 and 8 cores. The simulated work is
// fixed, so aggregate profiling throughput per *simulated* second
// should scale with the core count until the VM count caps it. Every
// run verifies the per-CPU conservation invariants end to end: per-CPU
// driver stats must sum to the aggregate, and each CPU's
// daemon-aggregated count plus its shard residue must equal what the
// driver logged on that CPU.

import (
	"fmt"
	"testing"

	"viprof/internal/core"
	"viprof/internal/harness"
	"viprof/internal/hpc"
	"viprof/internal/jvm"
	"viprof/internal/oprofile"
)

// smpBenchVMs is the concurrent VM-process count: enough runnable
// processes that 4 cores can all stay busy (the headline scaling cell),
// while the 8-core cell exposes the steal path running out of work.
const smpBenchVMs = 4

// smpBenchOuter and smpBenchInner size each VM's run: outer worker
// calls of inner loop iterations each, ~2.5M bytecodes per VM — long
// enough that steady-state sampling dominates startup.
const (
	smpBenchOuter = 60
	smpBenchInner = 1200
)

// smpBenchResult carries one SMP bench cell's verified outcome.
type smpBenchResult struct {
	// Samples is the aggregate driver-logged sample count across all
	// per-CPU shards.
	Samples uint64
	// WallCycles is the simulated wall clock: the furthest-ahead core.
	WallCycles uint64
	// Migrations counts pull-based steals the scheduler performed.
	Migrations uint64
	// CohTransfers counts cross-core cache-line transfers billed by the
	// coherency directory.
	CohTransfers uint64
}

// smpBenchRun executes the fixed SMP workload on a machine with the
// given core count, with both paper events armed, and returns the
// verified outcome.
func smpBenchRun(cores int) (smpBenchResult, error) {
	var res smpBenchResult
	m := harness.BuildMachine(cores, int64(cores)*271+9)
	// Count coherency traffic without sampling it: a huge period never
	// overflows, so the counter is a pure event meter.
	for _, c := range m.Cores {
		if _, err := c.Bank.Program(hpc.CoherencyTransfers, 1<<62); err != nil {
			return res, err
		}
	}
	session, err := core.Start(m, core.Config{Events: []oprofile.EventConfig{
		{Event: hpc.GlobalPowerEvents, Period: 45_000},
		{Event: hpc.BSQCacheReference, Period: 90_000},
	}})
	if err != nil {
		return res, err
	}
	vms := make([]*jvm.VM, smpBenchVMs)
	for i := range vms {
		prog := dispatchProgram(fmt.Sprintf("smpbench%d", i), smpBenchOuter, smpBenchInner)
		vm, _, err := session.LaunchJVM(prog, jvm.Config{HeapBytes: 256 << 10, AOSThreshold: 120})
		if err != nil {
			return res, err
		}
		vms[i] = vm
	}
	if err := m.Kern.Run(200_000_000_000); err != nil {
		return res, err
	}
	for i, vm := range vms {
		if !vm.Finished() {
			return res, fmt.Errorf("smpbench: vm %d: %v", i, vm.Err())
		}
	}
	session.Shutdown()

	res.Samples = session.Prof.Driver.Stats().Logged
	for _, c := range m.Cores {
		if c.Cycles() > res.WallCycles {
			res.WallCycles = c.Cycles()
		}
		if ctr, ok := c.Bank.Counter(hpc.CoherencyTransfers); ok {
			res.CohTransfers += ctr.Total()
		}
	}
	res.Migrations = m.Kern.Migrations()

	// Per-CPU conservation: the sharded pipeline must account for every
	// sample on the core it fired on.
	if err := session.Prof.CheckConservation(); err != nil {
		return res, fmt.Errorf("smpbench: %v", err)
	}
	if res.Samples == 0 {
		return res, fmt.Errorf("smpbench: %d cores sampled nothing", cores)
	}
	return res, nil
}

// TestSMPBenchScaling runs the workload at 1, 2, 4 and 8 cores through
// smpBenchRun's per-CPU conservation checks and pins each cell. The
// 1- and 4-core cells run in short mode too, so the race run covers
// the concurrent shard drain; the 2- and 8-core cells skip there. The
// 4-core cell must also show real scaling: at least 2x the single-core
// samples per simulated second.
func TestSMPBenchScaling(t *testing.T) {
	got := map[int]smpBenchResult{}
	for _, cell := range []struct {
		cores int
		want  smpBenchResult
	}{
		{1, smpBenchResult{Samples: 880, WallCycles: 40_564_368}},
		{2, smpBenchResult{Samples: 883, WallCycles: 20_410_001, Migrations: 1}},
		{4, smpBenchResult{Samples: 863, WallCycles: 10_016_472}},
		{8, smpBenchResult{Samples: 861, WallCycles: 9_969_794}},
	} {
		if (cell.cores == 2 || cell.cores == 8) && testing.Short() {
			continue
		}
		r, err := smpBenchRun(cell.cores)
		if err != nil {
			t.Fatalf("%d cores: %v", cell.cores, err)
		}
		if r != cell.want {
			t.Errorf("%d cores: %+v, want %+v", cell.cores, r, cell.want)
		}
		got[cell.cores] = r
	}
	perSimSec := func(r smpBenchResult) float64 { return float64(r.Samples) / float64(r.WallCycles) }
	if speedup := perSimSec(got[4]) / perSimSec(got[1]); speedup < 2.0 {
		t.Errorf("4-core samples/s speedup %.2fx below the 2x floor", speedup)
	}
}
