package harness

import (
	"fmt"
	"testing"

	"viprof/internal/oprofile"
	"viprof/internal/workload"
)

// smpRun executes one profiled run and returns everything the
// differential checks compare: the measurement, the rendered report,
// and the raw sample-file bytes.
func smpRun(t *testing.T, spec workload.Spec, opt Options) (*Result, *oprofile.Report, []byte) {
	t.Helper()
	rc := RunConfig{Kind: ProfVIProf, Period: 45_000, MissPeriod: 90_000}
	opt.KeepSession = true
	r, err := RunOnce(spec, rc, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := r.Session.Report(
		r.Session.Images(r.VM), map[string]int{r.Proc.Name: r.Proc.PID})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := r.Machine.Kern.Disk().Read(oprofile.SampleFile)
	if err != nil {
		t.Fatal(err)
	}
	return r, rep, raw
}

// compareRuns asserts two runs are bit-for-bit identical through the
// whole pipeline: cycle count, every stats block, the raw persisted
// sample stream, and the report rows.
func compareRuns(t *testing.T, a, b *Result, repA, repB *oprofile.Report, rawA, rawB []byte) {
	t.Helper()
	if a.Cycles != b.Cycles {
		t.Errorf("cycles: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.DriverStats != b.DriverStats {
		t.Errorf("driver stats: %+v vs %+v", a.DriverStats, b.DriverStats)
	}
	if a.VMStats != b.VMStats {
		t.Errorf("vm stats: %+v vs %+v", a.VMStats, b.VMStats)
	}
	if a.AgentStats != b.AgentStats {
		t.Errorf("agent stats: %+v vs %+v", a.AgentStats, b.AgentStats)
	}
	if string(rawA) != string(rawB) {
		t.Errorf("sample files differ: %d vs %d bytes", len(rawA), len(rawB))
	}
	if repA.Totals != repB.Totals {
		t.Errorf("report totals: %v vs %v", repA.Totals, repB.Totals)
	}
	if len(repA.Rows) != len(repB.Rows) {
		t.Fatalf("report rows: %d vs %d", len(repA.Rows), len(repB.Rows))
	}
	for i := range repA.Rows {
		if repA.Rows[i] != repB.Rows[i] {
			t.Errorf("row %d: %+v vs %+v", i, repA.Rows[i], repB.Rows[i])
		}
	}
	if a.DriverStats.NMIs == 0 {
		t.Error("differential run sampled nothing — the comparison proved nothing")
	}
}

// The SMP scheduler at one core must be bit-for-bit the pre-SMP
// kernel: same cycle counts, same RNG consumption, same sample stream,
// same report. RunLegacy is the pre-SMP loop kept verbatim as the
// oracle; a quickcheck-style seed sweep pins the equivalence across
// distinct noise schedules rather than one lucky seed.
func TestSMPSingleCoreMatchesLegacyOracle(t *testing.T) {
	spec, err := workload.ByName("fop")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{3, 11, 29} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			smp, repS, rawS := smpRun(t, spec, Options{Scale: testScale, Seed: seed, Cores: 1})
			leg, repL, rawL := smpRun(t, spec, Options{Scale: testScale, Seed: seed, legacyRun: true})
			compareRuns(t, smp, leg, repS, repL, rawS, rawL)
		})
	}
}

// A fixed (seed, cores) pair must be exactly reproducible: the SMP
// scheduler, the coherency directory, and the concurrent shard drain
// may not leak host scheduling or map-iteration nondeterminism into
// the simulation. Two identical runs per core count, compared through
// the whole pipeline.
func TestSMPDeterminismSweep(t *testing.T) {
	spec, err := workload.ByName("fop")
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{2, 4, 8} {
		cores := cores
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			t.Parallel()
			opt := Options{Scale: testScale, Seed: 17, Cores: cores}
			a, repA, rawA := smpRun(t, spec, opt)
			b, repB, rawB := smpRun(t, spec, opt)
			compareRuns(t, a, b, repA, repB, rawA, rawB)
			if got := len(a.Machine.Cores); got != cores {
				t.Errorf("machine has %d cores, want %d", got, cores)
			}
		})
	}
}

// On a multi-core machine the per-CPU shard split must stay conserved
// end to end even in a clean run: per-CPU driver stats sum to the
// aggregate, the daemon's per-CPU aggregation matches each shard's
// logged count, and the report's per-CPU breakdown sums to its totals.
func TestSMPCleanRunPerCPUConservation(t *testing.T) {
	spec, err := workload.ByName("fop")
	if err != nil {
		t.Fatal(err)
	}
	r, rep, _ := smpRun(t, spec, Options{Scale: testScale, Seed: 5, Cores: 4})
	if err := r.Session.Prof.CheckConservation(); err != nil {
		t.Error(err)
	}
	for _, ev := range rep.Events {
		var cpuSum uint64
		for _, ct := range rep.PerCPU {
			cpuSum += ct.Counts[ev]
		}
		if cpuSum != rep.Totals[ev] {
			t.Errorf("report per-CPU breakdown for %v sums to %d, total is %d",
				ev, cpuSum, rep.Totals[ev])
		}
	}
	if r.DriverStats.NMIs == 0 {
		t.Error("conservation test sampled nothing")
	}
}
