package harness

import (
	"bytes"
	"fmt"
	"io"

	"viprof/internal/core"
	"viprof/internal/oprofile"
	"viprof/internal/workload"
)

// Figure 2's four profiling cells, in the paper's legend order.
func Figure2Configs() []RunConfig {
	return []RunConfig{
		{Kind: ProfOprofile, Period: 90_000, Noise: true},
		{Kind: ProfVIProf, Period: 45_000, Noise: true},
		{Kind: ProfVIProf, Period: 90_000, Noise: true},
		{Kind: ProfVIProf, Period: 450_000, Noise: true},
	}
}

// Fig3 is the base-execution-time table (paper Figure 3).
type Fig3 struct {
	Scale float64
	Rows  []Fig3Row
}

// Fig3Row is one benchmark's base time.
type Fig3Row struct {
	Bench     string
	Seconds   float64 // measured (trimmed mean)
	PaperSecs float64 // Figure 3's value, scaled
}

// Figure3 measures base (unprofiled) execution time for the whole
// suite.
func Figure3(scale float64, runs int, seed int64) (*Fig3, error) {
	fig := &Fig3{Scale: scale}
	var sum, paperSum float64
	for _, spec := range workload.Suite() {
		s, err := Repeat(spec, RunConfig{Kind: ProfNone, Noise: true}, runs,
			Options{Scale: scale, Seed: seed})
		if err != nil {
			return nil, err
		}
		fig.Rows = append(fig.Rows, Fig3Row{
			Bench:     spec.Name,
			Seconds:   s.Mean,
			PaperSecs: spec.BaseSeconds * scale,
		})
		sum += s.Mean
		paperSum += spec.BaseSeconds * scale
	}
	fig.Rows = append(fig.Rows, Fig3Row{
		Bench:     "Average",
		Seconds:   sum / float64(len(workload.Suite())),
		PaperSecs: paperSum / float64(len(workload.Suite())),
	})
	return fig, nil
}

// Format renders the table like the paper's Figure 3, with the
// calibration target alongside.
func (f *Fig3) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure 3: base execution time in seconds (scale %.2f)\n", f.Scale); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %10s %12s\n", "Benchmark", "Base time", "Paper value")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-12s %10.2f %12.2f\n", r.Bench, r.Seconds, r.PaperSecs)
	}
	return nil
}

// Fig2 is the profiling-overhead chart (paper Figure 2): slowdown
// relative to base per benchmark per configuration.
type Fig2 struct {
	Scale    float64
	Runs     int // runs made per cell
	Configs  []RunConfig
	Benches  []string
	Base     map[string]float64            // bench -> base seconds
	Slowdown map[string]map[string]float64 // bench -> config label -> slowdown
}

// Figure2 runs the full overhead experiment.
func Figure2(scale float64, runs int, seed int64) (*Fig2, error) {
	return figure2(workload.Suite(), scale, runs, seed)
}

// Figure2Subset runs the overhead experiment on named benchmarks only
// (tests and quick looks).
func Figure2Subset(names []string, scale float64, runs int, seed int64) (*Fig2, error) {
	var specs []workload.Spec
	for _, n := range names {
		s, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return figure2(specs, scale, runs, seed)
}

func figure2(specs []workload.Spec, scale float64, runs int, seed int64) (*Fig2, error) {
	fig := &Fig2{
		Scale:    scale,
		Configs:  Figure2Configs(),
		Base:     make(map[string]float64),
		Slowdown: make(map[string]map[string]float64),
	}
	for _, spec := range specs {
		fig.Benches = append(fig.Benches, spec.Name)
		base, err := Repeat(spec, RunConfig{Kind: ProfNone, Noise: true}, runs,
			Options{Scale: scale, Seed: seed})
		if err != nil {
			return nil, err
		}
		fig.Runs = len(base.Seconds) // Repeat runs at least once
		fig.Base[spec.Name] = base.Mean
		fig.Slowdown[spec.Name] = make(map[string]float64)
		for _, rc := range fig.Configs {
			s, err := Repeat(spec, rc, runs, Options{Scale: scale, Seed: seed})
			if err != nil {
				return nil, err
			}
			fig.Slowdown[spec.Name][rc.Label()] = s.Mean / base.Mean
		}
	}
	return fig, nil
}

// AverageSlowdown returns the mean slowdown of one configuration
// across all benchmarks.
func (f *Fig2) AverageSlowdown(label string) float64 {
	var sum float64
	var n int
	for _, b := range f.Benches {
		if v, ok := f.Slowdown[b][label]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Format renders the slowdown table (the paper draws bars; the numbers
// are the same data).
func (f *Fig2) Format(w io.Writer) error {
	fmt.Fprintf(w, "Figure 2: slowdown vs base (scale %.2f, %d runs, trimmed mean)\n", f.Scale, f.Runs)
	fmt.Fprintf(w, "%-12s", "benchmark")
	for _, rc := range f.Configs {
		fmt.Fprintf(w, "%12s", rc.Label())
	}
	fmt.Fprintln(w)
	for _, b := range f.Benches {
		fmt.Fprintf(w, "%-12s", b)
		for _, rc := range f.Configs {
			fmt.Fprintf(w, "%12.3f", f.Slowdown[b][rc.Label()])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s", "Average")
	for _, rc := range f.Configs {
		fmt.Fprintf(w, "%12.3f", f.AverageSlowdown(rc.Label()))
	}
	fmt.Fprintln(w)
	return nil
}

// Fig1 is the case-study report pair (paper Figure 1): the same
// benchmark profiled by VIProf (methods across all layers) and by
// plain OProfile (black boxes).
type Fig1 struct {
	VIProf   *oprofile.Report
	OProfile *oprofile.Report
	// Rendered holds both reports formatted as in the paper.
	Rendered string
}

// Figure1 runs DaCapo ps twice — once under VIProf, once under plain
// OProfile — with both hardware events armed, and renders the
// side-by-side reports.
func Figure1(scale float64, seed int64, maxRows int) (*Fig1, error) {
	spec, err := workload.ByName("ps")
	if err != nil {
		return nil, err
	}
	// Upper half: VIProf.
	vipRes, err := RunOnce(spec, RunConfig{
		Kind: ProfVIProf, Period: 90_000, MissPeriod: 6_000, Noise: true,
	}, Options{Scale: scale, Seed: seed, KeepSession: true})
	if err != nil {
		return nil, err
	}
	s := vipRes.Session
	vipRep, _, err := s.Report(s.Images(vipRes.VM), map[string]int{vipRes.Proc.Name: vipRes.Proc.PID})
	if err != nil {
		return nil, err
	}

	// Lower half: plain OProfile, identical benchmark setup.
	opRes, err := RunOnce(spec, RunConfig{
		Kind: ProfOprofile, Period: 90_000, MissPeriod: 6_000, Noise: true,
	}, Options{Scale: scale, Seed: seed, KeepSession: true})
	if err != nil {
		return nil, err
	}
	opImages := core.StandardImages(opRes.Machine, opRes.VM)
	opRep, err := oprofile.Opreport(opRes.Machine.Kern.Disk(), opImages, s.Events())
	if err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "Figure 1: DaCapo ps, events GLOBAL_POWER_EVENTS (time) and BSQ_CACHE_REFERENCE (L2 misses)\n\n")
	fmt.Fprintf(&buf, "--- VIProf ---\n")
	if err := oprofile.Format(&buf, vipRep, maxRows); err != nil {
		return nil, err
	}
	fmt.Fprintf(&buf, "\n--- Oprofile ---\n")
	if err := oprofile.Format(&buf, opRep, maxRows); err != nil {
		return nil, err
	}
	return &Fig1{VIProf: vipRep, OProfile: opRep, Rendered: buf.String()}, nil
}

// Activity is the reproduction's internals table: per-benchmark VM and
// profiler activity under VIProf at the 90K median frequency. It has no
// direct counterpart figure in the paper, but it documents the
// quantities the paper's §4.3 explanations appeal to (compile counts,
// GC/epoch counts, map-write volume).
type Activity struct {
	Scale float64
	Rows  []ActivityRow
}

// ActivityRow is one benchmark's internals.
type ActivityRow struct {
	Bench       string
	Seconds     float64
	Compiles    int
	OptCompiles int
	OSRs        int
	Epochs      int
	MapsWritten int
	MapBytes    uint64
	Samples     uint64
	JITShare    float64 // fraction of logged samples in JIT code
}

// ActivityTable runs the suite once under VIProf 90K and collects the
// internals.
func ActivityTable(scale float64, seed int64) (*Activity, error) {
	act := &Activity{Scale: scale}
	rc := RunConfig{Kind: ProfVIProf, Period: 90_000, Noise: true}
	for _, spec := range workload.Suite() {
		r, err := RunOnce(spec, rc, Options{Scale: scale, Seed: seed})
		if err != nil {
			return nil, err
		}
		row := ActivityRow{
			Bench:       spec.Name,
			Seconds:     r.Seconds,
			Compiles:    r.VMStats.BaselineCompiles,
			OptCompiles: r.VMStats.OptCompiles,
			OSRs:        r.VMStats.OSRs,
			Epochs:      r.VMStats.Collections,
			MapsWritten: r.AgentStats.MapsWritten,
			MapBytes:    r.AgentStats.MapBytes,
			Samples:     r.DriverStats.Logged,
		}
		if r.DriverStats.Logged > 0 {
			row.JITShare = float64(r.DriverStats.JITSamples) / float64(r.DriverStats.Logged)
		}
		act.Rows = append(act.Rows, row)
	}
	return act, nil
}

// Format renders the activity table.
func (a *Activity) Format(w io.Writer) error {
	fmt.Fprintf(w, "Activity under VIProf 90K (scale %.2f)\n", a.Scale)
	fmt.Fprintf(w, "%-12s %8s %8s %5s %5s %7s %6s %9s %8s %8s\n",
		"benchmark", "seconds", "compiles", "opt", "OSR", "epochs", "maps", "mapbytes", "samples", "jit%")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%-12s %8.2f %8d %5d %5d %7d %6d %9d %8d %7.1f%%\n",
			r.Bench, r.Seconds, r.Compiles, r.OptCompiles, r.OSRs, r.Epochs,
			r.MapsWritten, r.MapBytes, r.Samples, 100*r.JITShare)
	}
	return nil
}
