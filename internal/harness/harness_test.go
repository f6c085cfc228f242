package harness

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/hpc"
	"viprof/internal/workload"
)

const testScale = 0.08

func TestTrimmedMean(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{4, 6}, 5},
		{[]float64{1, 2, 3}, 2},             // drops 1 and 3
		{[]float64{100, 2, 2, 2, 0}, 2},     // outliers dropped
		{[]float64{3, 1, 2, 4, 10, 0}, 2.5}, // (1+2+3+4)/4
	}
	for _, tt := range tests {
		if got := TrimmedMean(tt.in); got != tt.want {
			t.Errorf("TrimmedMean(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// Property: the trimmed mean lies within [min, max] of the inputs and
// is invariant under permutation.
func TestTrimmedMeanQuick(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if x == x && x < 1e12 && x > -1e12 { // drop NaN/huge
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := TrimmedMean(clean)
		min, max := clean[0], clean[0]
		for _, x := range clean {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		if m < min-1e-9 || m > max+1e-9 {
			return false
		}
		// permutation invariance: reverse
		rev := make([]float64, len(clean))
		for i, x := range clean {
			rev[len(clean)-1-i] = x
		}
		return TrimmedMean(rev) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunConfigLabels(t *testing.T) {
	tests := []struct {
		rc   RunConfig
		want string
	}{
		{RunConfig{Kind: ProfNone}, "base"},
		{RunConfig{Kind: ProfOprofile, Period: 90_000}, "Oprof 90K"},
		{RunConfig{Kind: ProfVIProf, Period: 45_000}, "VIProf 45K"},
		{RunConfig{Kind: ProfVIProf, Period: 450_000}, "VIProf 450K"},
	}
	for _, tt := range tests {
		if got := tt.rc.Label(); got != tt.want {
			t.Errorf("Label() = %q, want %q", got, tt.want)
		}
	}
}

func TestRunOnceBaseVsProfiled(t *testing.T) {
	spec, err := workload.ByName("fop")
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunOnce(spec, RunConfig{Kind: ProfNone}, Options{Scale: testScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	vip, err := RunOnce(spec, RunConfig{Kind: ProfVIProf, Period: 45_000},
		Options{Scale: testScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Seconds <= 0 || vip.Seconds <= base.Seconds {
		t.Errorf("profiling did not slow the run: base %.3f vs viprof %.3f",
			base.Seconds, vip.Seconds)
	}
	if vip.DriverStats.NMIs == 0 || vip.DriverStats.JITSamples == 0 {
		t.Errorf("driver stats empty: %+v", vip.DriverStats)
	}
	if vip.AgentStats.MapsWritten == 0 {
		t.Errorf("agent wrote no maps: %+v", vip.AgentStats)
	}
	if base.VMStats.BytecodesRun != vip.VMStats.BytecodesRun {
		t.Errorf("profiling changed the program: %d vs %d bytecodes",
			base.VMStats.BytecodesRun, vip.VMStats.BytecodesRun)
	}
}

func TestRunOnceKeepSession(t *testing.T) {
	spec, _ := workload.ByName("fop")
	r, err := RunOnce(spec, RunConfig{Kind: ProfVIProf, Period: 90_000},
		Options{Scale: testScale, Seed: 1, KeepSession: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Session == nil || r.Machine == nil || r.VM == nil || r.Proc == nil {
		t.Error("session state not kept")
	}
	r2, err := RunOnce(spec, RunConfig{Kind: ProfVIProf, Period: 90_000},
		Options{Scale: testScale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Session != nil || r2.Machine != nil {
		t.Error("session state kept without KeepSession")
	}
}

func TestRepeatProtocol(t *testing.T) {
	spec, _ := workload.ByName("fop")
	s, err := Repeat(spec, RunConfig{Kind: ProfNone, Noise: true}, 5,
		Options{Scale: testScale, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Seconds) != 5 {
		t.Fatalf("got %d runs", len(s.Seconds))
	}
	// Noise seeds differ per run: times should not all be identical.
	allSame := true
	for _, x := range s.Seconds[1:] {
		if x != s.Seconds[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("no run-to-run variance despite noise")
	}
	if s.Mean <= 0 {
		t.Error("mean not computed")
	}
}

func TestNoiseProcessSamplesAppear(t *testing.T) {
	spec, _ := workload.ByName("fop")
	r, err := RunOnce(spec, RunConfig{Kind: ProfVIProf, Period: 20_000, Noise: true},
		Options{Scale: testScale, Seed: 9, KeepSession: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.Machine.Kern.Disk().Read("var/lib/oprofile/samples.log")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "libxul.so.0d") && !strings.Contains(text, "libfb.so") {
		t.Error("no X-server noise samples (Figure 1 shows libxul/libfb rows)")
	}
}

func TestFigure2SubsetShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fig, err := Figure2Subset([]string{"fop"}, testScale, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.Format(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Oprof 90K", "VIProf 45K", "VIProf 90K", "VIProf 450K", "fop", "Average"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 output missing %q:\n%s", want, out)
		}
	}
	// Core ordering claims: all configs slow the system down; 45K costs
	// more than 450K.
	for _, label := range []string{"Oprof 90K", "VIProf 45K", "VIProf 90K", "VIProf 450K"} {
		if fig.Slowdown["fop"][label] < 1.0 {
			t.Errorf("%s produced a speedup over base: %v", label, fig.Slowdown["fop"][label])
		}
	}
	if fig.Slowdown["fop"]["VIProf 45K"] <= fig.Slowdown["fop"]["VIProf 450K"] {
		t.Errorf("45K (%v) not costlier than 450K (%v)",
			fig.Slowdown["fop"]["VIProf 45K"], fig.Slowdown["fop"]["VIProf 450K"])
	}
}

// Figure 2's header reports the runs per cell that actually ran, not
// the count asked for: Repeat runs a cell at least once.
func TestFigure2ReportsRunsMade(t *testing.T) {
	fig, err := Figure2Subset([]string{"fop"}, testScale, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Runs != 1 {
		t.Errorf("Runs = %d after asking for 0, want 1", fig.Runs)
	}
}

func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fig, err := Figure3(testScale, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 10 { // 9 benchmarks + average
		t.Fatalf("%d rows", len(fig.Rows))
	}
	var buf bytes.Buffer
	if err := fig.Format(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pseudojbb") {
		t.Error("format lost benchmarks")
	}
	// Relative ordering of base times must match the paper: xalan is
	// the longest, fop the shortest.
	times := map[string]float64{}
	for _, r := range fig.Rows {
		times[r.Bench] = r.Seconds
	}
	for _, b := range workload.Names() {
		if b == "xalan" {
			continue
		}
		if times[b] >= times["xalan"] {
			t.Errorf("%s (%v) not shorter than xalan (%v)", b, times[b], times["xalan"])
		}
		if b != "fop" && times[b] <= times["fop"] {
			t.Errorf("%s (%v) not longer than fop (%v)", b, times[b], times["fop"])
		}
	}
}

func TestFigure1Reports(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	fig, err := Figure1(testScale, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig.Rendered, "--- VIProf ---") ||
		!strings.Contains(fig.Rendered, "--- Oprofile ---") {
		t.Fatal("rendering incomplete")
	}
	// Upper half names the paper's hot method; lower half cannot.
	if _, ok := fig.VIProf.Find("edu.unm.cs.oal.dacapo.javapostscript.red.scanner.Scanner.parseLine"); !ok {
		t.Error("VIProf half missing Scanner.parseLine")
	}
	if _, ok := fig.OProfile.Find("edu.unm.cs.oal.dacapo.javapostscript.red.scanner.Scanner.parseLine"); ok {
		t.Error("OProfile half resolved a Java method")
	}
	// Lower half must show the black boxes.
	sawAnon := false
	for _, r := range fig.OProfile.Rows {
		if strings.HasPrefix(r.Image, "anon (range:") {
			sawAnon = true
		}
	}
	if !sawAnon {
		t.Error("OProfile half has no anonymous rows")
	}
	// Both halves use both events.
	if len(fig.VIProf.Events) != 2 || fig.VIProf.Totals[hpc.BSQCacheReference] == 0 {
		t.Error("miss event missing from VIProf half")
	}
}
