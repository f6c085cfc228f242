package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"viprof/internal/addr"
	"viprof/internal/cache"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]metric)
	for _, m := range bj.EndToEnd {
		declared[m.Name] = metric{name: m.Name, unit: m.Unit, better: m.Better, bound: m.Bound}
	}
	for _, m := range bj.PerLayer {
		if _, dup := declared[m.Name]; dup {
			t.Errorf("%s declared twice", m.Name)
		}
		declared[m.Name] = metric{name: m.Name, unit: m.Unit, better: m.Better, layer: true}
	}
	for _, m := range catalogue {
		d, ok := declared[m.name]
		if !ok {
			t.Errorf("benchmark emits %s, BENCHMARK.json does not declare it", m.name)
			continue
		}
		if d.unit != m.unit || d.better != m.better || d.layer != m.layer || d.bound != m.bound {
			t.Errorf("%s: BENCHMARK.json says %+v, the catalogue %+v", m.name, d, m)
		}
		delete(declared, m.name)
	}
	for name := range declared {
		t.Errorf("BENCHMARK.json declares %s, the benchmark never emits it", name)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
}

func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	h := cache.DefaultHierarchy()
	deadline := time.Now().Add(400 * time.Millisecond)
	for a := addr.Address(0); time.Now().Before(deadline); a += 4096 * 8 {
		for i := addr.Address(0); i < 1<<14; i += 64 {
			h.Access(a + i)
		}
	}
	pprof.StopCPUProfile()
	folded := make(map[string]float64)
	if err := foldProfile(buf.Bytes(), folded); err != nil {
		t.Fatal(err)
	}
	sh := shares(folded)
	var sum float64
	for _, v := range sh {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, sh)
	}
	// Under the race detector most leaf frames are its own runtime and
	// C functions; the cache layer must still lead the other layers.
	if sh["cache"] == 0 {
		t.Errorf("a cache-access loop folded to no cache time: %v", sh)
	}
	for b, v := range sh {
		if b != "cache" && b != "other" && b != "goruntime" && v >= sh["cache"] {
			t.Errorf("a cache-access loop folded to %.1f%% cache but %.1f%% %s: %v", sh["cache"], v, b, sh)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct{ sym, bucket string }{
		{"viprof/internal/cpu.(*Core).Exec", "cpu"},
		{"viprof/internal/jvm/jit.Compile", "jit"},
		{"viprof/internal/jvm/aos.(*AOS).Tick", "jit"},
		{"viprof/internal/jvm/gc.(*Heap).Collect", "gc"},
		{"viprof/internal/jvm/bytecode.(*Asm).Emit", "jvm"},
		{"viprof/internal/jvm.(*VM).step.func1", "jvm"},
		{"viprof/internal/fleet.LoadStore", "fleet"},
		{"viprof.(*FleetView).RenderWindow", "fleet"},
		{"viprof/internal/harness.(*noiseProc).Step", "workload"},
		{"runtime.mallocgc", "goruntime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "goruntime"},
		{"compress/flate.(*compressor).deflate", "other"},
		{"main.main", "other"},
	} {
		if got := bucketOf(funcPackage(tc.sym)); got != tc.bucket {
			t.Errorf("%s: bucket %q, want %q", tc.sym, got, tc.bucket)
		}
	}
}

func TestSummarize(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		name             string
		xs               []float64
		median, p25, p75 float64
		min, max         float64
		tailPct          int
		tail             float64
	}{
		{"one", []float64{7}, 7, 7, 7, 7, 7, 0, 0},
		{"two", []float64{1, 3}, 2, 1.5, 2.5, 1, 3, 0, 0},
		{"five", seq(5), 3, 2, 4, 1, 5, 0, 0},
		{"ten has no tail", seq(10), 5.5, 3.25, 7.75, 1, 10, 0, 0},
		{"eleven", seq(11), 6, 3.5, 8.5, 1, 11, 9, 1},
		{"thirty", seq(30), 15.5, 8.25, 22.75, 1, 30, 66, 20},
	} {
		s := summarize("s", tc.xs)
		if s.N != len(tc.xs) || s.Median != tc.median || s.P25 != tc.p25 || s.P75 != tc.p75 ||
			s.Min != tc.min || s.Max != tc.max || s.TailPct != tc.tailPct || s.Tail != tc.tail {
			t.Errorf("%s: got %+v", tc.name, s)
		}
	}
}

func TestHostScale(t *testing.T) {
	for _, tc := range []struct {
		refs []time.Duration
		want float64
	}{
		{[]time.Duration{refNominal, refNominal}, 1},
		{[]time.Duration{2 * refNominal, 2 * refNominal}, 0.5},
		{[]time.Duration{refNominal, 3 * refNominal}, 0.5}, // by the mean
		{[]time.Duration{refNominal / 2, refNominal / 2, refNominal / 2}, 2},
	} {
		if got := hostScale(tc.refs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("hostScale(%v) = %v, want %v", tc.refs, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metric{name: "wall_s", better: "lower", bound: 0.10}
	higher := metric{name: "sim_mcycles_per_s", better: "higher", bound: 0.10}
	floored := metric{name: "setup_s", better: "lower", bound: 0.25, floor: 0.5}
	exact := metric{name: "jvm.compiles", layer: true, exact: true}
	unbounded := metric{name: "kernel.run_s", layer: true}
	s := func(median, p25, p75, min, max float64) Summary {
		return Summary{Median: median, P25: p25, P75: p75, Min: min, Max: max}
	}
	tight := s(100, 99, 101, 98, 102)
	for _, tc := range []struct {
		name string
		m    metric
		a, b Summary
		want string
	}{
		{"same median", lower, tight, tight, "within"},
		{"inside bound", lower, tight, s(108, 107, 109, 106, 110), "within"},
		{"lower-better worse", lower, tight, s(115, 114, 116, 113, 117), "worse"},
		{"lower-better improved", lower, tight, s(85, 84, 86, 83, 87), "improved"},
		{"higher-better worse", higher, tight, s(85, 84, 86, 83, 87), "worse"},
		{"higher-better improved", higher, tight, s(115, 114, 116, 113, 117), "improved"},
		{"wide parent IQR", lower, s(100, 80, 120, 70, 130), s(100, 99, 101, 98, 102), "unresolved"},
		{"wide parent IQR, change beats every run", lower, s(100, 80, 120, 70, 130), s(60, 59, 61, 58, 62), "improved"},
		{"wide parent IQR, change loses every run", lower, s(100, 80, 120, 70, 130), s(140, 139, 141, 138, 142), "worse"},
		{"floor absorbs a small absolute change", floored, s(1, 0.9, 1.1, 0.8, 1.2), s(1.4, 1.3, 1.5, 1.2, 1.6), "within"},
		{"exact equal", exact, s(729, 729, 729, 729, 729), s(729, 729, 729, 729, 729), "same"},
		{"exact changed", exact, s(729, 729, 729, 729, 729), s(730, 730, 730, 730, 730), "changed"},
		{"per-layer timing has no bound", unbounded, tight, s(200, 199, 201, 198, 202), "-"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// reduced shrinks a workload so its whole verify path runs in a test.
func reduced(w workload) workload {
	w.reps = 2
	if w.isFleet() {
		w.hosts, w.deltas, w.windows = 4, 8, 5
	} else {
		w.scale = 0.01
	}
	return w
}

// checkEmitted checks that the final-line metrics are exactly the
// catalogue's end-to-end (or, traced, per-layer) names.
func checkEmitted(t *testing.T, wr WorkloadResult, trace bool) {
	t.Helper()
	got := resultLine(wr, trace)["metrics"].(map[string]any)
	n := 0
	for _, m := range catalogue {
		if m.layer != trace {
			continue
		}
		n++
		if _, ok := got[m.name]; !ok {
			t.Errorf("trace %v: %s not emitted", trace, m.name)
		}
	}
	if len(got) != n {
		t.Errorf("trace %v: %d metrics emitted, the catalogue has %d", trace, len(got), n)
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := reduced(w)
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			wr := runWorkload(w, 3, false, 0)
			if wr.Failed != 0 || wr.Attempted != 2 {
				t.Fatalf("attempted %d, failed %d: %v", wr.Attempted, wr.Failed, wr.Failures)
			}
			if len(wr.ReportSHA256) != 64 {
				t.Errorf("report sha256 %q", wr.ReportSHA256)
			}
			if w.isFleet() && wr.Metrics["fleet.restarts"].Median == 0 {
				t.Error("the crash plan caused no shard restart")
			}
			if !w.isFleet() && wr.Metrics["unresolved_pct"].Median != 0 {
				t.Errorf("unresolved_pct %v, want 0", wr.Metrics["unresolved_pct"].Median)
			}
			for _, m := range catalogue {
				if !m.layer && wr.Metrics[m.name].Median <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.name, wr.Metrics[m.name].Median)
				}
			}
			checkEmitted(t, wr, false)
		})
	}
}

func TestTracedRun(t *testing.T) {
	w, _ := workloadByName("antlr-epochs")
	w.scale = 0.01
	// A time budget rather than a rep count, so the traced reps give the
	// CPU profile enough samples with or without the race detector.
	wr := runWorkload(w, 3, true, time.Second)
	if wr.Failed != 0 {
		t.Fatalf("failed %d: %v", wr.Failed, wr.Failures)
	}
	if sum := sumShares(wr.Metrics); math.Abs(sum-100) > 1e-6 {
		t.Errorf("self-time shares sum to %v", sum)
	}
	for _, name := range []string{"kernel.run_s", "core.report_s", "bench.trace_overhead", "bench.span_coverage_pct"} {
		if s := wr.Metrics[name]; s.N == 0 || s.Median <= 0 {
			t.Errorf("%s = %+v, want > 0", name, s)
		}
	}
	checkEmitted(t, wr, true)
}
