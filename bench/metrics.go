package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one catalogue entry. The catalogue is the single list of
// names the benchmark emits; BENCHMARK.json declares the same names
// (bench_test.go checks both directions).
type metric struct {
	name, unit, better string
	// layer marks a per-layer metric (reported by -trace 1 runs);
	// the rest are end-to-end.
	layer bool
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; floor is an absolute minimum for that allowance
	// in the metric's unit. Per-layer metrics carry no bound.
	bound, floor float64
	// exact marks a value that repeats bit for bit for a given seed
	// (simulated-clock counts): -compare checks it for equality.
	exact bool
}

func e2e(name, unit, better string, bound float64) metric {
	return metric{name: name, unit: unit, better: better, bound: bound}
}

func layer(name, unit, better string) metric {
	return metric{name: name, unit: unit, better: better, layer: true}
}

func count(name, unit, better string) metric {
	return metric{name: name, unit: unit, better: better, layer: true, exact: true}
}

// Span keys: one per public call the benchmark times from outside.
// Per-layer span metrics are these names plus "_s".
const (
	spanBuild        = "workload.build"
	spanBoot         = "kernel.boot"
	spanStart        = "core.start"
	spanLaunch       = "core.launch"
	spanRun          = "kernel.run"
	spanShutdown     = "oprofile.shutdown"
	spanReport       = "core.report"
	spanRender       = "oprofile.render"
	spanIngest       = "fleet.ingest"
	spanReplay       = "fleet.replay"
	spanCompact      = "fleet.compact"
	spanQueryWindow  = "fleet.query_window"
	spanRenderWindow = "fleet.render_window"
)

// layerBuckets are the pprof self-time buckets, in report order.
var layerBuckets = []string{
	"cpu", "cache", "hpc", "kernel", "jvm", "jit", "gc", "oprofile", "core",
	"fleet", "record", "image", "addr", "workload", "goruntime", "other",
}

var catalogue = buildCatalogue()

func buildCatalogue() []metric {
	ms := []metric{
		// Host-clock bounds are as wide as run-to-run noise on a shared
		// 2-core host requires (README.md, "Spread"); the memory metrics
		// repeat almost exactly and get tight bounds.
		{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.0005},
		e2e("wall_s", "s", "lower", 0.25),
		e2e("report_s", "s", "lower", 0.25),
		e2e("sim_mcycles_per_s", "Mcycles/s", "higher", 0.25),
		e2e("alloc_mb", "MB", "lower", 0.05),
		e2e("live_heap_mb", "MB", "lower", 0.05),
	}
	for _, s := range []string{spanBuild, spanBoot, spanStart, spanLaunch, spanRun,
		spanShutdown, spanReport, spanRender, spanIngest, spanReplay, spanCompact} {
		ms = append(ms, layer(s+"_s", "s", "lower"))
	}
	ms = append(ms,
		layer(spanQueryWindow+"_ms", "ms", "lower"),
		layer(spanRenderWindow+"_ms", "ms", "lower"),
		layer("fleet.query_p50_ms", "ms", "lower"),
		layer("fleet.query_p99_ms", "ms", "lower"),
		layer("fleet.ingest_ksamples_per_s", "ksamples/s", "higher"),
	)
	for _, b := range layerBuckets {
		ms = append(ms, layer(b+".self_pct", "%", "lower"))
	}
	ms = append(ms,
		count("overhead_pct", "%", "lower"),
		count("unresolved_pct", "%", "lower"),
		count("cpu.sim_mcycles", "Mcycles", "lower"),
		count("cpu.minstrs", "Minstrs", "lower"),
		count("cache.l1_miss_pct", "%", "lower"),
		count("cache.l2_miss_pct", "%", "lower"),
		count("cache.coh_transfers", "count", "lower"),
		count("jvm.mbytecodes", "Mbytecodes", "lower"),
		count("jvm.compiles", "count", "lower"),
		count("jvm.gcs", "count", "lower"),
		count("jvm.trace_replay_pct", "%", "higher"),
		count("kernel.ctx_switches", "count", "lower"),
		count("kernel.migrations", "count", "lower"),
		count("kernel.daemon_mcycles", "Mcycles", "lower"),
		count("oprofile.nmis", "count", "lower"),
		count("oprofile.dropped", "count", "lower"),
		count("oprofile.jit_sample_pct", "%", "higher"),
		count("oprofile.overhead_pct", "%", "lower"),
		count("core.maps_written", "count", "lower"),
		count("core.map_kb", "KB", "lower"),
		count("core.moves", "count", "lower"),
		count("core.agent_overhead_pct", "%", "lower"),
		count("core.resolve_depth", "maps", "lower"),
		count("fleet.samples", "count", "higher"),
		count("fleet.store_frames", "count", "lower"),
		count("fleet.restarts", "count", "lower"),
		count("fleet.failovers", "count", "lower"),
		count("fleet.handoffs", "count", "lower"),
		count("fleet.duplicates", "count", "lower"),
		count("fleet.compactions", "count", "lower"),
		count("fleet.sender_retries", "count", "lower"),
		layer("bench.trace_overhead", "ratio", "lower"),
		layer("bench.span_coverage_pct", "%", "higher"),
		layer("bench.ref_ms", "ms", "lower"),
	)
	return ms
}

func lookupMetric(name string) (metric, bool) {
	for _, m := range catalogue {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// Summary is one metric's distribution over the reps of a run.
type Summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// TailPct/Tail are the highest percentile with at least ten samples
	// beyond it, and its value (absent below 11 samples).
	TailPct int     `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// quantile interpolates linearly between closest ranks of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func summarize(unit string, xs []float64) Summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := Summary{Unit: unit, N: len(s)}
	if len(s) == 0 {
		return sum
	}
	sum.Median = quantile(s, 0.5)
	sum.P25 = quantile(s, 0.25)
	sum.P75 = quantile(s, 0.75)
	sum.Min, sum.Max = s[0], s[len(s)-1]
	if n := len(s); n > 10 {
		sum.TailPct = 100 * (n - 10) / n
		sum.Tail = s[n-11]
	}
	return sum
}

// verdict judges change b against parent a for one metric. A bounded
// metric is "unresolved" when the parent's own IQR is wider than the
// allowance, since run-to-run noise then hides a change of that size,
// unless the two runs separate completely.
func verdict(m metric, a, b Summary) string {
	if m.exact {
		if a.Median == b.Median && a.Min == b.Min && a.Max == b.Max {
			return "same"
		}
		return "changed"
	}
	if m.bound == 0 {
		return "-"
	}
	allowed := math.Max(m.bound*math.Abs(a.Median), m.floor)
	worse := b.Median - a.Median // positive = worse for a lower-is-better metric
	beatsAll, losesAll := b.Max < a.Min, b.Min > a.Max
	if m.better == "higher" {
		worse = -worse
		beatsAll, losesAll = b.Min > a.Max, b.Max < a.Min
	}
	if a.P75-a.P25 > allowed {
		switch {
		case beatsAll:
			return "improved"
		case losesAll:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case worse > allowed:
		return "worse"
	case -worse > allowed:
		return "improved"
	}
	return "within"
}

// Results is the one schema every benchmark run writes.
type Results struct {
	Schema     string           `json:"schema"`
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	Seed       int64            `json:"seed"`
	Trace      bool             `json:"trace"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// WorkloadResult is one workload's outcome within a run.
type WorkloadResult struct {
	Name         string             `json:"name"`
	Reps         int                `json:"reps"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Failures     []string           `json:"failures,omitempty"`
	ReportSHA256 string             `json:"report_sha256"`
	Metrics      map[string]Summary `json:"metrics"`
}

const schemaName = "viprof-bench/1"

// printTable writes one workload's metrics in catalogue order.
func printTable(w io.Writer, wr WorkloadResult) {
	fmt.Fprintf(w, "%s: %d reps, %d attempted, %d failed, report sha256 %s\n",
		wr.Name, wr.Reps, wr.Attempted, wr.Failed, wr.ReportSHA256)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  %-30s %-11s %4s %14s %14s %14s %14s %14s\n",
		"metric", "unit", "n", "median", "p25", "p75", "min", "max")
	for _, m := range catalogue {
		s, ok := wr.Metrics[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-30s %-11s %4d %14.6g %14.6g %14.6g %14.6g %14.6g\n",
			m.name, s.Unit, s.N, s.Median, s.P25, s.P75, s.Min, s.Max)
	}
}

// compareResults prints one row per (workload, metric) present in both
// runs and returns how many rows came out worse, unresolved or changed.
func compareResults(w io.Writer, a, b *Results) (bad int) {
	fmt.Fprintf(w, "A: commit %s, seed %d, trace %v\nB: commit %s, seed %d, trace %v\n\n",
		a.Commit, a.Seed, a.Trace, b.Commit, b.Seed, b.Trace)
	fmt.Fprintf(w, "%-14s %-30s %14s %12s %14s %12s %8s  %s\n",
		"workload", "metric", "A median", "A IQR", "B median", "B IQR", "bound", "verdict")
	byName := make(map[string]WorkloadResult, len(b.Workloads))
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		shaVerdict := "same"
		if wa.ReportSHA256 != wb.ReportSHA256 {
			shaVerdict, bad = "changed", bad+1
		}
		fmt.Fprintf(w, "%-14s %-30s %14s %12s %14s %12s %8s  %s\n",
			wa.Name, "report_sha256", short(wa.ReportSHA256), "", short(wb.ReportSHA256), "", "", shaVerdict)
		for _, m := range catalogue {
			sa, okA := wa.Metrics[m.name]
			sb, okB := wb.Metrics[m.name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, sa, sb)
			if v == "worse" || v == "unresolved" || v == "changed" {
				bad++
			}
			bound := ""
			if m.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.bound)
			}
			fmt.Fprintf(w, "%-14s %-30s %14.6g %12.4g %14.6g %12.4g %8s  %s\n",
				wa.Name, m.name, sa.Median, sa.P75-sa.P25, sb.Median, sb.P75-sb.P25, bound, v)
		}
	}
	fmt.Fprintf(w, "\n%d row(s) worse, unresolved or changed\n", bad)
	return bad
}

func short(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// resultLine renders the -workload result object: every catalogue
// metric of the requested kind, by median, with non-applicable
// per-layer metrics reported as 0.
func resultLine(wr WorkloadResult, trace bool) map[string]any {
	metrics := make(map[string]any)
	for _, m := range catalogue {
		if m.layer != trace {
			continue
		}
		v := 0.0
		if s, ok := wr.Metrics[m.name]; ok && s.N > 0 {
			v = s.Median
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return map[string]any{
		"correct":   wr.Failed == 0 && wr.Attempted > 0,
		"attempted": wr.Attempted,
		"failed":    wr.Failed,
		"metrics":   metrics,
	}
}
