package viprof

// Go benchmarks: one testing.B benchmark per table/figure of the
// paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out. These default to reduced workload scales so
// `go test -bench=.` completes in minutes; paper-scale figures are
// regenerated with `go run ./cmd/vipbench` (see EXPERIMENTS.md).
// The engine microbenchmarks (BenchmarkExecBatch, BenchmarkExecMemBatch,
// BenchmarkTraceBatch, BenchmarkEpochResolveIndexed) fail when their
// fast and reference paths disagree; `make bench-smoke` runs each once.
// End-to-end host time is measured by the benchmark program under
// bench/ (`bash bench/run.sh`), not here.
//
// Custom metrics (b.ReportMetric) carry the quantities the paper
// reports: slowdown factors for Figure 2, simulated seconds for
// Figure 3, map bytes for the partial-map ablation, and so on.

import (
	"math/rand"
	"strings"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/core"
	"viprof/internal/cpu"
	"viprof/internal/harness"
	"viprof/internal/hpc"
	"viprof/internal/jvm"
	"viprof/internal/workload"
)

const benchScale = 0.15 // workload scale for `go test -bench`

// BenchmarkFigure1 regenerates the case-study report pair (DaCapo ps
// under VIProf and under plain OProfile, both events armed) and reports
// how many distinct Java methods the VIProf half resolves that the
// OProfile half cannot.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure1(benchScale, int64(i)+1, 0)
		if err != nil {
			b.Fatal(err)
		}
		resolved := 0
		for _, row := range fig.VIProf.Rows {
			if row.Image == "JIT.App" && row.Symbol != "(no symbols)" {
				resolved++
			}
		}
		if resolved == 0 {
			b.Fatal("VIProf resolved no JIT methods")
		}
		for _, row := range fig.OProfile.Rows {
			if strings.Contains(row.Symbol, "parseLine") {
				b.Fatal("baseline resolved a Java method")
			}
		}
		b.ReportMetric(float64(resolved), "jit-methods")
	}
}

// BenchmarkFigure2 regenerates the overhead experiment on a
// representative benchmark subset and reports the average slowdown of
// each configuration. The paper's claims (§4.3): ~5% average for both
// profilers at the 90K period; higher frequency costs more; VIProf 450K
// is cheapest.
func BenchmarkFigure2(b *testing.B) {
	names := []string{"fop", "antlr", "ps"}
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure2Subset(names, benchScale, 3, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.AverageSlowdown("Oprof 90K"), "oprof90K-slowdown")
		b.ReportMetric(fig.AverageSlowdown("VIProf 45K"), "viprof45K-slowdown")
		b.ReportMetric(fig.AverageSlowdown("VIProf 90K"), "viprof90K-slowdown")
		b.ReportMetric(fig.AverageSlowdown("VIProf 450K"), "viprof450K-slowdown")
	}
}

// BenchmarkFigure3 regenerates the base-execution-time table and
// reports the suite-average simulated seconds (scaled).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure3(benchScale, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		avg := fig.Rows[len(fig.Rows)-1]
		if avg.Bench != "Average" {
			b.Fatal("no average row")
		}
		b.ReportMetric(avg.Seconds, "sim-seconds")
		b.ReportMetric(avg.Seconds/avg.PaperSecs, "vs-paper")
	}
}

// benchOne runs one (benchmark, config) cell and returns simulated
// seconds plus the full result.
func benchOne(b *testing.B, bench string, rc harness.RunConfig, seed int64) *harness.Result {
	b.Helper()
	spec, err := workload.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	r, err := harness.RunOnce(spec, rc, harness.Options{Scale: benchScale, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationFullMaps compares the paper's partial code maps
// against writing a full map at every epoch: bytes written and
// slowdown. Partial maps exist to bound agent overhead (§3.1).
func BenchmarkAblationFullMaps(b *testing.B) {
	rcPartial := harness.RunConfig{Kind: harness.ProfVIProf, Period: 90_000}
	rcFull := rcPartial
	rcFull.FullMaps = true
	for i := 0; i < b.N; i++ {
		p := benchOne(b, "antlr", rcPartial, int64(i)+1)
		f := benchOne(b, "antlr", rcFull, int64(i)+1)
		if f.AgentStats.MapBytes <= p.AgentStats.MapBytes {
			b.Fatalf("full maps wrote %d bytes <= partial %d",
				f.AgentStats.MapBytes, p.AgentStats.MapBytes)
		}
		b.ReportMetric(float64(p.AgentStats.MapBytes), "partial-bytes")
		b.ReportMetric(float64(f.AgentStats.MapBytes), "full-bytes")
		b.ReportMetric(f.Seconds/p.Seconds, "full-vs-partial-time")
	}
}

// BenchmarkAblationLogInGC compares the paper's "flag, don't log"
// move hook against eager logging from inside the collector — the
// design §3 rejects because GC code is highly tuned.
func BenchmarkAblationLogInGC(b *testing.B) {
	rcFlag := harness.RunConfig{Kind: harness.ProfVIProf, Period: 90_000}
	rcEager := rcFlag
	rcEager.EagerMoveLog = true
	for i := 0; i < b.N; i++ {
		flag := benchOne(b, "bloat", rcFlag, int64(i)+1)
		eager := benchOne(b, "bloat", rcEager, int64(i)+1)
		b.ReportMetric(eager.Seconds/flag.Seconds, "eager-vs-flag-time")
		b.ReportMetric(float64(flag.AgentStats.Moves), "moves")
	}
}

// BenchmarkAblationAnonPath quantifies the anonymous-bookkeeping work
// VIProf's JIT-region check replaces — the paper's explanation for the
// occasional VIProf-faster-than-OProfile bars in Figure 2 (§4.3).
func BenchmarkAblationAnonPath(b *testing.B) {
	rcOprof := harness.RunConfig{Kind: harness.ProfOprofile, Period: 90_000}
	rcVip := harness.RunConfig{Kind: harness.ProfVIProf, Period: 90_000}
	for i := 0; i < b.N; i++ {
		op := benchOne(b, "xalan", rcOprof, int64(i)+1)
		vp := benchOne(b, "xalan", rcVip, int64(i)+1)
		if op.DriverStats.AnonSamples == 0 {
			b.Fatal("baseline logged no anonymous samples")
		}
		if vp.DriverStats.JITSamples == 0 {
			b.Fatal("viprof claimed no JIT samples")
		}
		b.ReportMetric(float64(op.DriverStats.AnonSamples), "anon-samples")
		b.ReportMetric(float64(vp.DriverStats.JITSamples), "jit-samples")
		b.ReportMetric(vp.Seconds/op.Seconds, "viprof-vs-oprof-time")
	}
}

// BenchmarkEpochSearch measures the backward epoch search: how many
// maps the post-processor examines per JIT sample. With the mature
// space tenuring hot code, nearly all samples resolve in the first map
// examined.
func BenchmarkEpochSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := ProfileBenchmark("antlr", Options{Scale: benchScale, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		s := out.RawSession()
		proc := out.RawProcess()
		_, res, err := s.Report(s.Images(out.RawVM()), map[string]int{proc.Name: proc.PID})
		if err != nil {
			b.Fatal(err)
		}
		var total, weighted uint64
		maxDepth := 0
		for depth, n := range res.SearchDepths {
			total += n
			weighted += uint64(depth) * n
			if depth > maxDepth {
				maxDepth = depth
			}
		}
		if total == 0 {
			b.Fatal("no JIT samples resolved")
		}
		b.ReportMetric(float64(weighted)/float64(total), "avg-depth")
		b.ReportMetric(float64(maxDepth), "max-depth")
		b.ReportMetric(float64(res.Unresolved()), "unresolved")
	}
}

// BenchmarkProfileBenchmark is the end-to-end throughput bench for the
// public API (how long one fully profiled fop run takes in real time).
func BenchmarkProfileBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := ProfileBenchmark("fop", Options{Scale: benchScale, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if out.Report == nil {
			b.Fatal("no report")
		}
	}
}

// BenchmarkExecBatch measures the event-horizon batched execution
// engine against the precise per-op path on a full-scale workload run's
// worth of instructions: the micro-op volume of a paper-scale fop run,
// shaped like the JVM's dispatch stream (short straight-line basic
// blocks discovered one op at a time, page jumps at calls) plus the
// kernel's longer ExecRange runs, with GLOBAL_POWER_EVENTS sampled at
// the paper's most aggressive 45K period and the NMI handler charging a
// driver-sized cost. Both sides execute the identical stream through
// the same entry points; the per-op side only has batching disabled, so
// the measured delta is exactly the engine. The acceptance bar is the
// batched side retiring the stream at least 2x faster.
func BenchmarkExecBatch(b *testing.B) {
	const streamOps = 11_000_000 // ~ one paper-scale fop run
	stream := func(b *testing.B, batched bool) (cycles uint64) {
		for i := 0; i < b.N; i++ {
			bank := hpc.NewBank()
			bank.Program(hpc.GlobalPowerEvents, 45_000)
			c := cpu.New(bank, cache.DefaultHierarchy())
			c.SetNMIHandler(func(core *cpu.Core, _ cpu.Snapshot, _ hpc.Event) {
				core.ExecRange(addr.KernelBase+0x80, 120, 4, 1)
			})
			c.SetBatching(batched)
			r := rand.New(rand.NewSource(1))
			pc := addr.Address(0x6000_0000)
			for done := 0; done < streamOps; {
				if r.Intn(20) == 0 {
					// Kernel/agent-style straight-line run.
					n := 200 + r.Intn(1800)
					c.ExecBatch(pc, n, 4, 1)
					pc += addr.Address(4 * n)
					done += n
				} else {
					// Bytecode-style basic block, then a "call" elsewhere.
					n := 4 + r.Intn(12)
					for j := 0; j < n; j++ {
						c.BatchOp(pc, uint32(1+j%3))
						pc += 4
					}
					done += n
					pc = addr.Address(0x6000_0000 + r.Intn(1<<20)*4)
				}
			}
			c.FlushBatch()
			cycles = c.Cycles()
		}
		return cycles
	}
	var batchedCycles, peropCycles uint64
	b.Run("batched", func(b *testing.B) { batchedCycles = stream(b, true) })
	b.Run("perop", func(b *testing.B) { peropCycles = stream(b, false) })
	if batchedCycles != peropCycles {
		b.Fatalf("paths diverged: batched %d cycles vs per-op %d", batchedCycles, peropCycles)
	}
}

// BenchmarkExecMemBatch measures the batched memory-operand path
// against the precise per-op path on the arraycopy/GC-copy-heavy stream
// in membench_test.go: bulk ExecMemBatch runs and sequential BatchMemOp
// sweeps with both paper events armed and the NMI handler charging a
// driver-sized cost. Both sides execute the identical stream through the
// identical entry points; the per-op side only has batching disabled, so
// the measured delta is exactly the memory-run engine. The acceptance
// bar is the batched side retiring the stream at least 3x faster, and
// both sides must agree on the final cycle count bit for bit.
func BenchmarkExecMemBatch(b *testing.B) {
	stream := func(b *testing.B, batched bool) (cycles uint64) {
		for i := 0; i < b.N; i++ {
			cycles = memBatchStream(memBenchCore(batched))
		}
		return cycles
	}
	var batchedCycles, peropCycles uint64
	b.Run("batched", func(b *testing.B) { batchedCycles = stream(b, true) })
	b.Run("perop", func(b *testing.B) { peropCycles = stream(b, false) })
	if batchedCycles != peropCycles {
		b.Fatalf("paths diverged: batched %d cycles vs per-op %d", batchedCycles, peropCycles)
	}
}

// BenchmarkTraceBatch measures the trace cache's fused replay against
// the per-op oracle on the dispatch-heavy VM workload in tracebench_test.go:
// a hot loop of arithmetic chains, array/field/static read-modify-
// writes, a deopting data-dependent branch, and a periodic allocation
// that moves the traced body mid-run, with both paper events armed at
// aggressive periods. The fused side runs the trace cache over the
// batching engine; the per-op side is SetBatching(false) — every
// bytecode through core.Exec, the same configuration pair the trace
// quickcheck suite proves equivalent. Both sides must agree on the
// final simulated cycle count (and NMI count) bit for bit.
func BenchmarkTraceBatch(b *testing.B) {
	run := func(b *testing.B, disTrace, disBatch bool) (r traceBenchResult) {
		for i := 0; i < b.N; i++ {
			var err error
			r, err = traceBenchRun(disTrace, disBatch)
			if err != nil {
				b.Fatal(err)
			}
		}
		return r
	}
	var fused, perop traceBenchResult
	b.Run("fused", func(b *testing.B) { fused = run(b, false, false) })
	b.Run("perop", func(b *testing.B) { perop = run(b, true, true) })
	if fused.Cycles != perop.Cycles || fused.NMIs != perop.NMIs {
		b.Fatalf("paths diverged: fused %d cycles/%d NMIs vs per-op %d cycles/%d NMIs",
			fused.Cycles, fused.NMIs, perop.Cycles, perop.NMIs)
	}
	if fused.Trace.Replays == 0 {
		b.Fatalf("fused side never replayed a trace: %+v", fused.Trace)
	}
}

// BenchmarkEpochResolveIndexed measures the flattened epoch index
// against the paper's literal backward scan on a deep chain: a long run
// whose agent wrote one big initial map and small partial maps for
// hundreds of epochs after it, so most samples force the scan far back
// through the chain. The query stream is page-local the way real sample
// streams are. Both resolvers answer the identical queries; equality
// (including the SearchDepths the ablation histogram records) is
// asserted as part of the benchmark.
func BenchmarkEpochResolveIndexed(b *testing.B) {
	const (
		epochs  = 200
		queries = 30_000
	)
	r := rand.New(rand.NewSource(7))
	perEpoch := make([][]core.MapEntry, epochs)
	var starts []addr.Address
	add := func(e int, start addr.Address, size uint32) {
		perEpoch[e] = append(perEpoch[e], core.MapEntry{
			Start: start, Size: size, Level: "base", Sig: "m",
		})
		starts = append(starts, start)
	}
	// Epoch 0: the startup burst of compilations.
	for i := 0; i < 150; i++ {
		add(0, addr.Address(0x6000_0000+i*0x400), uint32(128+r.Intn(512)))
	}
	// Later epochs: a few compiles/moves each (the paper's partial maps).
	for e := 1; e < epochs; e++ {
		for i := 0; i < 4; i++ {
			add(e, addr.Address(0x6000_0000+r.Intn(1<<16)*0x40), uint32(128+r.Intn(512)))
		}
	}
	chain := core.NewMapChain(perEpoch)
	type query struct {
		epoch int
		pc    addr.Address
	}
	qs := make([]query, queries)
	for i := range qs {
		if i > 0 && r.Intn(4) != 0 {
			// Page locality: most samples repeat the previous hot region.
			qs[i] = qs[i-1]
			qs[i].pc += addr.Address(r.Intn(64) * 4)
		} else {
			qs[i] = query{
				epoch: epochs/2 + r.Intn(epochs/2),
				pc:    starts[r.Intn(len(starts))] + addr.Address(r.Intn(256)),
			}
		}
	}
	// Equality including depth, and the histogram the resolver records.
	var depthSum uint64
	for _, q := range qs {
		ge, gd, gok := chain.Resolve(q.epoch, q.pc)
		we, wd, wok := chain.ResolveScan(q.epoch, q.pc)
		if gok != wok || gd != wd || ge != we {
			b.Fatalf("resolvers disagree at (%d, %s)", q.epoch, q.pc)
		}
		depthSum += uint64(gd)
	}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				chain.Resolve(q.epoch, q.pc)
			}
		}
		b.ReportMetric(float64(depthSum)/float64(len(qs)), "avg-depth")
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range qs {
				chain.ResolveScan(q.epoch, q.pc)
			}
		}
	})
}

// BenchmarkXenOverhead measures the simulated hypervisor's cost (the
// paper's §5 future-work layer): the same benchmark native and
// virtualized, plus the share of samples attributed to xen-syms.
func BenchmarkXenOverhead(b *testing.B) {
	rcNative := harness.RunConfig{Kind: harness.ProfVIProf, Period: 45_000}
	rcXen := rcNative
	rcXen.Xen = true
	for i := 0; i < b.N; i++ {
		native := benchOne(b, "JVM98", rcNative, int64(i)+1)
		virt := benchOne(b, "JVM98", rcXen, int64(i)+1)
		if virt.Seconds <= native.Seconds {
			b.Fatalf("virtualization cost nothing: %.3f vs %.3f", virt.Seconds, native.Seconds)
		}
		b.ReportMetric(virt.Seconds/native.Seconds, "xen-slowdown")
	}
}

// BenchmarkAblationOSR compares on-stack replacement (the default,
// matching Jikes RVM) against promotion-at-next-invocation only.
// Workloads whose hot loops live in long single invocations benefit
// most.
func BenchmarkAblationOSR(b *testing.B) {
	specOn, err := workload.ByName("pseudojbb")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		prog, err := workload.Build(specOn, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		run := func(disableOSR bool) float64 {
			m := NewMachine(int64(i) + 1)
			vm, _, err := jvm.Launch(m, prog, jvm.Config{DisableOSR: disableOSR})
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Kern.Run(0); err != nil {
				b.Fatal(err)
			}
			if !vm.Finished() {
				b.Fatalf("vm error: %v", vm.Err())
			}
			return float64(m.Core.Cycles()) / ClockHz
		}
		withOSR := run(false)
		withoutOSR := run(true)
		b.ReportMetric(withoutOSR/withOSR, "noosr-vs-osr-time")
	}
}
