package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"viprof"
	"viprof/internal/cache"
	"viprof/internal/core"
	"viprof/internal/cpu"
	"viprof/internal/fleet"
	"viprof/internal/harness"
	"viprof/internal/hpc"
	"viprof/internal/jvm"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	wl "viprof/internal/workload"
)

// workload is one benchmark input. Profiled workloads launch one VM
// per entry of benches under a VIProf session; the fleet workload
// (hosts > 0) runs the fleet collector and its offline read path.
type workload struct {
	name, why string
	// reps is the rep count of the all-workloads run.
	reps  int
	cores int
	// Profiled shape: benchmarks (one VM each) at a workload scale.
	benches []string
	scale   float64
	// Fleet shape.
	hosts, deltas, windows int
}

// Profiling config: the Figure 2 headline cell (GLOBAL_POWER_EVENTS at
// 90K, X-server noise on).
const samplePeriod = 90_000

// Fleet config: online compaction period and the crash plan of the
// fleet crash cell (two scripted shard crashes).
const compactEveryCycles = 300_000

var workloads = []workload{
	{
		name: "antlr-epochs", reps: 30, cores: 1, benches: []string{"antlr"}, scale: 1,
		why: "the paper's overhead outlier: many compiles and GC epochs, so agent map writes and deep epoch-chain resolution dominate",
	},
	{
		name: "xalan-steady", reps: 10, cores: 1, benches: []string{"xalan"}, scale: 1,
		why: "long steady state: the cpu/cache/jvm engine dominates and map writes are amortized, so the agent is bypassed",
	},
	{
		name: "smp4-mix", reps: 15, cores: 4, benches: []string{"antlr", "fop", "JVM98", "pmd"}, scale: 1,
		why: "four VMs on four cores: the only workload using stealing, per-CPU driver shards, concurrent drain and a multi-VM report",
	},
	{
		name: "fleet16-crash", reps: 15, cores: 4, hosts: 16, deltas: 40, windows: 200,
		why: "16 hosts into a 4-core collector with two shard crashes, then replay, compaction and windowed reports; bypasses the jvm/cpu engine",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) isFleet() bool { return w.hosts > 0 }

// setupSpans and reportSpans partition a rep's wall time for the
// end-to-end setup_s and report_s; runSpan is the simulation itself.
func (w workload) setupSpans() []string {
	if w.isFleet() {
		return []string{spanBoot}
	}
	return []string{spanBuild, spanBoot, spanStart, spanLaunch}
}

func (w workload) reportSpans() []string {
	if w.isFleet() {
		return []string{spanReplay, spanCompact, spanQueryWindow, spanRenderWindow}
	}
	return []string{spanReport, spanRender}
}

func (w workload) runSpan() string {
	if w.isFleet() {
		return spanIngest
	}
	return spanRun
}

// repResult is one timed rep: host-clock spans, memory, the rendered
// output's hash, exact simulated-clock counts and gate failures.
type repResult struct {
	wall     time.Duration
	spans    map[string]time.Duration
	renders  []float64 // ms per windowed report (fleet)
	allocMB  float64
	liveMB   float64
	sha      string
	counts   map[string]float64
	failures []string
	// refs are the reference-task times around and inside the rep
	// (hostref.go); paused is the host time of those inside it, which
	// wall and spans leave out; scale rescales the rep's host seconds to
	// refNominal's host.
	refs   []time.Duration
	paused time.Duration
	scale  float64

	alloc0    uint64
	start     time.Time
	profile   *bytes.Buffer // CPU profile of a traced rep
	profiling bool
	// sampling marks an untraced rep in progress: only those pause for
	// reference runs, so that traced reps' CPU profiles hold none.
	sampling bool
	lastRef  time.Time
}

// beginRep collects garbage (untimed) and starts the rep clock, and,
// for a traced rep, the CPU profile.
func beginRep(traced bool) (*repResult, error) {
	runtime.GC()
	r := &repResult{spans: make(map[string]time.Duration), counts: make(map[string]float64), sampling: !traced}
	if traced {
		r.profile = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(r.profile); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		r.profiling = true
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc0 = ms.TotalAlloc
	r.start = time.Now()
	r.lastRef = r.start
	return r, nil
}

// sampleHost runs the reference task inside an untraced rep once
// refGap reference times have passed since the rep began or last ran
// it.
func (r *repResult) sampleHost() {
	if !r.sampling || time.Since(r.lastRef) < refGap*time.Duration(refLatest.Load()) {
		return
	}
	t0 := time.Now()
	r.refs = append(r.refs, refTask())
	r.lastRef = time.Now()
	r.paused += r.lastRef.Sub(t0)
}

// end stops the rep clock, then measures allocation and the live heap
// while the caller still holds the rep's state.
func (r *repResult) end() {
	r.wall = time.Since(r.start) - r.paused
	r.sampling = false
	r.stopProfile()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.allocMB = float64(ms.TotalAlloc-r.alloc0) / 1e6
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.liveMB = float64(ms.HeapAlloc) / 1e6
}

// stopProfile stops a traced rep's CPU profile, once. Reps defer it so
// that error paths stop the profile too.
func (r *repResult) stopProfile() {
	if r.profiling {
		pprof.StopCPUProfile()
		r.profiling = false
	}
}

// time runs one public call as a named span, less any reference runs
// inside it.
func (r *repResult) time(span string, f func() error) error {
	t0, paused := time.Now(), r.paused
	err := f()
	r.spans[span] += time.Since(t0) - (r.paused - paused)
	if err != nil {
		return fmt.Errorf("%s: %w", span, err)
	}
	return nil
}

func (r *repResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// profKind selects the profiler a profiled simulation runs under.
type profKind int

const (
	profNone profKind = iota
	profOProfile
	profVIProf
)

// baseline holds the simulated wall cycles of the unprofiled and
// OProfile-only runs of the same seed: the denominators of Figure 2's
// overheads.
type baseline struct{ none, oprofile uint64 }

// sim is one profiled simulation's live state.
type sim struct {
	m       *kernel.Machine
	session *core.Session
	prof    *oprofile.Profiler
	vms     []*jvm.VM
	procs   []*kernel.Process
	// limit is the run's cycle budget; cycles the simulated wall clock
	// when the last VM exits.
	limit, cycles uint64
}

// personality gives each VM of a multi-VM workload its own process
// name: JIT sample keys carry the process name, so same-named VMs would
// share one code-map chain.
func (w workload) personality(i int) *jvm.Personality {
	p := jvm.Jikes()
	if len(w.benches) > 1 {
		p.ProcName += "-" + w.benches[i]
	}
	return p
}

// setUp builds the programs, boots the machine, arms the profiler and
// launches the VMs: everything before the first simulated cycle.
func (w workload) setUp(seed int64, kind profKind, r *repResult) (*sim, error) {
	s := &sim{}
	specs := make([]wl.Spec, len(w.benches))
	progs := make([]*viprof.Program, len(w.benches))
	err := r.time(spanBuild, func() error {
		for i, b := range w.benches {
			spec, err := wl.ByName(b)
			if err != nil {
				return err
			}
			specs[i] = spec
			if progs[i], err = wl.Build(spec, w.scale); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = r.time(spanBoot, func() error {
		s.m = harness.BuildMachine(w.cores, seed)
		return harness.StartNoise(s.m, seed^0x5EED)
	})
	if err != nil {
		return nil, err
	}
	s.m.Kern.AddTicker(refTickCycles, r.sampleHost)
	events := []oprofile.EventConfig{{Event: hpc.GlobalPowerEvents, Period: samplePeriod}}
	err = r.time(spanStart, func() error {
		var err error
		switch kind {
		case profVIProf:
			s.session, err = core.Start(s.m, core.Config{Events: events})
		case profOProfile:
			s.prof, err = oprofile.Start(s.m, oprofile.Config{Events: events})
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = r.time(spanLaunch, func() error {
		for i, prog := range progs {
			cfg := jvm.Config{HeapBytes: specs[i].HeapBytes, Personality: w.personality(i)}
			var vm *jvm.VM
			var proc *kernel.Process
			var err error
			if s.session != nil {
				vm, proc, err = s.session.LaunchJVM(prog, cfg)
			} else {
				vm, proc, err = jvm.Launch(s.m, prog, cfg)
			}
			if err != nil {
				return err
			}
			s.vms, s.procs = append(s.vms, vm), append(s.procs, proc)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The harness's runaway guard: 100x the calibrated base time.
	var baseSeconds float64
	for _, spec := range specs {
		baseSeconds += spec.BaseSeconds
	}
	s.limit = uint64(baseSeconds*w.scale*100+60) * cpu.ClockHz
	return s, nil
}

// simulate sets up and runs the VMs to completion.
func (w workload) simulate(seed int64, kind profKind, r *repResult) (*sim, error) {
	s, err := w.setUp(seed, kind, r)
	if err != nil {
		return nil, err
	}
	if err := r.time(spanRun, func() error { return s.m.Kern.Run(s.limit) }); err != nil {
		return nil, err
	}
	for i, vm := range s.vms {
		if !vm.Finished() {
			return nil, fmt.Errorf("%s: VM %s did not finish: %v", w.name, w.benches[i], vm.Err())
		}
	}
	for _, c := range s.m.Cores {
		s.cycles = max(s.cycles, c.Cycles())
	}
	return s, nil
}

// measureBaseline runs the unprofiled and OProfile-only simulations of
// the seed. Untimed, they double as the profiled workloads' warm-up.
func (w workload) measureBaseline(seed int64) (baseline, error) {
	var b baseline
	scratch := &repResult{spans: make(map[string]time.Duration)}
	s, err := w.simulate(seed, profNone, scratch)
	if err != nil {
		return b, err
	}
	b.none = s.cycles
	if s, err = w.simulate(seed, profOProfile, scratch); err != nil {
		return b, err
	}
	s.prof.Shutdown(s.m)
	b.oprofile = s.cycles
	return b, nil
}

// profiledRep is one timed VIProf rep: setup through the rendered
// report, then (untimed) counts and correctness gates.
func (w workload) profiledRep(seed int64, base baseline, traced bool) (*repResult, error) {
	r, err := beginRep(traced)
	if err != nil {
		return nil, err
	}
	defer r.stopProfile()
	s, err := w.simulate(seed, profVIProf, r)
	if err != nil {
		return nil, err
	}
	r.sampleHost()
	_ = r.time(spanShutdown, func() error { s.session.Shutdown(); return nil })
	vmPIDs := make(map[string]int, len(s.procs))
	for _, p := range s.procs {
		vmPIDs[p.Name] = p.PID
	}
	var rep *oprofile.Report
	var res *core.Resolver
	err = r.time(spanReport, func() error {
		var err error
		rep, res, err = s.session.Report(s.session.Images(s.vms...), vmPIDs)
		return err
	})
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := r.time(spanRender, func() error { return oprofile.Format(&text, rep, 0) }); err != nil {
		return nil, err
	}
	r.end()

	sum := sha256.Sum256(text.Bytes())
	r.sha = hex.EncodeToString(sum[:])
	machineCounts(s.m, r.counts)
	profiledCounts(s, base, res, r)
	checkPerCPUConservation(s.session.Prof, r)
	checkAttribution(s, vmPIDs, res, r)
	return r, nil
}

// machineCounts records the cpu, cache and kernel layers' exact work.
func machineCounts(m *kernel.Machine, c map[string]float64) {
	var cycles, instrs uint64
	l1, l2 := make(map[*cache.Cache]bool), make(map[*cache.Cache]bool)
	for _, cc := range m.Cores {
		cycles += cc.Cycles()
		instrs += cc.Instructions()
		l1[cc.Mem.L1] = true
		l2[cc.Mem.L2] = true // shared on SMP: count once
	}
	c["cpu.sim_mcycles"] = float64(cycles) / 1e6
	c["cpu.minstrs"] = float64(instrs) / 1e6
	c["cache.l1_miss_pct"] = missPct(l1)
	c["cache.l2_miss_pct"] = missPct(l2)
	var coh uint64
	if d := m.Cores[0].Mem.Coh; d != nil { // shared by every core
		coh = d.Transfers()
	}
	c["cache.coh_transfers"] = float64(coh)
	c["kernel.ctx_switches"] = float64(m.Kern.ContextSwitches())
	c["kernel.migrations"] = float64(m.Kern.Migrations())
}

func missPct(caches map[*cache.Cache]bool) float64 {
	var acc, miss uint64
	for c := range caches {
		a, m := c.Stats()
		acc, miss = acc+a, miss+m
	}
	return pct(miss, acc)
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func overheadPct(profiled, base uint64) float64 {
	return 100 * (float64(profiled)/float64(base) - 1)
}

func profiledCounts(s *sim, base baseline, res *core.Resolver, r *repResult) {
	c := r.counts
	var st jvm.Stats
	var replayed uint64
	for _, vm := range s.vms {
		vs := vm.Stats()
		st.BaselineCompiles += vs.BaselineCompiles
		st.OptCompiles += vs.OptCompiles
		st.Collections += vs.Collections
		st.BytecodesRun += vs.BytecodesRun
		replayed += vm.TraceStats().OpsReplayed
	}
	c["jvm.mbytecodes"] = float64(st.BytecodesRun) / 1e6
	c["jvm.compiles"] = float64(st.BaselineCompiles + st.OptCompiles)
	c["jvm.gcs"] = float64(st.Collections)
	c["jvm.trace_replay_pct"] = pct(replayed, st.BytecodesRun)
	for _, p := range s.m.Kern.Processes() {
		if p.Name == "oprofiled" {
			c["kernel.daemon_mcycles"] = float64(p.CPUTime()) / 1e6
		}
	}
	ds := s.session.Prof.Driver.Stats()
	c["oprofile.nmis"] = float64(ds.NMIs)
	c["oprofile.dropped"] = float64(ds.Dropped)
	c["oprofile.jit_sample_pct"] = pct(ds.JITSamples, ds.Logged)
	c["oprofile.overhead_pct"] = overheadPct(base.oprofile, base.none)
	var as core.AgentStats
	for _, a := range s.session.Agents {
		st := a.Stats()
		as.MapsWritten += st.MapsWritten
		as.MapBytes += st.MapBytes
		as.Moves += st.Moves
	}
	c["core.maps_written"] = float64(as.MapsWritten)
	c["core.map_kb"] = float64(as.MapBytes) / 1024
	c["core.moves"] = float64(as.Moves)
	c["core.agent_overhead_pct"] = overheadPct(s.cycles, base.oprofile)
	c["overhead_pct"] = overheadPct(s.cycles, base.none)
	var depthSum, resolved uint64
	for d, n := range res.SearchDepths {
		depthSum += uint64(d) * n
		resolved += n
	}
	if resolved > 0 {
		c["core.resolve_depth"] = float64(depthSum) / float64(resolved)
	}
}

// checkPerCPUConservation is smpbench's gate: every CPU's driver stats
// balance, and the daemon accounts for every sample on the CPU it
// fired on.
func checkPerCPUConservation(p *oprofile.Profiler, r *repResult) {
	drv := p.Driver
	loggedCPU := p.Daemon.SamplesLoggedCPU()
	var nmis, logged, dropped uint64
	for ci := 0; ci < drv.NumCPU(); ci++ {
		cs := drv.StatsCPU(ci)
		nmis, logged, dropped = nmis+cs.NMIs, logged+cs.Logged, dropped+cs.Dropped
		if cs.Logged+cs.Dropped != cs.NMIs {
			r.fail("cpu%d driver unbalanced: logged %d + dropped %d != NMIs %d", ci, cs.Logged, cs.Dropped, cs.NMIs)
		}
		var agg uint64
		if ci < len(loggedCPU) {
			agg = loggedCPU[ci]
		}
		if agg+uint64(drv.ShardLen(ci)) != cs.Logged {
			r.fail("cpu%d daemon unbalanced: aggregated %d + buffered %d != logged %d", ci, agg, drv.ShardLen(ci), cs.Logged)
		}
	}
	if ds := drv.Stats(); nmis != ds.NMIs || logged != ds.Logged || dropped != ds.Dropped {
		r.fail("per-CPU driver stats do not sum to the aggregate")
	}
}

// checkAttribution re-reads the sample file and checks every JIT key
// the report's resolver attributes against its agent's oracle chain
// (zero misattribution), and records the unresolved share.
func checkAttribution(s *sim, vmPIDs map[string]int, res *core.Resolver, r *repResult) {
	data, err := s.m.Kern.Disk().Read(oprofile.SampleFile)
	if err != nil {
		r.fail("reading the sample file: %v", err)
		return
	}
	counts, _, err := oprofile.ReadCountsSalvage(data)
	if err != nil {
		r.fail("parsing the sample file: %v", err)
		return
	}
	oracles := make(map[int]*core.MapChain, len(s.session.Agents))
	for pid, a := range s.session.Agents {
		oracles[pid] = a.OracleChain()
	}
	var jit, unresolved, misattributed uint64
	for k, n := range counts {
		if !k.JIT {
			continue
		}
		jit += n
		pid, ok := vmPIDs[k.Proc]
		chain := res.Chains[pid]
		if !ok || chain == nil {
			unresolved += n
			continue
		}
		entry, _, found := chain.ResolveDurable(k.Epoch, k.Off)
		if !found {
			unresolved += n
			continue
		}
		if o, _, ok := oracles[pid].Resolve(k.Epoch, k.Off); !ok || o.Sig != entry.Sig {
			misattributed += n
		}
	}
	r.counts["unresolved_pct"] = pct(unresolved, jit)
	if misattributed > 0 {
		r.fail("%d JIT samples resolved to a method their agent's oracle chain disagrees with", misattributed)
	}
}

// bootFleet builds the collector machine and arms the crash plan of the
// fleet crash cell: two scripted shard crashes.
func (w workload) bootFleet(seed int64, r *repResult) *kernel.Machine {
	var m *kernel.Machine
	_ = r.time(spanBoot, func() error {
		m = harness.BuildMachine(w.cores, seed)
		m.Kern.SetFaultInjectors(kernel.FaultPlan{
			Seed:       seed,
			PathPrefix: fleet.JournalPrefix,
			Script: []kernel.FaultPoint{
				{Write: 5, Kind: kernel.FaultCrash},
				{Write: 5 + 4*w.hosts, Kind: kernel.FaultCrash},
			},
		})
		return nil
	})
	m.Kern.AddTicker(refTickCycles, r.sampleHost)
	return m
}

// setupTrials is how many extra set-ups follow each untraced rep.
// Set-up takes well under a millisecond to a few milliseconds, so
// setup_s is the median over these and the reps' own set-ups.
const setupTrials = 4

// setupTrial times one set-up outside any rep, after the same untimed
// collection a rep starts with.
func (w workload) setupTrial(seed int64) (float64, error) {
	runtime.GC()
	r := &repResult{spans: make(map[string]time.Duration)}
	if w.isFleet() {
		w.bootFleet(seed, r)
	} else if _, err := w.setUp(seed, profVIProf, r); err != nil {
		return 0, err
	}
	return r.sumSpans(w.setupSpans()), nil
}

// fleetRep is one timed fleet rep: ingest under the crash plan, store
// replay, one offline compaction and the windowed-report sweep, then
// (untimed) counts and the conservation gates.
func (w workload) fleetRep(seed int64, traced bool) (*repResult, error) {
	r, err := beginRep(traced)
	if err != nil {
		return nil, err
	}
	defer r.stopProfile()
	m := w.bootFleet(seed, r)
	var fr *fleet.FleetResult
	err = r.time(spanIngest, func() error {
		var err error
		fr, err = fleet.RunFleet(m, fleet.FleetConfig{
			Hosts:         w.hosts,
			DeltasPerHost: w.deltas,
			Seed:          seed,
			Collector:     fleet.CollectorConfig{CompactEveryCycles: compactEveryCycles},
		})
		if err == nil {
			err = fr.RunErr
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	disk := m.Kern.Disk()
	var agg *fleet.Aggregate
	var replay fleet.JournalReplay
	r.sampleHost()
	err = r.time(spanReplay, func() error {
		var err error
		agg, replay, err = fleet.LoadStore(disk, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.sampleHost()
	if err := r.time(spanCompact, func() error { _, err := fleet.CompactDisk(disk); return err }); err != nil {
		return nil, err
	}
	view := &viprof.FleetView{Aggregate: agg, Replay: replay, Integrity: fr.Integrity}
	h := sha256.New()
	lo, hi, _ := agg.TimeBounds()
	width := (hi - lo + 1) / 10
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < w.windows; i++ {
		r.sampleHost()
		from := lo + uint64(rng.Int63n(int64(hi-lo+1-width)+1))
		to := from + width
		var total uint64
		_ = r.time(spanQueryWindow, func() error {
			for _, n := range agg.QueryWindow(from, to) {
				total += n
			}
			return nil
		})
		t0 := time.Now()
		text := view.RenderWindow(20, from, to)
		d := time.Since(t0)
		r.spans[spanRenderWindow] += d
		r.renders = append(r.renders, float64(d)/1e6)
		fmt.Fprintf(h, "%d\n%s", total, text)
	}
	r.end()
	r.sha = hex.EncodeToString(h.Sum(nil))

	machineCounts(m, r.counts)
	cs := fr.Collector.Stats()
	var retries uint64
	for _, s := range fr.Senders {
		retries += s.Stats().Retries
	}
	c := r.counts
	c["fleet.samples"] = float64(agg.Total())
	c["fleet.store_frames"] = float64(replay.Deltas + replay.Maps + replay.Duplicates)
	c["fleet.restarts"] = float64(cs.Restarts)
	c["fleet.failovers"] = float64(cs.Failovers)
	c["fleet.handoffs"] = float64(cs.Handoffs)
	c["fleet.duplicates"] = float64(cs.Duplicates)
	c["fleet.compactions"] = float64(cs.Compactions)
	c["fleet.sender_retries"] = float64(retries)

	// Gates run on the store as compaction left it.
	final, _, err := fleet.LoadStore(disk, 0)
	if err != nil {
		r.fail("replaying the compacted store: %v", err)
		return r, nil
	}
	for i, a := range []*fleet.Aggregate{agg, final} {
		label := [...]string{"replayed", "compacted"}[i]
		cons := fleet.CheckConservation(fr.Senders, a)
		if !cons.Balanced() {
			r.fail("%s store unbalanced: %v", label, cons.Mismatches)
		}
		if cons.HeldSamples != 0 {
			r.fail("%s store: %d samples still held by senders at shutdown", label, cons.HeldSamples)
		}
	}
	if bad := fleet.CheckMapReplication(fr.Senders, final); len(bad) > 0 {
		r.fail("map replication violated: %v", bad)
	}
	if fr.SupervisorGaveUp {
		r.fail("supervisor gave up")
	}
	return r, nil
}

// runWorkload measures w: an untimed warm-up, then reps back to back
// until reps are done (budget 0) or the budget is spent. In a traced
// run every second rep is traced, so the untraced reps in between give
// the tracing overhead.
func runWorkload(w workload, seed int64, trace bool, budget time.Duration) WorkloadResult {
	wr := WorkloadResult{Name: w.name}
	var base baseline
	var refSHA string
	var err error
	if w.isFleet() {
		var warm *repResult
		if warm, err = w.fleetRep(seed, false); err == nil {
			refSHA = warm.sha
		}
	} else {
		base, err = w.measureBaseline(seed)
	}
	if err != nil {
		wr.Attempted, wr.Failed = 1, 1
		wr.Failures = []string{"warm-up: " + err.Error()}
		return wr
	}

	var reps, traced []*repResult
	var setups, refMS []float64
	folded := make(map[string]float64)
	start := time.Now()
	refTask() // warms the host caches the reference task uses
	refBefore := refTask()
	last := start
	for i := 0; ; i++ {
		// A timed run stops, after at least 4 reps, before a rep that
		// would take it past the budget if it took as long as the last.
		now := time.Now()
		if budget > 0 && i >= 4 && now.Sub(start)+now.Sub(last) > budget || budget == 0 && i >= w.reps {
			break
		}
		last = now
		isTraced := trace && i%2 == 1
		var r *repResult
		if w.isFleet() {
			r, err = w.fleetRep(seed, isTraced)
		} else {
			r, err = w.profiledRep(seed, base, isTraced)
		}
		wr.Attempted++
		if err != nil {
			wr.Failed++
			wr.Failures = appendFailure(wr.Failures, fmt.Sprintf("rep %d: %v", i, err))
			continue
		}
		if refSHA == "" {
			refSHA = r.sha
		}
		if r.sha != refSHA {
			r.fail("report sha256 %s differs from the seed's first render %s", short(r.sha), short(refSHA))
		}
		if isTraced {
			if cov := r.coverage(); cov < 95 {
				r.fail("spans cover %.1f%% of wall time, want >= 95%%", cov)
			}
			if err := foldProfile(r.profile.Bytes(), folded); err != nil {
				r.fail("folding the CPU profile: %v", err)
			}
			r.profile = nil
			traced = append(traced, r)
		}
		var repSetups []float64
		if !isTraced {
			reps = append(reps, r)
			repSetups = append(repSetups, r.sumSpans(w.setupSpans()))
			for j := 0; j < setupTrials && err == nil; j++ {
				var d float64
				if d, err = w.setupTrial(seed); err == nil {
					repSetups = append(repSetups, d)
				}
			}
			if err != nil {
				r.fail("set-up trial: %v", err)
			}
		}
		refAfter := refTask()
		r.refs = append(append([]time.Duration{refBefore}, r.refs...), refAfter)
		r.scale = hostScale(r.refs)
		refBefore = refAfter
		for _, d := range r.refs[1:] {
			refMS = append(refMS, 1e3*d.Seconds())
		}
		for _, d := range repSetups {
			setups = append(setups, d*r.scale)
		}
		if len(r.failures) > 0 {
			wr.Failed++
			wr.Failures = appendFailure(wr.Failures, fmt.Sprintf("rep %d: %s", i, r.failures[0]))
		}
	}
	wr.Reps = len(reps) + len(traced)
	wr.ReportSHA256 = refSHA
	wr.Metrics = w.metrics(reps, traced, setups, refMS, folded, trace)
	if trace {
		if s := wr.Metrics["cpu.self_pct"]; s.N == 0 {
			wr.Failed++
			wr.Failures = appendFailure(wr.Failures, "no traced rep completed")
		} else if sum := sumShares(wr.Metrics); sum < 99.999 || sum > 100.001 {
			wr.Failed++
			wr.Failures = appendFailure(wr.Failures, fmt.Sprintf("self-time shares sum to %.4f%%, want 100%%", sum))
		}
	}
	return wr
}

func appendFailure(fs []string, f string) []string {
	if len(fs) < 5 {
		fs = append(fs, f)
	}
	return fs
}

func sumShares(ms map[string]Summary) float64 {
	var sum float64
	for _, b := range layerBuckets {
		sum += ms[b+".self_pct"].Median
	}
	return sum
}

// coverage is the share of the rep's wall time its spans cover.
func (r *repResult) coverage() float64 {
	var covered time.Duration
	for _, d := range r.spans {
		covered += d
	}
	return 100 * covered.Seconds() / r.wall.Seconds()
}

func (r *repResult) sumSpans(names []string) float64 {
	var d time.Duration
	for _, n := range names {
		d += r.spans[n]
	}
	return d.Seconds()
}

// metrics summarizes the reps: end-to-end metrics from the untraced
// reps (setup_s from every untraced set-up), with host times rescaled
// by each rep's scale; exact counts from every rep; and in a traced
// run the per-layer spans, self-time shares, tracing overhead and
// reference-task times, all as measured.
func (w workload) metrics(reps, traced []*repResult, setups, refMS []float64, folded map[string]float64, trace bool) map[string]Summary {
	vals := map[string][]float64{}
	if len(setups) > 0 {
		vals["setup_s"] = setups
	}
	add := func(name string, v float64) { vals[name] = append(vals[name], v) }
	for _, r := range reps {
		add("wall_s", r.wall.Seconds()*r.scale)
		add("report_s", r.sumSpans(w.reportSpans())*r.scale)
		add("sim_mcycles_per_s", r.counts["cpu.sim_mcycles"]/(r.spans[w.runSpan()].Seconds()*r.scale))
		add("alloc_mb", r.allocMB)
		add("live_heap_mb", r.liveMB)
	}
	for _, r := range append(append([]*repResult(nil), reps...), traced...) {
		for name, v := range r.counts {
			add(name, v)
		}
	}
	if trace {
		var renders []float64
		for _, r := range traced {
			for span, d := range r.spans {
				switch span {
				case spanQueryWindow, spanRenderWindow:
					add(span+"_ms", 1e3*d.Seconds()/float64(w.windows))
				default:
					add(span+"_s", d.Seconds())
				}
			}
			if w.isFleet() {
				add("fleet.ingest_ksamples_per_s", r.counts["fleet.samples"]/r.spans[spanIngest].Seconds()/1e3)
			}
			add("bench.span_coverage_pct", r.coverage())
			renders = append(renders, r.renders...)
		}
		if len(renders) > 0 {
			sorted := sortedCopy(renders)
			add("fleet.query_p50_ms", quantile(sorted, 0.5))
			add("fleet.query_p99_ms", quantile(sorted, 0.99))
		}
		if len(traced) > 0 {
			for b, v := range shares(folded) {
				add(b+".self_pct", v)
			}
			if len(reps) > 0 {
				add("bench.trace_overhead", medianWall(traced)/medianWall(reps))
			}
		}
		vals["bench.ref_ms"] = refMS
	}
	out := make(map[string]Summary, len(vals))
	for name, xs := range vals {
		m, ok := lookupMetric(name)
		if !ok {
			panic("metric missing from the catalogue: " + name)
		}
		out[name] = summarize(m.unit, xs)
	}
	return out
}

func medianWall(rs []*repResult) float64 {
	ws := make([]float64, len(rs))
	for i, r := range rs {
		ws[i] = r.wall.Seconds()
	}
	return quantile(sortedCopy(ws), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
