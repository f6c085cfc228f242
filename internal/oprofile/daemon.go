package oprofile

import (
	"bytes"
	"cmp"
	"errors"
	"slices"
	"strings"
	"sync"

	"viprof/internal/kernel"
	"viprof/internal/record"
)

// The user-level daemon. "Periodically, this daemon processes the
// sample buffer and writes the samples to disk" (§3). It is "the main
// source of profiling overhead, [so] extra care must be taken to ensure
// minimal work is done by this daemon".
//
// Durability: each flush is one framed, checksummed record (see
// internal/record) holding the whole dirty delta map. A write that
// fails mid-record leaves a torn record the salvage reader drops, and
// the daemon retries the full delta later — so a failed flush can never
// double-count and never silently vanishes. Failures are counted in
// FlushErrors; when the backlog exceeds SpillMax keys, the tail of the
// key space is parked on disk as framed, journaled spill records (see
// spill.go) that the recovery pass re-merges — bounded memory,
// recoverable loss. Only if the spill path itself keeps failing does a
// hard cap drop the far tail into SpilledLost: bounded memory first,
// accountable loss as the last resort.

// DaemonConfig tunes the daemon.
type DaemonConfig struct {
	// WakeCycles is the periodic wake interval (default ~100 ms of
	// simulated time).
	WakeCycles uint64
	// BatchMax bounds samples processed per CPU shard per wake (0 = all).
	BatchMax int
	// SpillMax bounds the dirty map across failed flushes: beyond this
	// many keys the sorted tail is spilled to the framed on-disk spill
	// file (default 8192; the real daemon's event buffer is similarly
	// bounded). If spilling itself fails, a hard cap of 4x SpillMax
	// drops the far tail with its count accumulated in SpilledLost.
	SpillMax int
}

// DaemonStatsFile is where the daemon persists its own counters at
// clean shutdown, so the offline integrity check can compare the disk
// contents against what the daemon believed it wrote. A crashed daemon
// never writes it — its absence is itself the degradation signal.
const DaemonStatsFile = "var/lib/oprofile/oprofiled.stats"

// Daemon drains the driver buffer, aggregates counts, and appends
// deltas to the sample file on the simulated disk.
type Daemon struct {
	drv *Driver
	cfg DaemonConfig

	proc *kernel.Process

	counts map[Key]uint64 // lifetime aggregate (also what gets flushed)
	dirty  map[Key]uint64 // deltas since last successful disk flush

	// perSampleOps is the daemon-side logging cost per sample.
	perSampleOps int

	samplesLogged uint64
	// samplesLoggedCPU splits samplesLogged by the CPU the sample was
	// taken on; the per-CPU entries always sum to the aggregate.
	samplesLoggedCPU []uint64

	// Drain and flush state kept across wakes, cleared instead of
	// remade: aggs holds one shard aggregate per CPU (wg joins their
	// workers); order, groups (indexed by CPU) and payload are flush's
	// key order, per-CPU key groups and record body.
	aggs    []*shardAgg
	wg      sync.WaitGroup
	order   []Key
	groups  [][]Key
	payload bytes.Buffer

	flushes     uint64
	flushErrors uint64
	backoff     uint // consecutive failed flushes (shifts the sleep)
	crashed     bool // killed mid-write by fault injection
	stopped     bool

	// Spill bookkeeping (see spill.go). spillSeq is burned per attempt;
	// spilledOnDisk counts samples parked in committed spill frames;
	// spilledLost counts samples the hard cap had to drop outright,
	// broken down per event mnemonic in spilledLostByEvent and per CPU
	// in spilledLostCPU (the per-CPU disk-conservation equality closes
	// with it — parked samples carry their CPU in the key, losses must
	// be attributed the same way).
	spillSeq           uint64
	spillBatches       uint64
	spillErrors        uint64
	journalErrors      uint64
	spilledOnDisk      uint64
	spilledLost        uint64
	spilledLostByEvent map[string]uint64
	spilledLostCPU     map[int]uint64
}

// StartDaemon spawns the oprofiled process. It runs as a system daemon
// (it never keeps the machine alive) and flushes remaining samples when
// the last workload process exits.
func StartDaemon(m *kernel.Machine, drv *Driver, cfg DaemonConfig) (*Daemon, error) {
	if cfg.WakeCycles == 0 {
		cfg.WakeCycles = 340_000 // 100 ms at the simulated 3.4 MHz clock
	}
	if cfg.SpillMax == 0 {
		cfg.SpillMax = 8192
	}
	d := &Daemon{
		drv:                drv,
		cfg:                cfg,
		counts:             make(map[Key]uint64),
		dirty:              make(map[Key]uint64),
		perSampleOps:       420,
		spilledLostByEvent: make(map[string]uint64),
		spilledLostCPU:     make(map[int]uint64),
	}
	proc, err := m.Kern.NewProcess("oprofiled", d)
	if err != nil {
		return nil, err
	}
	proc.Daemon = true
	d.proc = proc
	drv.OnWatermark = func() { m.Kern.Wake(proc) }
	return d, nil
}

// Step implements kernel.Executor: wake, drain, aggregate, flush,
// sleep. After a failed flush the sleep backs off exponentially so a
// sick disk is not hammered at full wake rate.
func (d *Daemon) Step(m *kernel.Machine, p *kernel.Process) kernel.StepResult {
	if d.stopped || d.crashed {
		return kernel.StepExit
	}
	d.processBatch(m, d.cfg.BatchMax)
	if d.crashed {
		return kernel.StepExit
	}
	m.Kern.Sleep(p, d.cfg.WakeCycles<<d.backoff)
	return kernel.StepBlocked
}

// processBatch drains and logs up to max samples per CPU shard, then
// flushes deltas to disk. Runs in the daemon's (or, during final flush,
// the caller's) process context.
func (d *Daemon) processBatch(m *kernel.Machine, max int) {
	shards := d.drv.DrainShards(max)
	total := 0
	for _, shard := range shards {
		total += len(shard)
	}
	if total > 0 {
		// Daemon-side logging cost: read the buffer via the module,
		// then per-sample accounting in user space at oprofiled's
		// (unmodelled) text — charged as kernel read + user aggregate.
		m.Kern.ExecKernel("op_read_buffer", 40+total*d.perSampleOps/4, 1)
		d.aggregateShards(shards)
	}
	if len(d.dirty) > 0 {
		d.flush(m)
	}
}

// shardAgg is one CPU's drain worker state: the shard drained this
// time and its shard-local counts. Workers share nothing; the merge
// below is the only point their results meet. The daemon keeps one per
// CPU across drains and clears it before each fold.
type shardAgg struct {
	in     []Sample
	counts map[Key]uint64
	// run folds in and signals wg: built once, so starting a worker
	// allocates nothing.
	run func()
}

func (a *shardAgg) fold() {
	clear(a.counts)
	for _, s := range a.in {
		a.counts[KeyOf(s)]++
	}
}

// aggregateShards folds drained per-CPU shards into the daemon's
// aggregate maps. With more than one non-empty shard the per-shard
// aggregation runs on one goroutine per shard — the profiler's first
// genuinely parallel hot path under GOMAXPROCS>1. Determinism holds
// because each worker touches only its own shard and its own local
// map, and the merge walks the shards drained this time in ascending
// CPU order.
func (d *Daemon) aggregateShards(shards [][]Sample) {
	nonEmpty := 0
	for ci, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		nonEmpty++
		for len(d.aggs) <= ci {
			a := &shardAgg{counts: make(map[Key]uint64)}
			a.run = func() {
				a.fold()
				d.wg.Done()
			}
			d.aggs = append(d.aggs, a)
		}
		d.aggs[ci].in = shard
	}
	for ci, shard := range shards {
		switch {
		case len(shard) == 0:
		case nonEmpty > 1:
			d.wg.Add(1)
			go d.aggs[ci].run()
		default:
			d.aggs[ci].fold()
		}
	}
	d.wg.Wait()
	for ci, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		for k, c := range d.aggs[ci].counts {
			d.counts[k] += c
			d.dirty[k] += c
		}
		n := uint64(len(shard))
		d.samplesLogged += n
		for len(d.samplesLoggedCPU) <= ci {
			d.samplesLoggedCPU = append(d.samplesLoggedCPU, 0)
		}
		d.samplesLoggedCPU[ci] += n
	}
}

// flush writes the dirty delta map as one framed record per CPU, in
// ascending CPU order. Each record commits (or tears) independently:
// its keys leave the dirty map the moment its write succeeds, so a
// committed group is never retried (no double-count), and a crash
// mid-flush leaves exactly a prefix of the CPUs persisted — the
// partial state the chaos harness's subset-shard scenario exercises.
// On failure the remaining groups stay dirty for retry (the torn
// record on disk fails its checksum) and are bounded by spillExcess.
func (d *Daemon) flush(m *kernel.Machine) {
	order := d.order[:0]
	for k := range d.dirty {
		order = append(order, k)
	}
	slices.SortFunc(order, compareKeys)
	d.order = order
	for ci := range d.groups {
		d.groups[ci] = d.groups[ci][:0]
	}
	for _, k := range order {
		for len(d.groups) <= k.CPU {
			d.groups = append(d.groups, nil)
		}
		d.groups[k.CPU] = append(d.groups[k.CPU], k)
	}
	for _, g := range d.groups {
		if len(g) == 0 {
			continue
		}
		d.payload.Reset()
		if err := WriteCounts(&d.payload, d.dirty, g); err != nil {
			// Serialization into memory cannot fail; treat it as a flush
			// error anyway so a future bug is loud rather than silent.
			d.flushErrors++
			return
		}
		err := m.Kern.SysWrite(d.proc, SampleFile, record.Frame(d.payload.Bytes()))
		switch {
		case err == nil:
			for _, k := range g {
				delete(d.dirty, k)
			}
		case errors.Is(err, kernel.ErrCrashed):
			// Killed mid-write. The torn record on disk fails its
			// checksum; whatever was still dirty — this CPU's group and
			// every later one — is lost with the process. The missing
			// stats file is the durable evidence.
			d.crashed = true
			d.stopped = true
			return
		default:
			d.flushErrors++
			if d.backoff < 6 {
				d.backoff++
			}
			// Earlier groups already committed and left the dirty map;
			// re-derive the surviving sorted order for the spill bound.
			rest := make([]Key, 0, len(d.dirty))
			for _, k := range order {
				if _, ok := d.dirty[k]; ok {
					rest = append(rest, k)
				}
			}
			d.spillExcess(m, rest)
			return
		}
	}
	d.flushes++
	d.backoff = 0
}

// spillExcess bounds the dirty map after failed flushes by parking the
// sorted tail of the key space on disk as framed, journaled spill
// records. The commit order is the whole protocol: frames first (one
// write), journal ratification second, and only then do the keys leave
// the dirty map — so every sample is, at every instant, accounted in
// exactly one of {dirty, committed spill, lost}. Deterministic (sorted
// order) and loud (counted), never silent.
func (d *Daemon) spillExcess(m *kernel.Machine, order []Key) {
	if d.cfg.SpillMax <= 0 || len(d.dirty) <= d.cfg.SpillMax {
		return
	}
	tail := order[d.cfg.SpillMax:]
	// Burn the sequence number even if this attempt fails: a later
	// attempt's journal commit must never ratify a stale frame left by
	// a torn earlier write.
	seq := d.spillSeq
	d.spillSeq++
	frames, err := buildSpillFrames(seq, d.dirty, tail)
	if err != nil {
		d.spillErrors++
		d.hardCap(order)
		return
	}
	if err := m.Kern.SysWrite(d.proc, SpillFile, frames); err != nil {
		if errors.Is(err, kernel.ErrCrashed) {
			d.crashed = true
			d.stopped = true
			return
		}
		d.spillErrors++
		d.hardCap(order)
		return
	}
	var total uint64
	for _, k := range tail {
		total += d.dirty[k]
	}
	if err := m.Kern.SysWrite(d.proc, DaemonJournalFile, CommitRecord(journalSpillVerb, seq, total)); err != nil {
		if errors.Is(err, kernel.ErrCrashed) {
			d.crashed = true
			d.stopped = true
			return
		}
		// The frames landed but were never ratified: recovery discards
		// them and the keys stay dirty — adopting samples that are still
		// accounted unflushed would double-count.
		d.spillErrors++
		d.journalErrors++
		d.hardCap(order)
		return
	}
	for _, k := range tail {
		d.spilledOnDisk += d.dirty[k]
		delete(d.dirty, k)
	}
	d.spillBatches++
}

// hardCap is the last-resort memory bound when the spill path itself
// keeps failing: beyond 4x SpillMax keys the sorted far tail is
// dropped outright, its sample count accumulated in SpilledLost per
// event. Loud, bounded, and only reachable through repeated disk
// failure.
func (d *Daemon) hardCap(order []Key) {
	if d.cfg.SpillMax <= 0 {
		return
	}
	limit := 4 * d.cfg.SpillMax
	if len(d.dirty) <= limit {
		return
	}
	for _, k := range order[limit:] {
		c, ok := d.dirty[k]
		if !ok {
			continue
		}
		d.spilledLost += c
		d.spilledLostByEvent[k.Event.String()] += c
		d.spilledLostCPU[k.CPU] += c
		delete(d.dirty, k)
	}
}

// FinalFlush drains everything left and writes it out; call after the
// workload exits (opcontrol --shutdown). A crashed daemon stays dead —
// restarting it here would fake durability the run did not have.
func (d *Daemon) FinalFlush(m *kernel.Machine) {
	if d.crashed {
		return
	}
	d.processBatch(m, 0)
	// The shutdown path gets a couple of immediate retries: this is the
	// last chance to persist, and the run is over so backoff sleeps no
	// longer apply.
	for retry := 0; retry < 2 && len(d.dirty) > 0 && !d.crashed; retry++ {
		d.flush(m)
	}
	d.stopped = true
	if !d.crashed {
		d.writeStats(m)
	}
	m.Kern.Wake(d.proc)
}

// writeStats persists the daemon's view of the run as a framed
// key=value record. Best-effort: if this very write faults there is no
// meta-meta-file to record that in — the reader treats a missing or
// torn stats file as degradation.
func (d *Daemon) writeStats(m *kernel.Machine) {
	var unflushed uint64
	for _, c := range d.dirty {
		unflushed += c
	}
	ds := d.drv.Stats()
	ps := PersistedStats{
		NMIs: ds.NMIs, Logged: ds.Logged, Dropped: ds.Dropped,
		SamplesLogged: d.samplesLogged, Flushes: d.flushes, FlushErrors: d.flushErrors,
		Spilled: d.spilledOnDisk + d.spilledLost, Unflushed: unflushed,
		SpilledOnDisk: d.spilledOnDisk, SpilledLost: d.spilledLost, SpilledLostByEvent: d.spilledLostByEvent,
		SpillBatches: d.spillBatches, SpillErrors: d.spillErrors, JournalErrors: d.journalErrors,
		Clean: true,
	}
	// Per-CPU lines on SMP machines only: single-core stats files stay
	// byte-identical to pre-SMP.
	var cpus []PersistedStats
	if d.drv.NumCPU() > 1 {
		cpus = make([]PersistedStats, d.drv.NumCPU())
		for ci := range cpus {
			cs := d.drv.StatsCPU(ci)
			cpus[ci] = PersistedStats{NMIs: cs.NMIs, Logged: cs.Logged, Dropped: cs.Dropped, SpilledLost: d.spilledLostCPU[ci]}
			if ci < len(d.samplesLoggedCPU) {
				cpus[ci].SamplesLogged = d.samplesLoggedCPU[ci]
			}
		}
	}
	// Deliberately discarded: oprofiled.stats is the crash-signal-by-
	// absence protocol — the reader treats a missing or torn stats file
	// as an unclean shutdown, which is exactly the verdict a failed
	// stats write deserves, and there is no meta-meta-file to escalate to.
	//viplint:allow syswrite-err stats absence IS the degradation signal; nowhere to escalate
	_ = m.Kern.SysWrite(d.proc, DaemonStatsFile, record.Frame(ps.payload(cpus)))
}

// Counts returns the daemon's lifetime aggregate (tests and in-memory
// reporting).
func (d *Daemon) Counts() map[Key]uint64 {
	out := make(map[Key]uint64, len(d.counts))
	for k, v := range d.counts {
		out[k] = v
	}
	return out
}

// SamplesLogged returns the number of samples aggregated.
func (d *Daemon) SamplesLogged() uint64 { return d.samplesLogged }

// SamplesLoggedCPU returns the per-CPU split of SamplesLogged, indexed
// by CPU id. The slice may be shorter than the machine's core count if
// higher CPUs never produced a sample.
func (d *Daemon) SamplesLoggedCPU() []uint64 {
	out := make([]uint64, len(d.samplesLoggedCPU))
	copy(out, d.samplesLoggedCPU)
	return out
}

// Flushes returns the number of successful disk flushes.
func (d *Daemon) Flushes() uint64 { return d.flushes }

// FlushErrors returns the number of failed disk flushes.
func (d *Daemon) FlushErrors() uint64 { return d.flushErrors }

// Spilled returns the number of samples that left the dirty map
// through the spill path — parked on disk plus hard-cap losses.
func (d *Daemon) Spilled() uint64 { return d.spilledOnDisk + d.spilledLost }

// SpilledOnDisk returns the samples parked in committed spill frames.
func (d *Daemon) SpilledOnDisk() uint64 { return d.spilledOnDisk }

// SpilledLost returns the samples the hard cap dropped outright.
func (d *Daemon) SpilledLost() uint64 { return d.spilledLost }

// SpilledLostCPU splits SpilledLost by the CPU of each dropped key, so
// the per-CPU disk-conservation equality closes exactly even after
// hard-cap losses (the aggregate-only gap noted in ROADMAP's SMP
// follow-ups).
func (d *Daemon) SpilledLostCPU() map[int]uint64 {
	out := make(map[int]uint64, len(d.spilledLostCPU))
	for ci, c := range d.spilledLostCPU {
		out[ci] = c
	}
	return out
}

// SpillBatches returns the number of committed spill attempts.
func (d *Daemon) SpillBatches() uint64 { return d.spillBatches }

// SpillErrors returns the number of failed spill attempts.
func (d *Daemon) SpillErrors() uint64 { return d.spillErrors }

// JournalErrors returns the number of failed journal-commit writes.
func (d *Daemon) JournalErrors() uint64 { return d.journalErrors }

// Crashed reports whether fault injection killed the daemon mid-write.
func (d *Daemon) Crashed() bool { return d.crashed }

// Unflushed returns the samples still in the dirty map (aggregated but
// never successfully persisted).
func (d *Daemon) Unflushed() uint64 {
	var n uint64
	for _, c := range d.dirty {
		n += c
	}
	return n
}

// UnflushedCPU splits Unflushed by the CPU of each dirty key — the
// per-CPU conservation checks close their equations with it.
func (d *Daemon) UnflushedCPU() map[int]uint64 {
	out := make(map[int]uint64)
	for k, c := range d.dirty {
		out[k.CPU] += c
	}
	return out
}

// compareKeys is the daemon's total order on sample keys: the flush
// order within a CPU group and the spill order. Proc and JIT come last,
// so keys that differ only there still sort the same way every run.
func compareKeys(a, b Key) int {
	if a.Event != b.Event {
		return cmp.Compare(a.Event, b.Event)
	}
	if a.Image != b.Image {
		return strings.Compare(a.Image, b.Image)
	}
	if a.Epoch != b.Epoch {
		return cmp.Compare(a.Epoch, b.Epoch)
	}
	if a.Off != b.Off {
		return cmp.Compare(a.Off, b.Off)
	}
	if a.CPU != b.CPU {
		return cmp.Compare(a.CPU, b.CPU)
	}
	if a.Proc != b.Proc {
		return strings.Compare(a.Proc, b.Proc)
	}
	if a.JIT != b.JIT {
		if a.JIT {
			return 1
		}
		return -1
	}
	return 0
}
