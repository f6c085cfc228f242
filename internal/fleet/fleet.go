package fleet

import (
	"bytes"
	"fmt"
	"slices"

	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// FleetConfig describes one fleet run: N hosts shipping deltas over a
// faulty network into the collector, all on one simulated machine.
type FleetConfig struct {
	// Hosts is the sender count (default 4; endpoints 1..Hosts).
	Hosts int
	// DeltasPerHost overrides the senders' delta count (default 12).
	DeltasPerHost int
	// Seed derives every per-host workload seed.
	Seed int64
	// Net is the network fault plan.
	Net NetFaultPlan
	// Collector is the collector service's config.
	Collector CollectorConfig
}

const (
	// maxFleetCycles bounds a fleet run.
	maxFleetCycles = 2_000_000_000
	// supervisorPeriodCycles is the supervisor's crash-check period.
	supervisorPeriodCycles = 50_000
)

func (c *FleetConfig) fill() {
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.DeltasPerHost == 0 {
		c.DeltasPerHost = 12
	}
}

// FleetResult is everything a fleet run leaves behind: the live
// components (whose in-memory delta lists are the per-host oracles),
// the offline-replayed aggregate, and the integrity assembly.
type FleetResult struct {
	Config    FleetConfig
	Collector *Collector
	Senders   []*Sender
	// Replayed is the journal truth rebuilt offline after the run (nil
	// if the journal was unreadable); Replay its read-back accounting.
	Replayed *Aggregate
	Replay   JournalReplay
	// Integrity is the offline fleet integrity assembly.
	Integrity *FleetIntegrity
	// Net is the network injector accounting.
	Net NetFaultStats
	// RunErr is the machine-run error, if any (cycle limit, deadlock).
	RunErr error
	// SupervisorGaveUp reports the restart budget ran out with the
	// collector still down.
	SupervisorGaveUp bool
}

// RunFleet executes one fleet run on the given machine. Disk fault
// injectors should already be armed by the caller (the chaos harness
// arms them between construction and run, like RunChaosSchedule). On
// an SMP machine the collector shards pin to separate cores and the
// per-shard ingest pipelines run concurrently on the simulated clock.
func RunFleet(m *kernel.Machine, cfg FleetConfig) (*FleetResult, error) {
	cfg.fill()
	now := func() uint64 { return m.CPU().Cycles() }
	net := NewNetwork(now, cfg.Net)

	collector, err := NewCollector(m, net, cfg.Collector, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &FleetResult{Config: cfg, Collector: collector}

	for h := 1; h <= cfg.Hosts; h++ {
		scfg := SenderConfig{Host: h, Deltas: cfg.DeltasPerHost, Seed: cfg.Seed*0x9E3779B9 + int64(h)}
		s, err := NewSender(m, net, now, collector.RouteEndpoint, scfg)
		if err != nil {
			return nil, err
		}
		res.Senders = append(res.Senders, s)
	}

	// The supervisor: a periodic crash check that fails dead shards
	// over to their peers and restarts them through store replay,
	// bounded per shard like core.RunRecovery's attempt budget.
	m.Kern.AddTicker(supervisorPeriodCycles, func() {
		collector.Supervise(m)
	})

	res.RunErr = m.Kern.Run(maxFleetCycles)

	// Shutdown drain: keep supervising (dead shards restart under
	// backoff), advance every core past the worst in-flight delay so
	// queued datagrams and backoff gates come due, and ingest the
	// stragglers — until the service is whole with nothing pending, or
	// some shard's restart budget is exhausted.
	step := net.MaxDelayCycles() + 1
	if b := uint64(2 * restartBackoffCycles); b > step {
		step = b
	}
	maxDrains := maxRestarts*collector.Config().Procs*10 + 10
	for attempt := 0; attempt < maxDrains; attempt++ {
		collector.Supervise(m)
		for _, cc := range m.Cores {
			cc.AdvanceIdle(step)
		}
		collector.DrainRemaining(m)
		if collector.Alive() && collector.PendingTotal() == 0 {
			break
		}
		if collector.GaveUp() {
			break
		}
	}
	res.SupervisorGaveUp = collector.GaveUp()

	// Finalize: commit the aggregate snapshot and the collector's stats
	// record, restarting if the commit itself is struck.
	for attempt := 0; attempt <= 2; attempt++ {
		if !collector.Alive() {
			collector.Supervise(m)
			for _, cc := range m.Cores {
				cc.AdvanceIdle(step)
			}
			if !collector.Alive() {
				if collector.GaveUp() {
					res.SupervisorGaveUp = true
					break
				}
				continue
			}
		}
		collector.Finalize(m)
		if collector.Alive() {
			break
		}
	}

	for _, s := range res.Senders {
		s.MarkShutdownHolds()
	}

	// Offline truth: replay the durable store fresh (compacted
	// generation plus every shard journal), then assemble integrity
	// from the disk artifacts plus the network counters.
	res.Net = net.Stats()
	hosts := make([]int, cfg.Hosts)
	for i := range hosts {
		hosts[i] = i + 1
	}
	replayed, rep, rerr := LoadStore(m.Kern.Disk(), 0)
	res.Replay = rep
	if rerr != nil {
		// Store unreadable offline: fall back to the live aggregate
		// for gap analysis and mark the damage.
		res.Integrity = AssembleIntegrity(m.Kern.Disk(), collector.Aggregate(), rep, hosts, res.Net)
		res.Integrity.JournalUnreadable = true
	} else {
		res.Replayed = replayed
		res.Integrity = AssembleIntegrity(m.Kern.Disk(), replayed, rep, hosts, res.Net)
	}
	if res.SupervisorGaveUp && res.Integrity.Collector != nil {
		// A clean stats record cannot exist if the supervisor gave up
		// with the collector down; if one does, it is stale evidence
		// from before the final crash — distrust it.
		res.Integrity.Collector = nil
	}
	return res, nil
}

// Conservation is the fleet-level accounting check: every generated
// sample is either in the collector aggregate or held by its host, with
// per-key exactness (zero misattribution, zero double-counting).
type Conservation struct {
	GeneratedSamples uint64 // all samples generated across hosts
	AppliedSamples   uint64 // samples whose delta seq the collector applied
	HeldSamples      uint64 // samples in deltas the collector never applied
	AggregateSamples uint64 // the aggregate's own total
	// Mismatches describes every violated equality (empty == balanced).
	Mismatches []string
}

// Balanced reports whether the conservation equalities all held.
func (c *Conservation) Balanced() bool { return len(c.Mismatches) == 0 }

// CheckConservation verifies the headline invariant against the
// in-memory per-host oracles: the aggregate must equal, key for key,
// the union of exactly the deltas whose seqs it applied — no sample
// missing, duplicated, or attributed to the wrong host/image.
func CheckConservation(senders []*Sender, agg *Aggregate) *Conservation {
	c := &Conservation{}
	var applied []*Record
	for _, s := range senders {
		host := s.cfg.Host
		for _, d := range s.Deltas {
			total := d.Total()
			c.GeneratedSamples += total
			if agg.Applied(host, d.Seq) {
				c.AppliedSamples += total
				applied = append(applied, &d.Record)
			} else {
				c.HeldSamples += total
			}
		}
	}
	c.AggregateSamples = agg.Total()

	if c.GeneratedSamples != c.AppliedSamples+c.HeldSamples {
		c.Mismatches = append(c.Mismatches, fmt.Sprintf(
			"generated %d != applied %d + held %d",
			c.GeneratedSamples, c.AppliedSamples, c.HeldSamples))
	}
	if c.AggregateSamples != c.AppliedSamples {
		c.Mismatches = append(c.Mismatches, fmt.Sprintf(
			"aggregate total %d != applied oracle total %d",
			c.AggregateSamples, c.AppliedSamples))
	}
	// Walk the two runs in key order; a key one of them lacks counts 0
	// there.
	expected, got := foldRuns(applied), agg.Counts()
	for i, j := 0, 0; i < len(expected) || j < len(got); {
		order := -1 // which run holds the next key: <0 expected, >0 got, 0 both
		switch {
		case i == len(expected):
			order = 1
		case j < len(got):
			order = keyCompare(expected[i].Key, got[j].Key)
		}
		var k oprofile.Key
		var want, have uint64
		if order <= 0 {
			k, want = expected[i].Key, expected[i].Count
			i++
		}
		if order >= 0 {
			k, have = got[j].Key, got[j].Count
			j++
		}
		if want != have {
			c.Mismatches = append(c.Mismatches, fmt.Sprintf(
				"key %s/%s ev=%d jit=%t epoch=%d cpu=%d off=%#x: oracle %d, aggregate %d",
				k.Proc, k.Image, k.Event, k.JIT, k.Epoch, k.CPU, uint64(k.Off), want, have))
		}
	}
	return c
}

// CheckStoreFrames verifies the invariant a compaction pass's frame
// copy rests on: every intact frame in the store's generation and
// journals whose header parses — each delta and map frame, duplicates
// included, and each restart marker a pass would copy — also decodes,
// and encodes back to the same frame. Returns the violations (empty ==
// every frame is canonical) or the error that stopped the read.
func CheckStoreFrames(disk *kernel.Disk) ([]string, error) {
	sc, err := scanStore(disk, storeJournals)
	if err != nil {
		return nil, err
	}
	name := func(h *Record) string {
		if h.Kind == KindRestart {
			return fmt.Sprintf("restart marker shard %d attempt %d", h.Shard, h.Attempt)
		}
		return fmt.Sprintf("%s host %d seq %d", h.Kind, h.Host, h.Seq)
	}
	var bad []string
	for _, f := range slices.Concat(sc.markers, sc.frames) {
		rec, err := DecodePayload(f.payload)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("%s: header parses, body does not: %v", name(f.rec), err))
		case !bytes.Equal(rec.Encode(), record.Frame(f.payload)):
			bad = append(bad, fmt.Sprintf("%s: frame differs from its record's encoding", name(f.rec)))
		}
	}
	return bad, nil
}

// CheckMapReplication verifies code-map replication against the
// in-memory per-host oracles: every acked map record must be in the
// aggregate, and every applied one must match the sender's entries
// exactly — same epoch, same methods, same bytes of meaning. Returns
// the violations (empty == replicated faithfully).
func CheckMapReplication(senders []*Sender, agg *Aggregate) []string {
	var bad []string
	for _, s := range senders {
		host := s.cfg.Host
		maps := agg.Maps(host)
		for _, d := range s.Deltas {
			if d.Kind != KindMap {
				continue
			}
			applied := agg.Applied(host, d.Seq)
			if d.Acked && !applied {
				bad = append(bad, fmt.Sprintf(
					"host %d: acked map epoch %d (seq %d) missing from aggregate",
					host, d.Epoch, d.Seq))
				continue
			}
			if !applied {
				continue
			}
			if d.Epoch >= len(maps) || len(maps[d.Epoch]) != len(d.Entries) {
				got := 0
				if d.Epoch < len(maps) {
					got = len(maps[d.Epoch])
				}
				bad = append(bad, fmt.Sprintf(
					"host %d epoch %d: replicated %d entries, sender wrote %d",
					host, d.Epoch, got, len(d.Entries)))
				continue
			}
			if !slices.Equal(maps[d.Epoch], d.Entries) {
				bad = append(bad, fmt.Sprintf(
					"host %d epoch %d: replicated entries differ from what the sender wrote",
					host, d.Epoch))
			}
		}
	}
	return bad
}
