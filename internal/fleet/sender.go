package fleet

import (
	"fmt"
	"math/rand"

	"viprof/internal/addr"
	"viprof/internal/core"
	"viprof/internal/hpc"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// SenderConfig tunes one host's delta sender.
type SenderConfig struct {
	// Host is the network endpoint id (1..N; shard endpoints are
	// negative).
	Host int
	// Deltas is how many sample deltas the host generates (default 12).
	Deltas int
	// Seed drives workload generation and backoff jitter.
	Seed int64
}

// The sender's fixed shape.
const (
	// ackTimeoutCycles is the ack timeout per attempt: comfortably above
	// the network's worst stacked delay plus the collector's poll
	// period, so latency alone never times out.
	ackTimeoutCycles = 600_000
	// retryBaseCycles and retryCapCycles shape the capped exponential
	// backoff between retries; jitter comes from the sender's seeded
	// RNG.
	retryBaseCycles = 40_000
	retryCapCycles  = 640_000
	// maxSendAttempts is the retry budget before a delta spills.
	maxSendAttempts = 8
	// keysPerDelta is the keys per generated sample delta.
	keysPerDelta = 4
	// mapEpochs is how many epoch code maps a host replicates before
	// its sample deltas, matching the JIT epoch range the workload
	// tags. Maps ride the same seq space and retry protocol as deltas.
	mapEpochs = 3
	// genEveryCycles is the generation period.
	genEveryCycles = 30_000
	// sendWindow bounds in-flight unacked deltas.
	sendWindow = 4
)

func (c *SenderConfig) fill() {
	if c.Deltas == 0 {
		c.Deltas = 12
	}
}

// ProcName is the host's process name (the Proc field of every key it
// generates — the misattribution check hinges on it).
func (c SenderConfig) ProcName() string { return fmt.Sprintf("host%02d", c.Host) }

// Delta hold states. A delta is "held" by its host until the collector
// has durably applied it; the conservation equality partitions every
// generated delta into exactly one of applied-by-collector or held.
const (
	// HoldPending: still retrying (or in flight) at shutdown.
	HoldPending = "pending"
	// HoldSpilled: retry budget exhausted, parked durably in the framed
	// spill file — recoverable, degraded loudly, never lost.
	HoldSpilled = "spilled"
	// HoldLost: retry budget exhausted AND the spill write failed; the
	// only state where samples are gone, and it is accounted per event.
	HoldLost = "lost"
)

// Delta is one generated record (a sample delta or a replicated code
// map) and its full lifecycle: the in-memory list doubles as the
// per-host oracle the chaos sweep checks the collector against.
type Delta struct {
	Record

	frame    []byte // the encoded record; nil once acked
	attempts int
	deadline uint64 // ack deadline of the outstanding attempt
	nextTry  uint64 // backoff gate for the next attempt
	inflight bool

	// Acked: the collector acknowledged (it journaled and applied the
	// delta). Hold: non-empty once the host gave up ("spilled"/"lost")
	// or at shutdown while unresolved ("pending").
	Acked bool
	Hold  string
}

// SenderStats is one host's self-accounting, persisted framed at exit.
type SenderStats struct {
	Generated, Sent, Retries, Timeouts, Acked uint64
	// MapsGenerated/MapsAcked track the code-map subset of the above —
	// the replication-completeness check (clean run: equal).
	MapsGenerated, MapsAcked uint64
	// Spilled/Deferred/Lost deltas: spilled are parked durably, deferred
	// counts backoff waits taken (transient degradation that resolved or
	// ended in spill), lost had their spill write fail too.
	Spilled, Deferred, Lost uint64
	// SpillErrors counts failed spill writes; StatsErrors failed stats
	// persists (observed by integrity as a missing/torn stats file).
	SpillErrors, StatsErrors uint64
	// SpilledSamples/LostSamples are sample totals over those deltas.
	SpilledSamples, LostSamples uint64
	// SpilledByEvent/LostByEvent break the degradation down per hardware
	// event, keyed by hpc.Event.String() — the per-event accounting the
	// Integrity report surfaces.
	SpilledByEvent, LostByEvent map[string]uint64
	// Clean reports the sender exited its loop and persisted stats.
	Clean bool
}

// Sender is one host's delta shipper: generate on the simulated clock,
// send with an ack timeout, retry under capped exponential backoff with
// seeded jitter, and spill durably when the budget runs out.
type Sender struct {
	cfg SenderConfig
	// proc is cfg.ProcName(), formatted once: the Proc of every key
	// the host generates.
	proc  string
	net   *Network
	rng   *rand.Rand
	now   func() uint64
	route func(host int) int // host → collector endpoint, queried per send
	stats SenderStats

	Deltas    []*Delta
	generated int
	nextGen   uint64
	finished  bool
}

// NewSender builds a host sender and registers its process (a regular
// process: the machine runs until every sender resolves or crashes).
// route maps this host to its collector shard endpoint; it is queried
// on every send, so a failover re-aims retries with no coordination.
func NewSender(m *kernel.Machine, net *Network, now func() uint64, route func(host int) int, cfg SenderConfig) (*Sender, error) {
	cfg.fill()
	s := &Sender{
		cfg:   cfg,
		proc:  cfg.ProcName(),
		net:   net,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		now:   now,
		route: route,
		stats: SenderStats{
			SpilledByEvent: make(map[string]uint64),
			LostByEvent:    make(map[string]uint64),
		},
	}
	if _, err := m.Kern.NewProcess(s.proc, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Stats snapshots the sender's self-accounting.
func (s *Sender) Stats() SenderStats { return s.stats }

// Finished reports whether the sender resolved every delta and exited.
func (s *Sender) Finished() bool { return s.finished }

// totalMsgs is how many wire records the host generates in all: the
// epoch code maps first, then the sample deltas, one shared seq space.
func (s *Sender) totalMsgs() int { return mapEpochs + s.cfg.Deltas }

// mapEntries builds the synthetic epoch-e code map: 16 compiled
// methods tiling the JIT offset range the workload samples
// ([0x1000, 0x2000)), with host-independent signatures so the same
// method aggregates across hosts in fleet reports.
func mapEntries(epoch int) []core.MapEntry {
	entries := make([]core.MapEntry, 0, 16)
	for i := 0; i < 16; i++ {
		entries = append(entries, core.MapEntry{
			Start: addr.Address(0x1000 + 256*i),
			Size:  256,
			Epoch: epoch,
			Level: "opt",
			Sig:   fmt.Sprintf("LFleet;m%02d_e%d()V", i, epoch),
		})
	}
	return entries
}

// generate builds the next record. The first mapEpochs seqs replicate
// the host's epoch code maps; the rest are sample deltas — synthetic
// but shaped like real daemon flushes: a few images, this host's proc
// name on every key, an occasional JIT key with an epoch tag.
func (s *Sender) generate(at uint64) *Delta {
	seq := uint64(s.generated + 1)
	if int(seq) <= mapEpochs {
		epoch := int(seq)
		return &Delta{Record: Record{
			Kind: KindMap, Host: s.cfg.Host, Seq: seq, At: at,
			Epoch: epoch, Entries: mapEntries(epoch),
		}}
	}
	images := []string{"fleet.app", "libfleet.so", "vmlinux"}
	counts := make([]oprofile.KeyCount, 0, keysPerDelta)
	for i := 0; i < keysPerDelta; i++ {
		k := oprofile.Key{
			Event: hpc.Event(s.rng.Intn(2)),
			Image: images[s.rng.Intn(len(images))],
			Proc:  s.proc,
			Off:   addr.Address(0x1000 + 8*s.rng.Intn(512)),
		}
		if s.rng.Intn(5) == 0 {
			k.Image = oprofile.JITImageName
			k.JIT = true
			k.Epoch = 1 + s.rng.Intn(3)
		}
		counts = append(counts, oprofile.KeyCount{Key: k, Count: uint64(1 + s.rng.Intn(4))})
	}
	return &Delta{Record: Record{Kind: KindDelta, Host: s.cfg.Host, Seq: seq, At: at, Counts: sortRun(counts)}}
}

// backoff sizes the wait before retry attempt n (1-based): base
// doubled per attempt up to ceil, plus jitter in [0, base) drawn from
// rng. The sender's retries and the supervisor's restarts both wait
// this way.
func backoff(rng *rand.Rand, base, ceil uint64, attempt int) uint64 {
	d := base << uint(attempt-1)
	if d > ceil || d < base {
		d = ceil
	}
	return d + uint64(rng.Int63n(int64(base)))
}

// drainAcks consumes acknowledgements addressed to this host.
func (s *Sender) drainAcks() {
	for _, data := range s.net.Deliver(s.cfg.Host) {
		msg, err := DecodeWire(data)
		if err != nil || msg.Kind != KindAck {
			continue
		}
		for _, d := range s.Deltas {
			if d.Seq == msg.Seq && !d.Acked {
				d.Acked = true
				d.inflight = false
				// Only an unacked delta is sent again or spilled.
				d.frame = nil
				if d.Kind == KindMap {
					s.stats.MapsAcked++
				}
				// A late ack rescues a delta we had already given up on:
				// the collector applied it, so the host no longer holds
				// it. The spill-file copy becomes an absorbable
				// duplicate, not a held sample.
				if d.Hold != "" {
					s.unhold(d)
				}
				s.stats.Acked++
			}
		}
	}
}

// unhold reverses the spilled/lost accounting for a delta rescued by a
// late ack.
func (s *Sender) unhold(d *Delta) {
	switch d.Hold {
	case HoldSpilled:
		s.stats.Spilled--
		s.stats.SpilledSamples -= d.Total()
		unholdEvents(s.stats.SpilledByEvent, d)
	case HoldLost:
		s.stats.Lost--
		s.stats.LostSamples -= d.Total()
		unholdEvents(s.stats.LostByEvent, d)
	}
	d.Hold = ""
}

// unholdEvents takes d's counts back out of a per-event map, deleting
// an event once it reaches zero. Every delta count is at least 1, so a
// zero entry can arise only here, and the maps hold none.
func unholdEvents(byEvent map[string]uint64, d *Delta) {
	for _, kc := range d.Counts {
		ev := kc.Key.Event.String()
		byEvent[ev] -= kc.Count
		if byEvent[ev] == 0 {
			delete(byEvent, ev)
		}
	}
}

// spill parks a delta durably after the retry budget runs out.
func (s *Sender) spill(m *kernel.Machine, p *kernel.Process, d *Delta) {
	//viplint:allow record-frame d.frame is the Record.Encode-built wire record, framed once at generation and reused for sends and spills
	err := m.Kern.SysWriteSync(p, SpillPath(s.cfg.Host), d.frame)
	if p.Killed() {
		// Crash mid-spill: the delta stays pending; whether the frame
		// landed is the salvage scan's problem (a torn tail drops).
		return
	}
	if err != nil {
		d.Hold = HoldLost
		s.stats.SpillErrors++
		s.stats.Lost++
		s.stats.LostSamples += d.Total()
		for _, kc := range d.Counts {
			s.stats.LostByEvent[kc.Key.Event.String()] += kc.Count
		}
		return
	}
	d.Hold = HoldSpilled
	s.stats.Spilled++
	s.stats.SpilledSamples += d.Total()
	for _, kc := range d.Counts {
		s.stats.SpilledByEvent[kc.Key.Event.String()] += kc.Count
	}
}

// Step implements kernel.Executor: one scheduling pass of the send loop.
func (s *Sender) Step(m *kernel.Machine, p *kernel.Process) kernel.StepResult {
	now := s.now()
	s.drainAcks()

	// Generate due records (maps first, then sample deltas).
	for s.generated < s.totalMsgs() && now >= s.nextGen {
		d := s.generate(now)
		d.frame = d.Encode()
		s.Deltas = append(s.Deltas, d)
		s.generated++
		s.stats.Generated++
		if d.Kind == KindMap {
			s.stats.MapsGenerated++
		}
		m.Kern.ExecKernel("sys_write", 15+len(d.frame)/32, 1)
		s.nextGen = now + genEveryCycles
	}

	// Drive unresolved deltas.
	inflight := 0
	for _, d := range s.Deltas {
		if d.inflight && !d.Acked {
			inflight++
		}
	}
	var wake uint64 // earliest future event (0 = none)
	sooner := func(at uint64) {
		if at > now && (wake == 0 || at < wake) {
			wake = at
		}
	}
	if s.generated < s.totalMsgs() {
		sooner(s.nextGen)
	}
	unresolved := 0
	for _, d := range s.Deltas {
		if d.Acked || d.Hold != "" {
			continue
		}
		unresolved++
		if d.inflight {
			if now < d.deadline {
				sooner(d.deadline)
				continue
			}
			// Ack timeout: back off before the next attempt.
			d.inflight = false
			inflight--
			s.stats.Timeouts++
			if d.attempts >= maxSendAttempts {
				s.spill(m, p, d)
				if p.Killed() {
					return kernel.StepBlocked
				}
				continue
			}
			d.nextTry = now + backoff(s.rng, retryBaseCycles, retryCapCycles, d.attempts)
			s.stats.Deferred++
		}
		if now < d.nextTry {
			sooner(d.nextTry)
			continue
		}
		if inflight >= sendWindow {
			continue
		}
		d.attempts++
		d.deadline = now + ackTimeoutCycles
		d.inflight = true
		inflight++
		// Route queried per attempt: after a failover the rendezvous
		// hash aims this host's retries at the absorbing shard.
		s.net.Send(s.cfg.Host, s.route(s.cfg.Host), d.frame)
		s.stats.Sent++
		if d.attempts > 1 {
			s.stats.Retries++
		}
		m.Kern.ExecKernel("sys_write", 10+len(d.frame)/64, 1)
		sooner(d.deadline)
	}

	if s.generated == s.totalMsgs() && unresolved == 0 {
		s.finish(m, p)
		if p.Killed() {
			return kernel.StepBlocked
		}
		return kernel.StepExit
	}
	if inflight > 0 {
		// Poll for acks well before the timeout would fire.
		poll := now + s.net.MaxDelayCycles() + 4_000
		sooner(poll)
	}
	if wake == 0 {
		wake = now + genEveryCycles
	}
	m.Kern.Sleep(p, wake-now)
	return kernel.StepBlocked
}

// finish persists the host's framed stats record. Mark deltas still
// unresolved (none, on this path) and write the self-accounting; a
// missing or torn stats file is the crash signal integrity reads.
func (s *Sender) finish(m *kernel.Machine, p *kernel.Process) {
	s.finished = true
	s.stats.Clean = true
	if err := m.Kern.SysWriteSync(p, SenderStatsPath(s.cfg.Host), record.Frame(oprofile.AppendStats(nil, s.stats.table()))); err != nil {
		s.stats.StatsErrors++
		s.stats.Clean = false
	}
}

// MarkShutdownHolds labels every still-unresolved delta as pending held
// at shutdown. Called by the fleet runner after the machine stops (a
// crashed sender never reaches finish; its unresolved deltas are held).
func (s *Sender) MarkShutdownHolds() {
	for _, d := range s.Deltas {
		if !d.Acked && d.Hold == "" {
			d.Hold = HoldPending
		}
	}
}
