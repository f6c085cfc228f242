package fleet

import (
	"bytes"
	"fmt"
	"math/rand"

	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// The multi-process collector service. Each shard is its own kernel
// process pinned to a core, listening on its own network endpoint,
// journaling to its own write-ahead file — share-nothing ingest, so the
// N-core machine retires shard work in parallel instead of serializing
// the fleet on one clock. Host ownership is a rendezvous hash over the
// serving-shard set: deterministic, minimal movement when a shard
// leaves or rejoins, and recomputed by senders on every send so a
// failover redirects retries without any coordination message.
//
// The supervisor's contract is graceful degradation, never silent
// loss: a dead shard's hosts rehash onto its peers only after every
// peer has burned the dead shard's durable state into its handoff set
// (so a re-sent record the dead shard already applied is re-acked, not
// double-counted), and a shard rejoins only after replaying the
// generation store plus its own journal and burning its peers' state
// the same way. Any unreadable journal aborts the transition — retried
// on the next supervisor tick — rather than proceeding blind.

// ShardEndpoint is shard i's network endpoint id. Hosts are 1..N and
// endpoint 0 is reserved (the pre-SMP single collector's address), so
// shards listen on the negative ids.
func ShardEndpoint(i int) int { return -(i + 1) }

// Shard is one collector shard process.
type Shard struct {
	c   *Collector
	idx int
	agg *Aggregate
	// handoff is the duplicate-suppression set: (host, seq) pairs some
	// peer durably applied. A matching record is re-acked without
	// journaling or applying.
	handoff map[int]map[uint64]bool
	proc    *kernel.Process
	// serving: the rendezvous hash includes this shard. Cleared by a
	// completed failover, restored by a completed restart.
	serving bool
	// restarts is the supervisor attempts consumed; nextRestartAt the
	// jittered backoff gate; gaveUp the exhausted-budget flag.
	restarts      int
	nextRestartAt uint64
	gaveUp        bool

	// Cumulative ingest counters. They live on the shard, not the
	// aggregate, because a restart replaces the aggregate (replay
	// rebuilds its counters from disk) while the service's
	// self-accounting must stay cumulative across incarnations.
	ingested, duplicates, outOfOrder, mapsApplied uint64
}

func (sh *Shard) procName() string { return fmt.Sprintf("shard%02d", sh.idx) }

// Alive reports whether the shard process is running.
func (sh *Shard) Alive() bool {
	return sh.proc != nil && !sh.proc.Killed() && !sh.proc.Done()
}

// Restarts returns the supervisor attempts consumed by this shard.
func (sh *Shard) Restarts() int { return sh.restarts }

// Step implements kernel.Executor: drain this shard's endpoint,
// ingest, sleep.
func (sh *Shard) Step(m *kernel.Machine, p *kernel.Process) kernel.StepResult {
	for _, data := range sh.c.net.Deliver(ShardEndpoint(sh.idx)) {
		sh.ingest(m, p, data)
		if p.Killed() {
			// An injected crash struck the journal append; stop
			// touching state, the supervisor takes over.
			return kernel.StepBlocked
		}
	}
	m.Kern.Sleep(p, sh.c.cfg.WakeCycles)
	return kernel.StepBlocked
}

// ingest processes one received datagram: decode, dedup (own applied
// set, then the handoff set), ownership check, journal, apply, ack —
// in exactly that order, so every applied record is durable before its
// ack can release the sender's copy, and no record a peer applied can
// be applied again here.
func (sh *Shard) ingest(m *kernel.Machine, p *kernel.Process, data []byte) {
	c := sh.c
	// Ingestion is kernel work: checksum + parse, roughly linear in
	// the payload.
	m.Kern.ExecKernel("sys_read", 20+len(data)/32, 1)
	msg, err := DecodeWire(data)
	if err != nil {
		c.stats.WireDamaged++
		return
	}
	if msg.Kind != KindDelta && msg.Kind != KindMap {
		return
	}
	if sh.agg.Applied(msg.Host, msg.Seq) {
		// Seq already burned here: absorb the duplicate but re-ack it —
		// the retry usually means the previous ack was lost.
		sh.duplicates++
		sh.agg.Duplicates++
		sh.ack(msg)
		return
	}
	if sh.handoff[msg.Host][msg.Seq] {
		// A peer durably applied this seq (we burned its journal during
		// failover or restart). Re-ack without journaling: the handoff
		// suppressed a would-be duplicate apply.
		sh.duplicates++
		c.stats.Handoffs++
		sh.ack(msg)
		return
	}
	if c.Route(msg.Host) != sh.idx {
		// The rendezvous hash routes this host elsewhere (the sender
		// raced a failover). Drop unacked: a fresh apply here could
		// double-count against the true owner, and the sender's retry
		// will chase the current route.
		c.stats.Misrouted++
		return
	}
	if msg.Seq < sh.agg.lastSeq[msg.Host] {
		sh.outOfOrder++
	}
	// Write-ahead: the received frame is appended verbatim. The payload
	// is the sender's framed wire record (CRC-checked by DecodeWire
	// above and re-verified by record.Scan on every replay), so the
	// journal stays a salvageable concatenation of frames.
	//viplint:allow record-frame payload is the sender's framed wire record, checksum-verified by DecodeWire and salvage-scanned on replay
	if err := m.Kern.SysWrite(p, ShardJournalPath(sh.idx), data); err != nil {
		c.stats.JournalErrors++
		return // no apply, no ack: the sender retries
	}
	if sh.agg.Apply(msg) {
		sh.ingested++
		if msg.Kind == KindMap {
			sh.mapsApplied++
		}
	}
	sh.ack(msg)
}

func (sh *Shard) ack(msg *WireMsg) {
	sh.c.net.Send(ShardEndpoint(sh.idx), msg.Host, AckFrame(msg.Host, msg.Seq))
	sh.c.stats.AcksSent++
}

// restart is the supervisor's recovery pass for one shard (the
// core.RunRecovery shape): flush dead letters, replay the generation
// store plus this shard's own journal into a fresh aggregate, burn the
// full durable store into the handoff set, spawn a replacement process
// pinned to the same core, and append a durable restart marker. An
// error (store EIO) leaves the shard down for the supervisor to retry
// under backoff.
func (sh *Shard) restart(m *kernel.Machine) error {
	c := sh.c
	c.stats.Restarts++
	c.stats.DeadLetters += uint64(c.net.Flush(ShardEndpoint(sh.idx)))
	disk := m.Kern.Disk()
	own, err := scanStore(disk, []string{ShardJournalPath(sh.idx)})
	if err != nil {
		c.stats.ReplayErrors++
		return err
	}
	agg, rep := own.replay()
	// Handoff burn: every (host, seq) anywhere in the durable store —
	// peers' journals included — is re-ack-only here. An unreadable
	// peer journal aborts the rejoin; serving blind would risk
	// double-applying a record the peer already owns.
	all, err := scanStore(disk, storeJournals)
	if err != nil {
		c.stats.HandoffErrors++
		return err
	}
	burn := all.burnSet()
	for h, seqs := range burn {
		for s := range seqs {
			if !agg.Applied(h, s) {
				c.stats.Handoffs++
			}
		}
	}
	sh.agg = agg
	sh.handoff = burn
	c.stats.ReplayedFrames += uint64(rep.Deltas + rep.Maps)
	proc, err := m.Kern.NewProcess(sh.procName(), sh)
	if err != nil {
		return err
	}
	proc.Daemon = true
	m.Kern.Pin(proc, sh.idx)
	sh.proc = proc
	if werr := m.Kern.SysWrite(proc, ShardJournalPath(sh.idx), RestartJournalFrame(sh.idx, sh.restarts)); werr != nil {
		// The marker is evidence, not state: a failed append is counted
		// (and may itself have crashed the fresh process — the
		// supervisor will see that and come around again).
		c.stats.MarkerErrors++
	}
	sh.serving = true
	return nil
}

// Collector is the fleet collector service: Procs shard processes
// pinned to cores, a compactor daemon, and the supervisor state that
// restarts them.
type Collector struct {
	cfg   CollectorConfig
	net   *Network
	now   func() uint64
	rng   *rand.Rand // restart-backoff jitter (seeded, deterministic)
	stats CollectorStats

	shards    []*Shard
	compactor *Compactor
}

// NewCollector builds the service and registers one pinned daemon
// process per shard (plus the compactor when compaction is enabled).
func NewCollector(m *kernel.Machine, net *Network, cfg CollectorConfig) (*Collector, error) {
	cfg.fill(len(m.Kern.Cores()))
	c := &Collector{
		cfg: cfg,
		net: net,
		now: func() uint64 { return m.CPU().Cycles() },
		rng: rand.New(rand.NewSource(cfg.Seed*0x9E3779B9 + 0x5DEECE66D)),
	}
	for i := 0; i < cfg.Procs; i++ {
		sh := &Shard{
			c: c, idx: i,
			agg:     NewAggregate(),
			handoff: make(map[int]map[uint64]bool),
			serving: true,
		}
		proc, err := m.Kern.NewProcess(sh.procName(), sh)
		if err != nil {
			return nil, err
		}
		proc.Daemon = true
		m.Kern.Pin(proc, i)
		sh.proc = proc
		c.shards = append(c.shards, sh)
	}
	if cfg.CompactEveryCycles > 0 {
		if err := c.spawnCompactor(m); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Shards returns the shard slice (read-only by convention).
func (c *Collector) Shards() []*Shard { return c.shards }

// Config returns the filled collector config.
func (c *Collector) Config() CollectorConfig { return c.cfg }

// rendezvousScore mixes (host, shard) into a deterministic weight.
func rendezvousScore(host, shard int) uint64 {
	h := uint64(14695981039346656037)
	h ^= uint64(uint32(host))
	h *= 1099511628211
	h ^= uint64(uint32(shard)) << 17
	h *= 1099511628211
	h ^= h >> 29
	return h
}

// Route returns the shard index owning the host under the rendezvous
// hash over the serving set: highest score wins. With no shard serving
// (all mid-restart), routing falls back to the full set so senders keep
// a stable target whose queue the restarted shard will drain or flush.
func (c *Collector) Route(host int) int {
	best, bestScore, any := 0, uint64(0), false
	for _, sh := range c.shards {
		if !sh.serving {
			continue
		}
		if s := rendezvousScore(host, sh.idx); !any || s > bestScore {
			best, bestScore, any = sh.idx, s, true
		}
	}
	if !any {
		for _, sh := range c.shards {
			if s := rendezvousScore(host, sh.idx); s > bestScore {
				best, bestScore = sh.idx, s
			}
		}
	}
	return best
}

// RouteEndpoint is the network endpoint senders address the host's
// records to (queried per send, so failovers redirect retries).
func (c *Collector) RouteEndpoint(host int) int {
	return ShardEndpoint(c.Route(host))
}

// failover removes a dead shard from the serving set after burning its
// durable state into every surviving serving peer's handoff set. An
// unreadable journal aborts the whole transition (no peer absorbs the
// hosts blind); the supervisor retries on its next tick.
func (c *Collector) failover(m *kernel.Machine, dead *Shard) error {
	sc, err := scanStore(m.Kern.Disk(), storeJournals)
	if err != nil {
		c.stats.HandoffErrors++
		return err
	}
	burn := sc.burnSet()
	for _, p := range c.shards {
		if p == dead || !p.serving {
			continue
		}
		for h, seqs := range burn {
			set := p.handoff[h]
			if set == nil {
				set = make(map[uint64]bool)
				p.handoff[h] = set
			}
			for s := range seqs {
				set[s] = true
			}
		}
	}
	dead.serving = false
	c.stats.Failovers++
	return nil
}

// backoff sizes the wait before restart attempt n (1-based): capped
// exponential with jitter in [0, base) from the service's seeded RNG.
func (c *Collector) backoff(attempt int) uint64 {
	base := c.cfg.RestartBackoffCycles
	d := base << uint(attempt-1)
	if ceil := base * 8; d > ceil || d < base {
		d = ceil
	}
	return d + uint64(c.rng.Int63n(int64(base)))
}

// Supervise is the periodic crash check: fail dead serving shards over
// to their peers, restart them under bounded attempts with jittered
// backoff, and respawn the compactor. Idempotent and safe to call from
// both the in-run ticker and the shutdown drain loop.
func (c *Collector) Supervise(m *kernel.Machine) {
	now := c.now()
	for _, sh := range c.shards {
		if sh.Alive() {
			continue
		}
		if sh.serving {
			if err := c.failover(m, sh); err != nil {
				continue
			}
		}
		if sh.restarts >= c.cfg.MaxRestarts {
			sh.gaveUp = true
			continue
		}
		if sh.nextRestartAt > now {
			continue
		}
		sh.restarts++
		if err := sh.restart(m); err != nil {
			sh.nextRestartAt = now + c.backoff(sh.restarts)
			continue
		}
		sh.nextRestartAt = 0
	}
	c.superviseCompactor(m, now)
}

// Alive reports whether every shard process is running.
func (c *Collector) Alive() bool {
	for _, sh := range c.shards {
		if !sh.Alive() {
			return false
		}
	}
	return true
}

// GaveUp reports whether any shard exhausted its restart budget and is
// still down — the supervisor's loud terminal degradation.
func (c *Collector) GaveUp() bool {
	for _, sh := range c.shards {
		if sh.gaveUp && !sh.Alive() {
			return true
		}
	}
	return false
}

// PendingTotal sums the datagrams still queued for shard endpoints.
func (c *Collector) PendingTotal() int {
	n := 0
	for _, sh := range c.shards {
		n += c.net.Pending(ShardEndpoint(sh.idx))
	}
	return n
}

// Aggregate returns the live service-wide aggregate: the
// duplicate-suppressed merge of every shard's in-memory state.
func (c *Collector) Aggregate() *Aggregate {
	parts := make([]*Aggregate, len(c.shards))
	for i, sh := range c.shards {
		parts[i] = sh.agg
	}
	return MergeAggregates(parts...)
}

// Stats snapshots the self-counters (shard ingest counters folded in).
func (c *Collector) Stats() CollectorStats {
	s := c.stats
	s.Shards = uint64(len(c.shards))
	for _, sh := range c.shards {
		s.Ingested += sh.ingested
		s.Duplicates += sh.duplicates
		s.OutOfOrder += sh.outOfOrder
		s.MapsApplied += sh.mapsApplied
	}
	return s
}

// DrainRemaining ingests everything still queued for the live shards
// (the runner advances the clocks past the network's maximum delay
// first). Used at shutdown so in-flight datagrams land before the
// final snapshot.
func (c *Collector) DrainRemaining(m *kernel.Machine) {
	for {
		delivered := 0
		for _, sh := range c.shards {
			if !sh.Alive() {
				continue
			}
			msgs := c.net.Deliver(ShardEndpoint(sh.idx))
			delivered += len(msgs)
			for _, data := range msgs {
				sh.ingest(m, sh.proc, data)
				if sh.proc.Killed() {
					break
				}
			}
		}
		if delivered == 0 {
			return
		}
	}
}

// Finalize commits the merged aggregate snapshot (temp-then-rename,
// the same atomic protocol as epoch maps) and persists the service's
// framed stats record through the first live shard. Called once at
// orderly shutdown; a service with every shard dead never reaches the
// stats write, which is exactly the signal integrity reads — and the
// record claims Clean only when every shard is alive.
func (c *Collector) Finalize(m *kernel.Machine) {
	var proc *kernel.Process
	for _, sh := range c.shards {
		if sh.Alive() {
			proc = sh.proc
			break
		}
	}
	if proc == nil {
		return
	}
	counts := c.Aggregate().Counts()
	var buf bytes.Buffer
	if err := oprofile.WriteCounts(&buf, counts, sortedKeys(counts)); err == nil {
		frame := record.Frame(buf.Bytes())
		tmp := AggregateFile + ".tmp"
		if err := m.Kern.SysWriteSync(proc, tmp, frame); err != nil {
			c.stats.SnapshotErrors++
		} else if err := m.Kern.SysRename(proc, tmp, AggregateFile); err != nil {
			c.stats.SnapshotErrors++
		}
	} else {
		c.stats.SnapshotErrors++
	}
	if proc.Killed() {
		return // the snapshot commit crashed us; no clean stats record
	}
	for _, sh := range c.shards {
		if !sh.Alive() {
			c.stats.DeadLetters += uint64(c.net.Flush(ShardEndpoint(sh.idx)))
		}
	}
	stats := c.Stats()
	stats.Clean = c.Alive()
	//viplint:allow syswrite-err the stats record is the clean-shutdown signal itself: if this write fails the file is absent or torn and integrity reports the crash
	m.Kern.SysWriteSync(proc, CollectorStatsFile, record.Frame(oprofile.AppendStats(nil, stats.table())))
}
