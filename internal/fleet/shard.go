package fleet

import (
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

// supervised is what the supervisor keeps for one daemon process it
// restarts: a shard or the compactor.
type supervised struct {
	proc *kernel.Process
	// restarts is the restart attempts consumed; nextRestartAt the
	// jittered backoff gate; gaveUp the exhausted-budget flag.
	restarts      int
	nextRestartAt uint64
	gaveUp        bool
}

// Alive reports whether the process is running.
func (s *supervised) Alive() bool {
	return s.proc != nil && !s.proc.Killed() && !s.proc.Done()
}

// Shard is one collector shard process.
type Shard struct {
	supervised
	c   *Collector
	idx int
	// journal is ShardJournalPath(idx), formatted once.
	journal string
	agg     *Aggregate
	// handoff is the duplicate-suppression set: (host, seq) pairs some
	// peer durably applied. A matching record is re-acked without
	// journaling or applying.
	handoff map[int]map[uint64]bool
	// serving: the rendezvous hash includes this shard. Cleared by a
	// completed failover, restored by a completed restart.
	serving bool

	// Ingest counters: fresh applies, seq-burned duplicates (own and
	// handoff), arrivals below the host's last applied seq, and fresh
	// map applies. They live on the shard because a restart replaces
	// the aggregate while the service's self-accounting must stay
	// cumulative across incarnations.
	ingested, duplicates, outOfOrder, mapsApplied uint64
}

func (sh *Shard) procName() string { return fmt.Sprintf("shard%02d", sh.idx) }

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
	m.Kern.Sleep(p, shardWakeCycles)
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
	if err := m.Kern.SysWrite(p, sh.journal, data); err != nil {
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

func (sh *Shard) ack(msg *Record) {
	ack := Record{Kind: KindAck, Host: msg.Host, Seq: msg.Seq}
	sh.c.net.Send(ShardEndpoint(sh.idx), msg.Host, ack.Encode())
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
	c.stats.DeadLetters += uint64(c.net.Flush(ShardEndpoint(sh.idx)))
	own, err := scanStore(m.Kern.Disk(), []string{sh.journal})
	if err != nil {
		c.stats.ReplayErrors++
		return err
	}
	agg, rep := own.replay()
	// Every (host, seq) anywhere in the durable store — peers' journals
	// included — is re-ack-only here: serving blind would risk
	// double-applying a record a peer already owns.
	burn, err := c.handoffBurn(m)
	if err != nil {
		return err
	}
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
	marker := Record{Kind: KindRestart, Shard: sh.idx, Attempt: sh.restarts}
	if werr := m.Kern.SysWrite(proc, sh.journal, marker.Encode()); werr != nil {
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
// seed drives the supervisor's backoff jitter.
func NewCollector(m *kernel.Machine, net *Network, cfg CollectorConfig, seed int64) (*Collector, error) {
	cfg.fill(len(m.Kern.Cores()))
	c := &Collector{
		cfg: cfg,
		net: net,
		now: func() uint64 { return m.CPU().Cycles() },
		rng: rand.New(rand.NewSource(seed*0x9E3779B9 + 0x5DEECE66D)),
	}
	for i := 0; i < cfg.Procs; i++ {
		sh := &Shard{
			c: c, idx: i,
			journal: ShardJournalPath(i),
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

// handoffBurn reads every (host, seq) in the durable store: the set a
// failover burns into the surviving peers' handoff sets and a restart
// into the rejoining shard's. An unreadable journal counts a
// HandoffError and aborts the transition, which the supervisor retries
// rather than let a shard serve blind.
func (c *Collector) handoffBurn(m *kernel.Machine) (map[int]map[uint64]bool, error) {
	sc, err := scanStore(m.Kern.Disk(), storeJournals)
	if err != nil {
		c.stats.HandoffErrors++
		return nil, err
	}
	return sc.burnSet(), nil
}

// failover removes a dead shard from the serving set after burning its
// durable state into every surviving serving peer's handoff set. An
// unreadable journal aborts the whole transition (no peer absorbs the
// hosts blind); the supervisor retries on its next tick.
func (c *Collector) failover(m *kernel.Machine, dead *Shard) error {
	burn, err := c.handoffBurn(m)
	if err != nil {
		return err
	}
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

// Supervise is the periodic crash check: fail dead serving shards over
// to their peers, restart them under bounded attempts with jittered
// backoff, and respawn the compactor the same way. Idempotent and safe
// to call from both the in-run ticker and the shutdown drain loop.
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
		c.restartStep(m, &sh.supervised, now, sh.restart)
	}
	if co := c.compactor; co != nil && !co.Alive() {
		c.restartStep(m, &co.supervised, now, c.spawnCompactor)
	}
}

// restartStep is the supervisor's visit to one dead process: give up
// once maxRestarts attempts are spent, wait out the backoff gate, else
// spend an attempt on restart. A failed restart gates the next attempt
// behind a capped exponential backoff jittered from the service's
// seeded RNG.
func (c *Collector) restartStep(m *kernel.Machine, s *supervised, now uint64, restart func(*kernel.Machine) error) {
	if s.restarts >= maxRestarts {
		s.gaveUp = true
		return
	}
	if s.nextRestartAt > now {
		return
	}
	s.restarts++
	c.stats.Restarts++
	if err := restart(m); err != nil {
		s.nextRestartAt = now + backoff(c.rng, restartBackoffCycles, 8*restartBackoffCycles, s.restarts)
		return
	}
	s.nextRestartAt = 0
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
	tmp := AggregateFile + ".tmp"
	if err := m.Kern.SysWriteSync(proc, tmp, c.Aggregate().snapshot()); err != nil {
		c.stats.SnapshotErrors++
	} else if err := m.Kern.SysRename(proc, tmp, AggregateFile); err != nil {
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
	//viplint:allow errflow the stats record is the clean-shutdown signal itself: if this write fails the file is absent or torn and integrity reports the crash
	m.Kern.SysWriteSync(proc, CollectorStatsFile, record.Frame(oprofile.AppendStats(nil, stats.table())))
}
