package fleet

import (
	"fmt"
	"sort"

	"viprof/internal/core"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// On-disk layout of the fleet collector service.
const (
	// FleetDir is the root of every fleet artifact.
	FleetDir = "var/fleet"
	// JournalPrefix is the shared prefix of every shard's write-ahead
	// journal (the disk fault plans target it to strike all shards).
	JournalPrefix = "var/fleet/shard"
	// CollectorStatsFile is the service's framed self-counter record;
	// absence means the collector never shut down cleanly.
	CollectorStatsFile = "var/fleet/collector.stats"
	// AggregateFile is the merged aggregate's committed snapshot, a
	// framed WriteCounts body committed temp-then-rename so vipreport
	// and vipdiff can query it like any sample file.
	AggregateFile = "var/fleet/aggregate.samples"
	// GenDir holds the compacted generations; ManifestPath is the
	// atomically-committed index naming the current generation's files.
	GenDir       = "var/fleet/gen"
	ManifestPath = "var/fleet/gen/MANIFEST"
)

// maxShardSlots bounds offline shard-journal discovery: readers probe
// ShardJournalPath(0..maxShardSlots-1) by direct path, so a damaged
// directory listing can never hide a journal.
const maxShardSlots = 64

// ShardJournalPath names shard i's write-ahead journal.
func ShardJournalPath(i int) string {
	return fmt.Sprintf("%s%02d.journal", JournalPrefix, i)
}

// GenFilePath names one data file of a compacted generation.
func GenFilePath(gen, idx int) string {
	return fmt.Sprintf("%s/g%04d-%02d.samples", GenDir, gen, idx)
}

// SpillPath is the host's framed salvageable overflow file: deltas the
// sender parked after exhausting its retry budget.
func SpillPath(host int) string {
	return fmt.Sprintf("%s/host%02d/sender.spill", FleetDir, host)
}

// SenderStatsPath is the host sender's framed self-counter record.
// Deliberately outside the host spill directory, so listing damage
// aimed at spill discovery cannot hide it (it is read by direct path).
func SenderStatsPath(host int) string {
	return fmt.Sprintf("%s/stats/host%02d.stats", FleetDir, host)
}

// DeltaRec is one applied wire record retained by the aggregate: the
// unit the LSM store compacts, the windowed queries filter, and the
// shard merge dedups on (Host, Seq).
type DeltaRec struct {
	Host int
	Seq  uint64
	At   uint64
	Kind string
	// Counts/Total are the sample body (deltas).
	Counts map[oprofile.Key]uint64
	Total  uint64
	// Epoch/Entries are the replicated code map (maps).
	Epoch   int
	Entries []core.MapEntry
}

// Aggregate is a collector shard's pure in-memory state: the
// per-(host, seq) record set that makes ingestion idempotent, merging
// duplicate-suppressed, and windowed queries exact. It has no I/O and
// no clock, so the quickcheck property tests drive it directly against
// an oracle. Reads build state too (the window index and the window
// result), so an Aggregate is not safe for concurrent readers.
type Aggregate struct {
	byHost map[int]map[uint64]*DeltaRec
	// byAt is every applied record ordered by (At, Host, Seq): built
	// on the first windowed read, dropped by every apply.
	byAt []*DeltaRec
	// window is QueryWindow's result, cleared and refilled by each call.
	window map[oprofile.Key]uint64
	// hostTotals is samples applied per host; maxSeq the highest seq
	// applied per host (gaps below it are loud).
	hostTotals map[int]uint64
	maxSeq     map[int]uint64
	lastSeq    map[int]uint64

	// Ingested counts fresh applies; Duplicates seq-burned absorptions;
	// OutOfOrder arrivals below the host's high-water mark (absorbed,
	// counted as evidence the network reordered); MapsApplied fresh
	// code-map applies (a subset of Ingested).
	Ingested, Duplicates, OutOfOrder, MapsApplied uint64
}

// NewAggregate builds an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		byHost:     make(map[int]map[uint64]*DeltaRec),
		window:     make(map[oprofile.Key]uint64),
		hostTotals: make(map[int]uint64),
		maxSeq:     make(map[int]uint64),
		lastSeq:    make(map[int]uint64),
	}
}

// Applied reports whether (host, seq) has been applied.
func (a *Aggregate) Applied(host int, seq uint64) bool {
	return a.byHost[host][seq] != nil
}

// Apply ingests one decoded delta or replicated map. It is idempotent:
// a seq already burned for the host is absorbed without touching the
// counts, so duplicated or replayed records can never double-count.
func (a *Aggregate) Apply(msg *WireMsg) (fresh bool) {
	if msg.Kind != KindDelta && msg.Kind != KindMap {
		return false
	}
	return a.applyRec(&DeltaRec{
		Host: msg.Host, Seq: msg.Seq, At: msg.At, Kind: msg.Kind,
		Counts: msg.Counts, Total: msg.Total(),
		Epoch: msg.Epoch, Entries: msg.Entries,
	})
}

// applyRec burns the seq and folds the record in (shared by Apply and
// MergeAggregates; the rec is retained by reference).
func (a *Aggregate) applyRec(rec *DeltaRec) bool {
	set, ok := a.byHost[rec.Host]
	if !ok {
		set = make(map[uint64]*DeltaRec)
		a.byHost[rec.Host] = set
	}
	if set[rec.Seq] != nil {
		a.Duplicates++
		return false
	}
	if rec.Seq < a.lastSeq[rec.Host] {
		a.OutOfOrder++
	}
	a.lastSeq[rec.Host] = rec.Seq
	set[rec.Seq] = rec
	a.byAt = nil
	if rec.Seq > a.maxSeq[rec.Host] {
		a.maxSeq[rec.Host] = rec.Seq
	}
	a.hostTotals[rec.Host] += rec.Total
	if rec.Kind == KindMap {
		a.MapsApplied++
	}
	a.Ingested++
	return true
}

// MergeAggregates builds the duplicate-suppressed union of the parts:
// each (host, seq) record is taken from the first part that holds it,
// in argument order. This is how the live multi-shard aggregate is
// assembled — a record a crashed shard applied and a failover peer (or
// a restart replay) re-applied counts exactly once, no matter how many
// shards saw it.
func MergeAggregates(parts ...*Aggregate) *Aggregate {
	out := NewAggregate()
	for _, p := range parts {
		if p == nil {
			continue
		}
		hosts := make([]int, 0, len(p.byHost))
		for h := range p.byHost {
			hosts = append(hosts, h)
		}
		sort.Ints(hosts)
		for _, h := range hosts {
			seqs := make([]uint64, 0, len(p.byHost[h]))
			for s := range p.byHost[h] {
				seqs = append(seqs, s)
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			for _, s := range seqs {
				if out.byHost[h][s] != nil {
					continue
				}
				out.applyRec(p.byHost[h][s])
			}
		}
	}
	// The merge's own dedup absorptions are not protocol duplicates;
	// reset the counter so the union reads like one clean aggregate.
	out.Duplicates = 0
	out.OutOfOrder = 0
	return out
}

// Counts folds every applied record into a fresh map: the same fold
// QueryWindow(0, ^0) does, so the two agree by construction.
func (a *Aggregate) Counts() map[oprofile.Key]uint64 {
	out := make(map[oprofile.Key]uint64)
	for _, recs := range a.byHost {
		for _, rec := range recs {
			for k, c := range rec.Counts {
				out[k] += c
			}
		}
	}
	return out
}

// index returns every applied record ordered by (At, Host, Seq),
// building the slice on first use after an apply.
func (a *Aggregate) index() []*DeltaRec {
	if a.byAt == nil {
		n := 0
		for _, recs := range a.byHost {
			n += len(recs)
		}
		idx := make([]*DeltaRec, 0, n)
		for _, recs := range a.byHost {
			for _, rec := range recs {
				idx = append(idx, rec)
			}
		}
		sort.Slice(idx, func(i, j int) bool {
			x, y := idx[i], idx[j]
			if x.At != y.At {
				return x.At < y.At
			}
			if x.Host != y.Host {
				return x.Host < y.Host
			}
			return x.Seq < y.Seq
		})
		a.byAt = idx
	}
	return a.byAt
}

// Window returns the applied records (deltas and maps) generated in
// [from, to) on the sender-side cycle clock, ordered by (At, Host,
// Seq): two binary searches over the index. The slice is shared;
// callers must not mutate it.
func (a *Aggregate) Window(from, to uint64) []*DeltaRec {
	idx := a.index()
	lo := sort.Search(len(idx), func(i int) bool { return idx[i].At >= from })
	hi := lo + sort.Search(len(idx)-lo, func(i int) bool { return idx[lo+i].At >= to })
	return idx[lo:hi]
}

// QueryWindow folds only the sample deltas generated in [from, to) on
// the sender-side cycle clock — the time-windowed query over the
// compacted store. QueryWindow(0, ^0) == Counts(), and any boundary t
// partitions: QueryWindow(0,t) + QueryWindow(t,^0) == Counts().
//
// The result is a map the Aggregate owns: each call clears and refills
// it, so it is valid only until the next QueryWindow on the same
// Aggregate. Callers that keep a window past that must copy it.
func (a *Aggregate) QueryWindow(from, to uint64) map[oprofile.Key]uint64 {
	clear(a.window)
	for _, rec := range a.Window(from, to) {
		for k, c := range rec.Counts {
			a.window[k] += c
		}
	}
	return a.window
}

// TimeBounds returns the [min, max] At over applied records (ok=false
// when empty) — the axis vipreport's -window flag cuts on.
func (a *Aggregate) TimeBounds() (min, max uint64, ok bool) {
	idx := a.index()
	if len(idx) == 0 {
		return 0, 0, false
	}
	return idx[0].At, idx[len(idx)-1].At, true
}

// Maps returns the host's replicated code maps as a per-epoch entry
// slice (index = epoch), ready for core.NewMapChain — nil if the host
// replicated none.
func (a *Aggregate) Maps(host int) [][]core.MapEntry {
	maxEpoch := 0
	for _, rec := range a.byHost[host] {
		if rec.Kind == KindMap && rec.Epoch > maxEpoch {
			maxEpoch = rec.Epoch
		}
	}
	if maxEpoch == 0 {
		return nil
	}
	perEpoch := make([][]core.MapEntry, maxEpoch+1)
	for _, rec := range a.byHost[host] {
		if rec.Kind == KindMap {
			perEpoch[rec.Epoch] = append(perEpoch[rec.Epoch], rec.Entries...)
		}
	}
	return perEpoch
}

// MapEpochs returns how many distinct epochs the host replicated maps
// for.
func (a *Aggregate) MapEpochs(host int) int {
	n := 0
	for _, rec := range a.byHost[host] {
		if rec.Kind == KindMap {
			n++
		}
	}
	return n
}

// Records returns the host's applied records sorted by seq (shared
// slices; callers must not mutate).
func (a *Aggregate) Records(host int) []*DeltaRec {
	recs := make([]*DeltaRec, 0, len(a.byHost[host]))
	for _, rec := range a.byHost[host] {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs
}

// Total is the aggregate sample total.
func (a *Aggregate) Total() uint64 {
	var n uint64
	for _, t := range a.hostTotals {
		n += t
	}
	return n
}

// HostTotal is the samples applied for one host.
func (a *Aggregate) HostTotal(host int) uint64 { return a.hostTotals[host] }

// Hosts returns the hosts with applied records, sorted.
func (a *Aggregate) Hosts() []int {
	out := make([]int, 0, len(a.byHost))
	for h := range a.byHost {
		out = append(out, h)
	}
	sort.Ints(out)
	return out
}

// MaxSeq is the highest applied seq for the host.
func (a *Aggregate) MaxSeq(host int) uint64 { return a.maxSeq[host] }

// Gaps returns the host's unapplied seqs below its high-water mark —
// the candidate MissingDelta set the integrity assembly must explain
// from host-side artifacts (spilled or lost) or poison loudly.
func (a *Aggregate) Gaps(host int) []uint64 {
	var out []uint64
	set := a.byHost[host]
	for s := uint64(1); s <= a.maxSeq[host]; s++ {
		if set[s] == nil {
			out = append(out, s)
		}
	}
	return out
}

// CollectorConfig tunes the collector service.
type CollectorConfig struct {
	// WakeCycles is each shard's ingest poll period (default 8_000).
	WakeCycles uint64
	// Procs is the number of collector shard processes, each pinned to
	// a core (default: one per machine core, capped at 8).
	Procs int
	// CompactEveryCycles is the compactor daemon's pass period; 0
	// disables online compaction (the store still compacts offline via
	// CompactDisk).
	CompactEveryCycles uint64
	// RestartBackoffCycles is the base of the supervisor's jittered
	// exponential backoff between restart attempts of one shard
	// (default 100_000).
	RestartBackoffCycles uint64
	// MaxRestarts bounds supervisor restart attempts per shard (and for
	// the compactor), default 8 — the core.RunRecovery shape: bounded
	// attempts, then give up loudly.
	MaxRestarts int
	// Seed drives the supervisor's backoff jitter.
	Seed int64
}

func (c *CollectorConfig) fill(cores int) {
	if c.WakeCycles == 0 {
		c.WakeCycles = 8_000
	}
	if c.Procs <= 0 {
		c.Procs = cores
		if c.Procs > 8 {
			c.Procs = 8
		}
	}
	if c.Procs > maxShardSlots {
		c.Procs = maxShardSlots
	}
	if c.RestartBackoffCycles == 0 {
		c.RestartBackoffCycles = 100_000
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 8
	}
}

// CollectorStats is the service's self-accounting, persisted framed at
// shutdown (see CollectorPersisted in integrity.go).
type CollectorStats struct {
	// Shards is the configured shard-process count.
	Shards uint64
	// Ingested / Duplicates / OutOfOrder / MapsApplied sum the shards'
	// cumulative ingest counters.
	Ingested, Duplicates, OutOfOrder, MapsApplied uint64
	// WireDamaged counts received frames that failed their checksum or
	// would not parse (dropped without ack — the sender retries).
	WireDamaged uint64
	// JournalErrors counts failed write-ahead appends (the record was
	// not applied and not acked).
	JournalErrors uint64
	// AcksSent counts acknowledgements (including re-acks of absorbed
	// duplicates and handoff-burned seqs).
	AcksSent uint64
	// Restarts counts supervisor shard restarts after a crash;
	// ReplayErrors failed store replays during restart; ReplayedFrames
	// the frames rebuilt into memory across all restarts; MarkerErrors
	// failed restart-marker appends; DeadLetters datagrams flushed from
	// dead shard queues at restart (or left undeliverable at shutdown).
	Restarts, ReplayErrors, ReplayedFrames, MarkerErrors, DeadLetters uint64
	// Failovers counts serving-set shrinks (a dead shard's hosts
	// rehashed onto its peers); Handoffs the peer-applied seqs burned
	// into handoff sets during failover and restart (each one a
	// suppressed duplicate apply); HandoffErrors handoff burns aborted
	// by an unreadable peer journal (the failover is retried, never
	// completed blind); Misrouted records that arrived at a shard the
	// rendezvous hash no longer routes their host to (dropped unacked —
	// the sender retries against the current route).
	Failovers, Handoffs, HandoffErrors, Misrouted uint64
	// Compactions counts committed compaction passes; CompactErrors
	// passes aborted by a write/rename fault (the old generation stays
	// live — an abort never destroys).
	Compactions, CompactErrors uint64
	// SnapshotErrors counts failed aggregate-snapshot commits.
	SnapshotErrors uint64
	// Clean reports an orderly shutdown with every shard alive reached
	// the stats write.
	Clean bool
}

// JournalReplay is the outcome of one offline store load: the manifest
// generation plus every shard journal, read through the salvage layer.
type JournalReplay struct {
	// Salvage sums record-level damage across every file read.
	Salvage record.Salvage
	// Deltas / Maps / Duplicates / Markers / ParseErrors classify the
	// intact records. ParseErrors are checksum-valid records that would
	// not parse — a writer bug, not disk damage, and loud.
	Deltas, Maps, Duplicates, Markers, ParseErrors int
	// Journals is how many shard journals were found; GenFiles and
	// GenFrames the compacted generation's footprint; ManifestGen its
	// generation number (0 = never compacted).
	Journals, GenFiles, GenFrames int
	ManifestGen                   int
	// ManifestDamaged marks a manifest that existed but was torn or
	// unparseable — the generation index is gone, which is loud
	// degradation even though the journals still replay.
	ManifestDamaged bool
}

// LoadStore rebuilds an aggregate from the durable store: the current
// compacted generation (via the manifest) first, then every shard
// journal, all through the salvage layer. Torn tails (a crash
// mid-append) fail their checksum and are dropped — safely, because an
// unjournaled record was never acked and the sender still holds it;
// journal frames not yet pruned by compaction dedup against the
// generation via seq burning. Returns an error only if a store file
// exists but cannot be read (injected EIO) — the caller retries or
// degrades loudly. The second argument is unused; it remains so that
// existing callers, which pass 0, keep compiling.
func LoadStore(disk *kernel.Disk, _ int) (*Aggregate, JournalReplay, error) {
	sc, err := scanStore(disk, storeJournals)
	if err != nil {
		return nil, JournalReplay{}, err
	}
	agg, rep := sc.replay()
	return agg, rep, nil
}

// SpillReingest is the outcome of merging one host's parked spill file
// back into an aggregate.
type SpillReingest struct {
	Host int
	// Applied are the parked records merged fresh; Absorbed the ones
	// the aggregate had already applied (a spill whose ack arrived
	// late); ParseErrors checksum-valid records that would not parse.
	Applied, Absorbed, ParseErrors int
	Salvage                        record.Salvage
	// ReadError marks an injected EIO on the spill read.
	ReadError bool
}

// ReingestSpills merges every host's parked spill records into the
// aggregate — the fleet-level analogue of the startup spill merge:
// because ingestion is seq-burned idempotent, re-offering a record
// whose ack was lost is safe, and a genuinely parked one (sample delta
// and replicated code map alike) is recovered rather than held forever.
// Pure disk+memory; run it offline after a chaos run to reclaim spilled
// samples.
func ReingestSpills(disk *kernel.Disk, agg *Aggregate, hosts []int) []SpillReingest {
	var out []SpillReingest
	for _, host := range hosts {
		msgs, sal, bad, err := readSpill(disk, host)
		ri := SpillReingest{Host: host, ParseErrors: bad, Salvage: sal, ReadError: err != nil}
		for _, msg := range msgs {
			if agg.Apply(msg) {
				ri.Applied++
			} else {
				ri.Absorbed++
			}
		}
		out = append(out, ri)
	}
	return out
}
