package fleet

import (
	"fmt"
	"sort"
	"strings"

	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// Persisted stats records. Both the collector and every sender write
// one framed key=value record at clean shutdown (the RecoveryStats
// protocol, DESIGN §12): the record's absence or damage IS the crash
// signal, so the readers return nil instead of guessing.

// table is the collector stats record's schema.
func (s *CollectorStats) table() []oprofile.Stat {
	return []oprofile.Stat{
		{Key: "shards", Ptr: &s.Shards}, {Key: "ingested", Ptr: &s.Ingested},
		{Key: "duplicates", Ptr: &s.Duplicates}, {Key: "out_of_order", Ptr: &s.OutOfOrder},
		{Key: "maps_applied", Ptr: &s.MapsApplied}, {Key: "wire_damaged", Ptr: &s.WireDamaged},
		{Key: "journal_errors", Ptr: &s.JournalErrors}, {Key: "acks_sent", Ptr: &s.AcksSent},
		{Key: "restarts", Ptr: &s.Restarts}, {Key: "replay_errors", Ptr: &s.ReplayErrors},
		{Key: "replayed_frames", Ptr: &s.ReplayedFrames}, {Key: "marker_errors", Ptr: &s.MarkerErrors},
		{Key: "dead_letters", Ptr: &s.DeadLetters}, {Key: "snapshot_errors", Ptr: &s.SnapshotErrors},
		{Key: "failovers", Ptr: &s.Failovers}, {Key: "handoffs", Ptr: &s.Handoffs},
		{Key: "handoff_errors", Ptr: &s.HandoffErrors}, {Key: "misrouted", Ptr: &s.Misrouted},
		{Key: "compactions", Ptr: &s.Compactions}, {Key: "compact_errors", Ptr: &s.CompactErrors},
		{Key: "clean", Ptr: &s.Clean},
	}
}

// ReadCollectorStats parses the collector's persisted stats record (the
// last intact record wins). Nil means the collector never shut down
// cleanly.
func ReadCollectorStats(data []byte) *CollectorStats {
	recs, _ := record.Scan(data)
	s := &CollectorStats{}
	if len(recs) == 0 || !oprofile.DecodeStats(recs[len(recs)-1], s.table()) {
		return nil
	}
	return s
}

// table is the sender stats record's schema.
func (s *SenderStats) table() []oprofile.Stat {
	return []oprofile.Stat{
		{Key: "generated", Ptr: &s.Generated}, {Key: "sent", Ptr: &s.Sent},
		{Key: "retries", Ptr: &s.Retries}, {Key: "timeouts", Ptr: &s.Timeouts},
		{Key: "acked", Ptr: &s.Acked}, {Key: "spilled", Ptr: &s.Spilled},
		{Key: "deferred", Ptr: &s.Deferred}, {Key: "lost", Ptr: &s.Lost},
		{Key: "spill_errors", Ptr: &s.SpillErrors}, {Key: "stats_errors", Ptr: &s.StatsErrors},
		{Key: "spilled_samples", Ptr: &s.SpilledSamples}, {Key: "lost_samples", Ptr: &s.LostSamples},
		{Key: "maps_generated", Ptr: &s.MapsGenerated}, {Key: "maps_acked", Ptr: &s.MapsAcked},
		{Key: "spilled_by_event.", Ptr: &s.SpilledByEvent},
		{Key: "lost_by_event.", Ptr: &s.LostByEvent},
		{Key: "clean", Ptr: &s.Clean},
	}
}

// ReadSenderStats parses a host's persisted stats record (last intact
// record wins). Nil means the sender crashed before finishing.
func ReadSenderStats(data []byte) *SenderStats {
	recs, _ := record.Scan(data)
	s := &SenderStats{}
	if len(recs) == 0 || !oprofile.DecodeStats(recs[len(recs)-1], s.table()) {
		return nil
	}
	return s
}

// HostReport is the per-host slice of the fleet integrity assembly.
type HostReport struct {
	Host int
	// Stats is the sender's persisted self-accounting; nil means the
	// sender crashed (or its stats write was destroyed).
	Stats *SenderStats
	// StatsUnreadable marks an injected EIO on the stats read.
	StatsUnreadable bool
	// Spill scan: intact parked deltas found in the host's spill file
	// and the salvage accounting of its damage.
	SpillSeqs    []uint64
	SpillSamples uint64
	SpillSalvage record.Salvage
	SpillParse   int // checksum-valid spill records that would not parse
	// SpillUnreadable marks an injected EIO on the spill read.
	SpillUnreadable bool
	// MissingDeltas are collector-side seq gaps for this host that no
	// host-side artifact explains: not applied, not parked in the spill
	// file, not accounted lost by clean sender stats. Each one is a
	// sample set that vanished — the loudest possible poison.
	MissingDeltas []uint64
}

// FleetIntegrity is the fleet-level integrity assembly, built offline
// from the disk artifacts plus the network's injector counters — the
// Integrity contract (DESIGN §11) extended across hosts.
type FleetIntegrity struct {
	// Collector is the persisted collector record (nil = crash).
	Collector *CollectorStats
	// CollectorUnreadable marks an injected EIO reading it.
	CollectorUnreadable bool
	// Journal is the journal read-back outcome; JournalUnreadable an
	// injected EIO reading the journal itself.
	Journal           JournalReplay
	JournalUnreadable bool
	// AggregateSnapshot reports whether the committed snapshot exists
	// and is clean; SnapshotDamaged counts salvage loss inside it.
	AggregateSnapshot bool
	SnapshotDamaged   bool
	Hosts             []HostReport
	// StraySpillEntries counts phantom or vanished spill-dir listings
	// (list-fault damage surfaced during discovery).
	StraySpillEntries int
	// StrayGenFiles counts files under the generation directory the
	// current manifest does not name — leftovers of an aborted
	// compaction pass (or listing damage). Replay ignores them; their
	// existence is loud evidence of an interrupted pass.
	StrayGenFiles int
	// Net is the network injector accounting.
	Net NetFaultStats
}

// Degraded reports whether anything anywhere in the fleet run was lost,
// damaged, or left unresolved. Duplicates, reorders, retries, and
// backoff waits are NOT degradation — the protocol absorbs them by
// design; degradation starts where state was destroyed or parked.
func (fi *FleetIntegrity) Degraded() bool {
	if fi.Collector == nil || !fi.Collector.Clean {
		return true
	}
	c := fi.Collector
	if c.WireDamaged+c.JournalErrors+c.Restarts+c.ReplayErrors+
		c.MarkerErrors+c.DeadLetters+c.SnapshotErrors > 0 {
		return true
	}
	// Failovers, handoff aborts, misroutes, and compaction aborts are
	// all crash-path evidence; committed compactions alone are routine.
	if c.Failovers+c.HandoffErrors+c.Misrouted+c.CompactErrors > 0 {
		return true
	}
	if fi.CollectorUnreadable || fi.JournalUnreadable || !fi.AggregateSnapshot || fi.SnapshotDamaged {
		return true
	}
	if fi.Journal.Salvage.Lossy() || fi.Journal.ParseErrors > 0 || fi.Journal.Markers > 0 {
		return true
	}
	if fi.Journal.ManifestDamaged {
		return true
	}
	if fi.StraySpillEntries > 0 || fi.StrayGenFiles > 0 {
		return true
	}
	for _, h := range fi.Hosts {
		if h.Stats == nil || !h.Stats.Clean || h.StatsUnreadable || h.SpillUnreadable {
			return true
		}
		if h.Stats.Spilled+h.Stats.Lost+h.Stats.SpillErrors > 0 {
			return true
		}
		if len(h.SpillSeqs) > 0 || h.SpillSalvage.Lossy() || h.SpillParse > 0 {
			return true
		}
		if len(h.MissingDeltas) > 0 {
			return true
		}
	}
	return false
}

// AssembleIntegrity builds the fleet integrity report from disk. The
// aggregate passed in is the replayed journal truth (the caller usually
// has it already); hosts lists the endpoint ids to audit.
func AssembleIntegrity(disk *kernel.Disk, agg *Aggregate, rep JournalReplay, hosts []int, net NetFaultStats) *FleetIntegrity {
	fi := &FleetIntegrity{Journal: rep, Net: net}

	if disk.Exists(CollectorStatsFile) {
		if data, err := disk.Read(CollectorStatsFile); err != nil {
			fi.CollectorUnreadable = true
		} else {
			fi.Collector = ReadCollectorStats(data)
		}
	}
	if disk.Exists(AggregateFile) {
		if data, err := disk.Read(AggregateFile); err == nil {
			sal, rerr := oprofile.CheckCountsSalvage(data)
			fi.AggregateSnapshot = true
			if rerr != nil || sal.Lossy() {
				fi.SnapshotDamaged = true
			}
		}
	}

	for _, host := range hosts {
		hr := HostReport{Host: host}
		if disk.Exists(SenderStatsPath(host)) {
			if data, err := disk.Read(SenderStatsPath(host)); err != nil {
				hr.StatsUnreadable = true
			} else {
				hr.Stats = ReadSenderStats(data)
			}
		}
		msgs, sal, bad, err := readSpill(disk, host)
		hr.SpillSalvage, hr.SpillParse, hr.SpillUnreadable = sal, bad, err != nil
		spillSeqs := make(map[uint64]bool)
		for _, msg := range msgs {
			if !spillSeqs[msg.Seq] {
				spillSeqs[msg.Seq] = true
				hr.SpillSeqs = append(hr.SpillSeqs, msg.Seq)
				hr.SpillSamples += msg.Total()
			}
		}
		// A collector-side gap is explained if the host parked the seq
		// in its spill file, or its clean stats account it lost, or the
		// host never handed the seq to the network at all (crashed
		// mid-run: seqs above the ack high-water mark are simply still
		// held). Everything else is a MissingDelta — poison.
		lostBudget := uint64(0)
		if hr.Stats != nil && hr.Stats.Clean {
			lostBudget = hr.Stats.Lost
		}
		crashed := hr.Stats == nil || !hr.Stats.Clean
		for _, seq := range agg.Gaps(host) {
			if spillSeqs[seq] {
				continue
			}
			if lostBudget > 0 {
				lostBudget--
				continue
			}
			if crashed {
				// The sender died holding this delta in memory; the
				// run-level conservation check (which still has the
				// in-memory oracle) vouches for it. Offline we can only
				// flag it if the host claims a clean exit.
				continue
			}
			hr.MissingDeltas = append(hr.MissingDeltas, seq)
		}
		fi.Hosts = append(fi.Hosts, hr)
	}

	// Spill-directory discovery damage: phantom dirents that do not
	// parse as host spill paths, or listed paths that vanish on read.
	for _, path := range disk.List() {
		if !strings.HasPrefix(path, FleetDir+"/host") {
			continue
		}
		var host int
		if _, err := fmt.Sscanf(path, FleetDir+"/host%02d/sender.spill", &host); err != nil {
			fi.StraySpillEntries++
			continue
		}
		if !disk.Exists(path) {
			fi.StraySpillEntries++
		}
	}

	// Generation-directory audit: any file the current manifest does not
	// name is a leftover of an aborted compaction pass (a .tmp that was
	// never renamed, a data file whose manifest commit never landed) —
	// harmless to replay, loud as evidence.
	named := map[string]bool{ManifestPath: true}
	if man, _, err := readManifest(disk); err == nil && man != nil {
		for _, mf := range man.Files {
			named[mf.Path] = true
		}
	}
	for _, path := range disk.List() {
		if !strings.HasPrefix(path, GenDir+"/") {
			continue
		}
		if !named[path] {
			fi.StrayGenFiles++
		}
	}
	return fi
}

// FormatFleetIntegrity renders the fleet integrity block for vipreport.
func FormatFleetIntegrity(fi *FleetIntegrity) string {
	var b strings.Builder
	b.WriteString("fleet integrity:\n")
	switch {
	case fi.CollectorUnreadable:
		b.WriteString("  collector: stats unreadable (I/O error)\n")
	case fi.Collector == nil:
		b.WriteString("  collector: CRASHED (no clean stats record)\n")
	default:
		c := fi.Collector
		fmt.Fprintf(&b, "  collector: shards=%d ingested=%d duplicates=%d out-of-order=%d maps=%d restarts=%d dead-letters=%d\n",
			c.Shards, c.Ingested, c.Duplicates, c.OutOfOrder, c.MapsApplied, c.Restarts, c.DeadLetters)
		if c.Failovers+c.Handoffs+c.Misrouted > 0 {
			fmt.Fprintf(&b, "  collector failover: failovers=%d handoffs=%d misrouted=%d\n",
				c.Failovers, c.Handoffs, c.Misrouted)
		}
		if c.Compactions+c.CompactErrors > 0 {
			fmt.Fprintf(&b, "  collector compaction: committed=%d aborted=%d\n",
				c.Compactions, c.CompactErrors)
		}
		if c.WireDamaged+c.JournalErrors+c.ReplayErrors+c.MarkerErrors+c.SnapshotErrors+c.HandoffErrors > 0 {
			fmt.Fprintf(&b, "  collector errors: wire-damaged=%d journal=%d replay=%d marker=%d snapshot=%d handoff=%d\n",
				c.WireDamaged, c.JournalErrors, c.ReplayErrors, c.MarkerErrors, c.SnapshotErrors, c.HandoffErrors)
		}
	}
	if fi.JournalUnreadable {
		b.WriteString("  store: UNREADABLE (I/O error)\n")
	} else {
		fmt.Fprintf(&b, "  store: %d deltas, %d maps, %d replay-duplicates, %d restart markers",
			fi.Journal.Deltas, fi.Journal.Maps, fi.Journal.Duplicates, fi.Journal.Markers)
		if fi.Journal.Salvage.Lossy() {
			fmt.Fprintf(&b, ", %d records dropped (%d bytes)",
				fi.Journal.Salvage.DroppedRecords, fi.Journal.Salvage.DroppedBytes)
		}
		if fi.Journal.ParseErrors > 0 {
			fmt.Fprintf(&b, ", %d unparseable", fi.Journal.ParseErrors)
		}
		b.WriteString("\n")
		if fi.Journal.ManifestGen > 0 || fi.Journal.ManifestDamaged {
			fmt.Fprintf(&b, "  store: generation %d (%d files, %d frames), %d journals",
				fi.Journal.ManifestGen, fi.Journal.GenFiles, fi.Journal.GenFrames, fi.Journal.Journals)
			if fi.Journal.ManifestDamaged {
				b.WriteString(", MANIFEST DAMAGED")
			}
			b.WriteString("\n")
		}
	}
	if fi.StrayGenFiles > 0 {
		fmt.Fprintf(&b, "  compaction: %d stray generation files (aborted pass)\n", fi.StrayGenFiles)
	}
	if !fi.AggregateSnapshot {
		b.WriteString("  aggregate snapshot: MISSING\n")
	} else if fi.SnapshotDamaged {
		b.WriteString("  aggregate snapshot: DAMAGED\n")
	}
	fmt.Fprintf(&b, "  network: sends=%d delivered=%d dropped=%d dup=%d reorder=%d latency=%d partition-drops=%d\n",
		fi.Net.Sends, fi.Net.Delivered, fi.Net.Dropped, fi.Net.Duplicated,
		fi.Net.Reordered, fi.Net.Latencies, fi.Net.PartitionDrops)
	if fi.StraySpillEntries > 0 {
		fmt.Fprintf(&b, "  spill discovery: %d stray entries\n", fi.StraySpillEntries)
	}
	for _, h := range fi.Hosts {
		label := fmt.Sprintf("  host%02d:", h.Host)
		switch {
		case h.StatsUnreadable:
			fmt.Fprintf(&b, "%s stats unreadable (I/O error)\n", label)
		case h.Stats == nil || !h.Stats.Clean:
			fmt.Fprintf(&b, "%s CRASHED (no clean stats record)\n", label)
		default:
			s := h.Stats
			fmt.Fprintf(&b, "%s generated=%d acked=%d maps=%d/%d retries=%d deferred=%d spilled=%d lost=%d\n",
				label, s.Generated, s.Acked, s.MapsAcked, s.MapsGenerated, s.Retries, s.Deferred, s.Spilled, s.Lost)
			for _, pair := range []struct {
				name string
				m    map[string]uint64
			}{{"spilled", s.SpilledByEvent}, {"lost", s.LostByEvent}} {
				events := make([]string, 0, len(pair.m))
				for ev := range pair.m {
					if pair.m[ev] > 0 {
						events = append(events, ev)
					}
				}
				sort.Strings(events)
				for _, ev := range events {
					fmt.Fprintf(&b, "    %s[%s]=%d samples\n", pair.name, ev, pair.m[ev])
				}
			}
		}
		if len(h.SpillSeqs) > 0 {
			fmt.Fprintf(&b, "    spill file: %d parked deltas (%d samples)\n", len(h.SpillSeqs), h.SpillSamples)
		}
		if h.SpillSalvage.Lossy() {
			fmt.Fprintf(&b, "    spill file: %d records dropped (%d bytes)\n",
				h.SpillSalvage.DroppedRecords, h.SpillSalvage.DroppedBytes)
		}
		if h.SpillUnreadable {
			b.WriteString("    spill file: UNREADABLE (I/O error)\n")
		}
		if len(h.MissingDeltas) > 0 {
			fmt.Fprintf(&b, "    MISSING DELTAS: seqs %v — samples unaccounted for\n", h.MissingDeltas)
		}
	}
	if fi.Degraded() {
		b.WriteString("  status: DEGRADED\n")
	} else {
		b.WriteString("  status: clean\n")
	}
	return b.String()
}
