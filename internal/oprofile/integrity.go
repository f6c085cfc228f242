package oprofile

import (
	"fmt"
	"io"
	"strconv"
)

// Integrity is the report section that answers "can I trust these
// numbers?". It is assembled entirely from on-disk artifacts — salvage
// accounting from the sample file, the daemon's persisted self-counters,
// per-VM code-map damage — so it reflects what actually survived, not
// what the in-memory pipeline believed. The profiler's contract under
// partial failure is degrade-don't-lie: every lost sample, torn record,
// failed flush, and crashed writer must be visible here.

// PersistedStats is the daemon's self-reported view of the run, parsed
// back from DaemonStatsFile. A nil PersistedStats (file missing or
// torn) means the daemon did not shut down cleanly.
type PersistedStats struct {
	NMIs, Logged, Dropped                        uint64
	SamplesLogged, Flushes, FlushErrors, Spilled uint64
	Unflushed                                    uint64
	// Spilled splits into what was parked on disk under a journal
	// commit (recoverable) vs dropped past the hard cap (gone).
	SpilledOnDisk, SpilledLost uint64
	// SpilledLostByEvent attributes the lost portion per event mnemonic.
	SpilledLostByEvent map[string]uint64
	// SpillBatches / SpillErrors / JournalErrors are the spill
	// protocol's own self-counters.
	SpillBatches, SpillErrors, JournalErrors uint64
	// Clean is written as 1 by every shutdown that reaches the write.
	Clean bool
}

// table is the daemon stats record's schema.
func (ps *PersistedStats) table() []Stat {
	return []Stat{
		{Key: "nmis", Ptr: &ps.NMIs}, {Key: "logged", Ptr: &ps.Logged},
		{Key: "dropped", Ptr: &ps.Dropped}, {Key: "samples_logged", Ptr: &ps.SamplesLogged},
		{Key: "flushes", Ptr: &ps.Flushes}, {Key: "flush_errors", Ptr: &ps.FlushErrors},
		{Key: "spilled", Ptr: &ps.Spilled}, {Key: "unflushed", Ptr: &ps.Unflushed},
		{Key: "spilled_on_disk", Ptr: &ps.SpilledOnDisk}, {Key: "spilled_lost", Ptr: &ps.SpilledLost},
		{Key: "spill_batches", Ptr: &ps.SpillBatches}, {Key: "spill_errors", Ptr: &ps.SpillErrors},
		{Key: "journal_errors", Ptr: &ps.JournalErrors},
		{Key: "spilled_lost.", Ptr: &ps.SpilledLostByEvent},
		{Key: "clean", Ptr: &ps.Clean},
	}
}

// payload is the daemon's stats record. On an SMP machine cpus holds
// each CPU's share of the buffer counters and hard-cap loss, written as
// <key>.cpu<N> lines just before clean: NMIs, Logged, Dropped and
// SamplesLogged always, SpilledLost only when nonzero. Readers ignore
// those lines.
func (ps *PersistedStats) payload(cpus []PersistedStats) []byte {
	tab := ps.table()
	last := len(tab) - 1
	buf := AppendStats(nil, tab[:last])
	for ci := range cpus {
		c := &cpus[ci]
		for _, s := range c.table() {
			switch s.Ptr {
			case &c.NMIs, &c.Logged, &c.Dropped, &c.SamplesLogged:
			case &c.SpilledLost:
				if c.SpilledLost == 0 {
					continue
				}
			default:
				continue
			}
			s.Key += ".cpu" + strconv.Itoa(ci)
			buf = AppendStats(buf, []Stat{s})
		}
	}
	return AppendStats(buf, tab[last:])
}

// ReadDaemonStats parses the daemon's stats file (ReadStats); nil if
// no intact record survives or the last one fails to decode.
func ReadDaemonStats(data []byte) *PersistedStats {
	ps := &PersistedStats{}
	if !ReadStats(data, ps.table()) {
		return nil
	}
	return ps
}

// MapIntegrity is the per-VM code-map damage report.
type MapIntegrity struct {
	PID  int
	Proc string

	// Files is map files read; OrphanTmp counts leftover .tmp files (a
	// crash struck between the data write and the atomic rename).
	Files, OrphanTmp int
	// Entries is intact map entries recovered across the chain.
	Entries int
	// Salvage accounting summed over the chain's files.
	DroppedRecords, DroppedBytes int
	// TornFiles is files with damage or a missing end-trailer.
	TornFiles int
	// UnreadableFiles is map files that exist but failed to read back
	// (EIO on the offline tools' side); their epochs are poisoned.
	UnreadableFiles int

	// Quarantined counts damaged temp files the recovery pass set aside
	// as *.quarantined evidence rather than adopting or deleting.
	Quarantined int
	// MissingCommitted counts epochs the agent's commit journal ratified
	// but whose map file is absent from the directory listing — either
	// the file was destroyed or the listing itself is damaged; the
	// resolver poisons those epochs either way.
	MissingCommitted int
	// JournalDamaged counts commit-journal damage (torn journal, or an
	// agent stats file that exists but cannot be read back, which
	// prevents verifying the journal).
	JournalDamaged int
	// JournalErrors is the agent's self-reported count of failed
	// commit-journal appends.
	JournalErrors int

	// AgentStatsPresent/AgentClean mirror the agent's persisted
	// self-counters; absent means the VM died before OnExit.
	AgentStatsPresent, AgentClean bool
	// MapWriteErrors/DeferredEntries are the agent's self-reported write
	// failures and the entries it carried forward into later maps.
	MapWriteErrors, DeferredEntries int
}

// Degraded reports whether this VM's persisted code maps lost anything.
func (mi MapIntegrity) Degraded() bool {
	return mi.OrphanTmp > 0 || mi.DroppedRecords > 0 || mi.DroppedBytes > 0 ||
		mi.TornFiles > 0 || mi.UnreadableFiles > 0 ||
		mi.Quarantined > 0 || mi.MissingCommitted > 0 ||
		mi.JournalDamaged > 0 || mi.JournalErrors > 0 ||
		!mi.AgentStatsPresent || !mi.AgentClean ||
		mi.MapWriteErrors > 0
}

// SpillIntegrity is the per-event accounting of spilled samples: what
// recovery merged back vs what the hard cap dropped for good.
type SpillIntegrity struct {
	Event           string
	Recovered, Lost uint64
}

// Integrity is the whole-run degradation summary attached to a Report.
type Integrity struct {
	// SampleFileMissing: no sample data survived at all.
	SampleFileMissing bool
	// Salvage accounting for the sample file.
	SampleRecords, SampleDroppedRecords, SampleDroppedBytes int
	// Stats is the daemon's persisted self-view; nil = unclean shutdown.
	Stats *PersistedStats
	// UnresolvedJIT counts JIT samples the durable resolver refused to
	// attribute (informational: clean runs also have a small number from
	// compilation races, so this alone does not mark the run degraded).
	UnresolvedJIT uint64
	// Maps is the per-VM code-map report.
	Maps []MapIntegrity
	// Spill is the per-event spilled-sample accounting (recovered vs
	// lost), sorted by event mnemonic.
	Spill []SpillIntegrity
	// SpillOnDisk is the committed sample total still parked in the
	// spill file at report time (recovery has not merged it yet).
	SpillOnDisk uint64
	// SpillJournalDamaged reports a torn/unparseable daemon journal.
	SpillJournalDamaged bool
	// Recovery is the recovery pass's persisted decision record; nil if
	// no recovery ran (or its stats never reached disk).
	Recovery *RecoveryStats
	// RecoveryIncomplete reports durable evidence a recovery attempt
	// began (journal marker) without a surviving decision record.
	RecoveryIncomplete bool
	// Retention is the retention pass's persisted ledger (quarantined
	// evidence kept/pruned); nil if no pass has ever persisted one.
	Retention *RetentionStats
	// RetentionDamaged reports the ledger file exists but no intact
	// record survives in it.
	RetentionDamaged bool
}

// Degraded reports whether any persisted data was lost, damaged, or
// unaccounted for anywhere in the pipeline.
func (in *Integrity) Degraded() bool {
	if in == nil {
		return false
	}
	if in.SampleFileMissing || in.SampleDroppedRecords > 0 || in.SampleDroppedBytes > 0 {
		return true
	}
	if in.Stats == nil || !in.Stats.Clean || in.Stats.FlushErrors > 0 ||
		in.Stats.Spilled > 0 || in.Stats.Unflushed > 0 || in.Stats.Dropped > 0 ||
		in.Stats.SpillErrors > 0 || in.Stats.JournalErrors > 0 {
		return true
	}
	if in.SpillOnDisk > 0 || in.SpillJournalDamaged || in.RecoveryIncomplete {
		return true
	}
	for _, si := range in.Spill {
		if si.Recovered > 0 || si.Lost > 0 {
			return true
		}
	}
	if in.Recovery != nil && (in.Recovery.AnyAction() || !in.Recovery.Clean) {
		return true
	}
	// Retention pruning itself is housekeeping, not data loss (the
	// evidence it removes marked an *earlier* run degraded); only a
	// retention failure — unpersisted decisions, a damaged ledger —
	// degrades this run.
	if in.RetentionDamaged {
		return true
	}
	if in.Retention != nil && (in.Retention.StatsErrors > 0 || in.Retention.PriorDamaged || !in.Retention.Clean) {
		return true
	}
	for _, mi := range in.Maps {
		if mi.Degraded() {
			return true
		}
	}
	return false
}

// FormatIntegrity renders the section the way vipreport prints it.
func FormatIntegrity(w io.Writer, in *Integrity) error {
	if in == nil {
		return nil
	}
	status := "OK — no data loss detected"
	if in.Degraded() {
		status = "DEGRADED — losses accounted below"
	}
	if _, err := fmt.Fprintf(w, "\nIntegrity: %s\n", status); err != nil {
		return err
	}
	switch {
	case in.SampleFileMissing:
		fmt.Fprintf(w, "  sample file: MISSING\n")
	case in.SampleDroppedRecords > 0 || in.SampleDroppedBytes > 0:
		fmt.Fprintf(w, "  sample file: %d records intact, %d dropped (%d bytes)\n",
			in.SampleRecords, in.SampleDroppedRecords, in.SampleDroppedBytes)
	default:
		fmt.Fprintf(w, "  sample file: %d records intact\n", in.SampleRecords)
	}
	if in.Stats == nil {
		fmt.Fprintf(w, "  daemon: no clean shutdown record (crashed or stats file damaged)\n")
	} else {
		fmt.Fprintf(w, "  daemon: %d NMIs, %d logged, %d dropped at buffer; %d flushes, %d flush errors, %d spilled, %d unflushed\n",
			in.Stats.NMIs, in.Stats.Logged, in.Stats.Dropped,
			in.Stats.Flushes, in.Stats.FlushErrors, in.Stats.Spilled, in.Stats.Unflushed)
		if in.Stats.Spilled > 0 || in.Stats.SpillErrors > 0 || in.Stats.JournalErrors > 0 {
			fmt.Fprintf(w, "  spill: %d parked on disk, %d lost past hard cap; %d batches, %d spill errors, %d journal errors\n",
				in.Stats.SpilledOnDisk, in.Stats.SpilledLost,
				in.Stats.SpillBatches, in.Stats.SpillErrors, in.Stats.JournalErrors)
		}
	}
	for _, si := range in.Spill {
		fmt.Fprintf(w, "  spill %s: %d recovered, %d lost\n", si.Event, si.Recovered, si.Lost)
	}
	if in.SpillOnDisk > 0 {
		fmt.Fprintf(w, "  spill: %d committed samples still parked (recovery pending)\n", in.SpillOnDisk)
	}
	if in.SpillJournalDamaged {
		fmt.Fprintf(w, "  spill: daemon journal DAMAGED — uncommitted frames discarded conservatively\n")
	}
	if in.RecoveryIncomplete {
		fmt.Fprintf(w, "  recovery: INCOMPLETE — began but left no decision record\n")
	}
	if in.RetentionDamaged {
		fmt.Fprintf(w, "  retention: ledger DAMAGED — age tracking restarted\n")
	}
	if rt := in.Retention; rt != nil && rt.AnyAction() {
		fmt.Fprintf(w, "  retention: %d scanned, %d kept (%d bytes), %d pruned (%d bytes: %d by age, %d by count, %d by size); %d ledger errors\n",
			rt.Scanned, rt.Kept, rt.KeptBytes, rt.Pruned, rt.PrunedBytes,
			rt.AgePruned, rt.CountPruned, rt.SizePruned, rt.StatsErrors)
	}
	if r := in.Recovery; r != nil && (r.AnyAction() || !r.Clean) {
		fmt.Fprintf(w, "  recovery: %d adopted, %d discarded, %d quarantined, %d failed; %d spill frames merged, %d discarded (%d samples recovered); %d merge errors, %d journals damaged, %d marker errors, %d restarts\n",
			r.Adopted, r.Discarded, r.Quarantined, r.Failed,
			r.SpillFramesMerged, r.SpillFramesDiscarded, r.SpillRecoveredTotal,
			r.SpillMergeErrors, r.JournalsDamaged, r.MarkerErrors, r.Restarts)
	}
	if in.UnresolvedJIT > 0 {
		fmt.Fprintf(w, "  resolver: %d JIT samples left unresolved rather than guessed\n", in.UnresolvedJIT)
	}
	for _, mi := range in.Maps {
		state := "clean"
		if mi.Degraded() {
			state = "degraded"
		}
		fmt.Fprintf(w, "  maps %s/%d: %s — %d files, %d entries", mi.Proc, mi.PID, state, mi.Files, mi.Entries)
		if mi.TornFiles > 0 || mi.DroppedRecords > 0 {
			fmt.Fprintf(w, ", %d torn files (%d records / %d bytes dropped)",
				mi.TornFiles, mi.DroppedRecords, mi.DroppedBytes)
		}
		if mi.UnreadableFiles > 0 {
			fmt.Fprintf(w, ", %d unreadable files (epochs poisoned)", mi.UnreadableFiles)
		}
		if mi.OrphanTmp > 0 {
			fmt.Fprintf(w, ", %d orphan tmp", mi.OrphanTmp)
		}
		if mi.Quarantined > 0 {
			fmt.Fprintf(w, ", %d quarantined", mi.Quarantined)
		}
		if mi.MissingCommitted > 0 {
			fmt.Fprintf(w, ", %d committed epochs missing (poisoned)", mi.MissingCommitted)
		}
		if mi.JournalDamaged > 0 || mi.JournalErrors > 0 {
			fmt.Fprintf(w, ", commit journal damaged (%d damage, %d append errors)", mi.JournalDamaged, mi.JournalErrors)
		}
		if mi.MapWriteErrors > 0 {
			fmt.Fprintf(w, ", %d write errors (%d entries deferred)", mi.MapWriteErrors, mi.DeferredEntries)
		}
		if !mi.AgentStatsPresent {
			fmt.Fprintf(w, ", agent died before exit")
		}
		fmt.Fprintln(w)
	}
	return nil
}
