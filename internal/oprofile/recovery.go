package oprofile

// RecoveryStats is the persisted outcome of the startup recovery pass
// (core.RunRecovery): every adopt/discard/quarantine decision over
// orphan temp files, every spill frame merged or discarded, and how
// many times the pass itself had to restart after being struck by a
// fault. Written as one framed record per completed attempt at
// RecoveryStatsFile; the LAST intact record is authoritative (earlier
// torn records are the expected debris of restarted attempts).
type RecoveryStats struct {
	// Orphan-temp decisions: Adopted (complete temp renamed into
	// place), Discarded (stale temp whose commit was already durable),
	// Quarantined (damaged temp set aside as evidence), Failed (temp
	// that could not be read, salvaged, or renamed).
	Adopted, Discarded, Quarantined, Failed int
	// Spill outcomes (see spill.go).
	SpillFramesMerged, SpillFramesDiscarded int
	// SpillRecovered is the merged sample total per event mnemonic;
	// SpillRecoveredTotal sums it.
	SpillRecovered      map[string]uint64
	SpillRecoveredTotal uint64
	// SpillMergeErrors counts failed merge writes.
	SpillMergeErrors int
	// JournalsDamaged counts damaged commit journals (agent or daemon)
	// seen while deciding.
	JournalsDamaged int
	// MarkerErrors counts failed durable-evidence writes (the
	// recovery-begin marker or the stats record itself); each one
	// forced a supervisor restart.
	MarkerErrors int
	// Restarts counts attempts abandoned to an injected fault before
	// this (final) one completed.
	Restarts int
	// Clean reports the pass completed.
	Clean bool
}

// RecoveryStatsFile is where the recovery pass persists its decisions.
const RecoveryStatsFile = "var/lib/viprof/recovery.stats"

// AnyAction reports whether recovery did (or failed to do) anything —
// every one of these implies the run before it was damaged, so a
// non-trivial recovery marks the run degraded even where it healed the
// artifacts so well that nothing else shows.
func (rs *RecoveryStats) AnyAction() bool {
	if rs == nil {
		return false
	}
	return rs.Adopted+rs.Discarded+rs.Quarantined+rs.Failed+
		rs.SpillFramesMerged+rs.SpillFramesDiscarded+rs.SpillMergeErrors+
		rs.JournalsDamaged+rs.MarkerErrors+rs.Restarts > 0
}

// table is the recovery stats record's schema.
func (rs *RecoveryStats) table() []Stat {
	return []Stat{
		{Key: "adopted", Ptr: &rs.Adopted}, {Key: "discarded", Ptr: &rs.Discarded},
		{Key: "quarantined", Ptr: &rs.Quarantined}, {Key: "failed", Ptr: &rs.Failed},
		{Key: "spill_frames_merged", Ptr: &rs.SpillFramesMerged},
		{Key: "spill_frames_discarded", Ptr: &rs.SpillFramesDiscarded},
		{Key: "spill_recovered_total", Ptr: &rs.SpillRecoveredTotal},
		{Key: "spill_merge_errors", Ptr: &rs.SpillMergeErrors},
		{Key: "journals_damaged", Ptr: &rs.JournalsDamaged},
		{Key: "marker_errors", Ptr: &rs.MarkerErrors}, {Key: "restarts", Ptr: &rs.Restarts},
		{Key: "spill_recovered.", Ptr: &rs.SpillRecovered},
		{Key: "clean", Ptr: &rs.Clean},
	}
}

// Payload serializes the stats as key=value lines (the caller frames
// the result with record.Frame).
func (rs *RecoveryStats) Payload() []byte { return AppendStats(nil, rs.table()) }

// ReadRecoveryStats parses the persisted recovery record. The last
// intact record wins; nil if no intact record survives (recovery never
// completed, or its stats write was destroyed) or it fails to decode.
func ReadRecoveryStats(data []byte) *RecoveryStats {
	rs := &RecoveryStats{}
	if !ReadStats(data, rs.table()) {
		return nil
	}
	return rs
}
