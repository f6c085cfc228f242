package oprofile

import "viprof/internal/record"

// RetentionStats is the persisted outcome of the retention pass
// (core.RunRetention): every quarantined-evidence file it scanned, kept,
// or pruned, and why. Written as one framed record per completed pass at
// RetentionStatsFile; the last intact record is authoritative. The
// Survivors ledger doubles as the pass's age tracker: the simulated disk
// has no timestamps, so a file's age is the number of consecutive
// retention passes that have seen it.
type RetentionStats struct {
	// Scanned is every quarantined file seen this pass; Kept/KeptBytes
	// what remains after pruning; Pruned/PrunedBytes what was removed.
	Scanned, Kept, Pruned  int
	KeptBytes, PrunedBytes uint64
	// Per-reason prune counts: age (survived more passes than the
	// policy allows), count (excess beyond the file budget), size
	// (excess beyond the byte budget).
	AgePruned, CountPruned, SizePruned int
	// PriorDamaged reports the previous pass's record existed but was
	// torn or unparseable — the age ledger restarted from zero.
	PriorDamaged bool
	// StatsErrors counts failed persists of this record. The pass
	// persists decisions BEFORE removing anything, so a failed persist
	// aborts the prune: evidence is never deleted untracked.
	StatsErrors int
	// Survivors maps each kept file to the number of passes that have
	// seen it (its age in pass units).
	Survivors map[string]int
	// Clean reports the pass completed (decisions persisted; prunes,
	// if any, applied).
	Clean bool
}

// RetentionStatsFile is where the retention pass persists its ledger.
const RetentionStatsFile = "var/lib/viprof/retention.stats"

// AnyAction reports whether the pass did (or failed to do) anything
// worth surfacing.
func (rs *RetentionStats) AnyAction() bool {
	if rs == nil {
		return false
	}
	return rs.Pruned > 0 || rs.StatsErrors > 0 || rs.PriorDamaged || !rs.Clean
}

// table is the retention stats record's schema.
func (rs *RetentionStats) table() []Stat {
	return []Stat{
		{Key: "scanned", Ptr: &rs.Scanned}, {Key: "kept", Ptr: &rs.Kept},
		{Key: "pruned", Ptr: &rs.Pruned}, {Key: "kept_bytes", Ptr: &rs.KeptBytes},
		{Key: "pruned_bytes", Ptr: &rs.PrunedBytes}, {Key: "age_pruned", Ptr: &rs.AgePruned},
		{Key: "count_pruned", Ptr: &rs.CountPruned}, {Key: "size_pruned", Ptr: &rs.SizePruned},
		{Key: "stats_errors", Ptr: &rs.StatsErrors}, {Key: "prior_damaged", Ptr: &rs.PriorDamaged},
		{Key: "survivor.", Ptr: &rs.Survivors},
		{Key: "clean", Ptr: &rs.Clean},
	}
}

// Payload serializes the stats as key=value lines (the caller frames
// the result with record.Frame).
func (rs *RetentionStats) Payload() []byte { return AppendStats(nil, rs.table()) }

// ReadRetentionStats parses the persisted retention record (last intact
// record wins); nil if no intact record survives or it fails to decode.
func ReadRetentionStats(data []byte) *RetentionStats {
	recs, _ := record.Scan(data)
	rs := &RetentionStats{}
	if len(recs) == 0 || !DecodeStats(recs[len(recs)-1], rs.table()) {
		return nil
	}
	return rs
}
