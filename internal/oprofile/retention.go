package oprofile

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"viprof/internal/record"
)

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

// Payload serializes the stats as key=value lines (the caller frames
// the result with record.Frame).
func (rs *RetentionStats) Payload() []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "scanned=%d\nkept=%d\npruned=%d\nkept_bytes=%d\npruned_bytes=%d\n",
		rs.Scanned, rs.Kept, rs.Pruned, rs.KeptBytes, rs.PrunedBytes)
	fmt.Fprintf(&buf, "age_pruned=%d\ncount_pruned=%d\nsize_pruned=%d\nstats_errors=%d\n",
		rs.AgePruned, rs.CountPruned, rs.SizePruned, rs.StatsErrors)
	fmt.Fprintf(&buf, "prior_damaged=%d\n", boolInt(rs.PriorDamaged))
	paths := make([]string, 0, len(rs.Survivors))
	for p := range rs.Survivors {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(&buf, "survivor.%s=%d\n", p, rs.Survivors[p])
	}
	fmt.Fprintf(&buf, "clean=%d\n", boolInt(rs.Clean))
	return buf.Bytes()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ReadRetentionStats parses the persisted retention record (last intact
// record wins); nil if no intact record survives.
func ReadRetentionStats(data []byte) *RetentionStats {
	recs, _ := record.Scan(data)
	if len(recs) == 0 {
		return nil
	}
	rs := &RetentionStats{Survivors: make(map[string]int)}
	for _, line := range strings.Split(string(recs[len(recs)-1]), "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return nil
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil
		}
		if p, found := strings.CutPrefix(k, "survivor."); found {
			rs.Survivors[p] = int(n)
			continue
		}
		switch k {
		case "scanned":
			rs.Scanned = int(n)
		case "kept":
			rs.Kept = int(n)
		case "pruned":
			rs.Pruned = int(n)
		case "kept_bytes":
			rs.KeptBytes = n
		case "pruned_bytes":
			rs.PrunedBytes = n
		case "age_pruned":
			rs.AgePruned = int(n)
		case "count_pruned":
			rs.CountPruned = int(n)
		case "size_pruned":
			rs.SizePruned = int(n)
		case "stats_errors":
			rs.StatsErrors = int(n)
		case "prior_damaged":
			rs.PriorDamaged = n != 0
		case "clean":
			rs.Clean = n != 0
		}
	}
	return rs
}
