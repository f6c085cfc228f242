package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// The startup recovery pass. After a crash (or any run the supervisor
// cannot vouch for) the on-disk state can hold orphan *.tmp map files,
// a parked spill file, and commit journals that disagree with the
// directory listing. RunRecovery walks all of it through the salvage
// layer and decides, for every artifact, adopt / discard / quarantine:
//
//   - orphan temp whose final file is already durable (the commit
//     journal ratified the epoch, or the final simply exists): stale
//     debris — discard;
//   - orphan temp with a complete, intact payload and no final file:
//     the crash struck between the data write and the rename — adopt
//     it by finishing the rename;
//   - orphan temp with a torn payload: quarantine it (rename to
//     *.quarantined) as preserved evidence, never resolved through;
//   - orphan temp that cannot be read at all (EIO, or a phantom dirent
//     from directory damage): record the failure and move on;
//   - committed spill frames: merge into the sample file (spill.go).
//
// The pass is itself a process under the fault injectors: its renames
// and writes can fail or crash. The supervisor restarts a crashed or
// evidence-less attempt with a fresh process — every attempt appends a
// recovery-begin marker to the daemon journal first, so even a pass
// that dies instantly leaves durable evidence it began — and gives up
// loudly after maxRecoveryAttempts. Decisions are cumulative across
// restarts (work already done is visible on disk and not repeated);
// purely observational counts are deduplicated per artifact so a
// restarted pass does not inflate them.

// maxRecoveryAttempts bounds supervisor restarts. Every restart
// consumes at least one injected fault from some plan's MaxFaults
// budget, and composed chaos schedules sum to well under this bound,
// so a pass that cannot finish within it indicates a protocol bug,
// not bad luck.
const maxRecoveryAttempts = 32

// DiscoverMapPIDs scans the disk listing for per-VM map directories
// and returns their pids in ascending order. Startup recovery cannot
// be handed the previous run's pids — the crash took them with it —
// so it recovers whatever the on-disk layout shows. The listing is a
// fault surface (dropped dirents hide a pid, phantoms add one); a
// hidden pid's artifacts simply wait for the next pass, and a phantom
// pid's empty directory yields zero decisions.
func DiscoverMapPIDs(disk *kernel.Disk) []int {
	seen := make(map[int]bool)
	prefix := MapDir + "/"
	for _, name := range disk.List() {
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		slash := strings.IndexByte(rest, '/')
		if slash <= 0 {
			continue
		}
		if pid, err := strconv.Atoi(rest[:slash]); err == nil && pid > 0 {
			seen[pid] = true
		}
	}
	pids := make([]int, 0, len(seen))
	for pid := range seen {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	return pids
}

// RunStartupRecovery is the default boot path: RunRecovery over every
// VM map directory the disk listing shows, plus the daemon spill file.
// Session startup (core.Start) runs it before the daemon opens its own
// files, so a crashed previous run's salvageable artifacts are adopted
// before anything can resolve against a stale view.
func RunStartupRecovery(m *kernel.Machine) (*oprofile.RecoveryStats, error) {
	rec, err := RunRecovery(m, DiscoverMapPIDs(m.Kern.Disk()))
	// Housekeeping after recovery: bound the quarantined-evidence set
	// (its failures surface through Integrity, never as a boot error).
	RunRetention(m, DefaultRetentionPolicy)
	return rec, err
}

// RunRecovery runs the recovery pass over the given VM pids' map
// directories and the daemon's spill file, persists its decisions to
// oprofile.RecoveryStatsFile, and returns them. The returned error is
// non-nil only when the pass could not complete within
// maxRecoveryAttempts.
func RunRecovery(m *kernel.Machine, pids []int) (*oprofile.RecoveryStats, error) {
	kern := m.Kern
	disk := kern.Disk()
	stats := &oprofile.RecoveryStats{SpillRecovered: make(map[string]uint64)}
	// Observational events counted at most once per artifact across
	// restarted attempts.
	counted := make(map[string]bool)
	for attempt := 0; attempt < maxRecoveryAttempts; attempt++ {
		if attempt > 0 {
			stats.Restarts++
		}
		proc, err := kern.NewProcess("viprof-recover", kernel.ExecFunc(
			func(*kernel.Machine, *kernel.Process) kernel.StepResult { return kernel.StepExit }))
		if err != nil {
			return stats, err
		}
		proc.Daemon = true
		// Durable evidence first: a pass that dies after this line is
		// still visible to the offline tools as "began, never decided".
		if werr := kern.SysWrite(proc, oprofile.DaemonJournalFile, oprofile.JournalRecoveryBegin()); werr != nil {
			stats.MarkerErrors++
			continue
		}
		crashed := false
		for _, pid := range pids {
			if cerr := recoverMaps(kern, proc, pid, stats, counted); cerr != nil {
				crashed = true
				break
			}
		}
		if crashed {
			continue
		}
		// The spill merge reads the daemon journal again; a read fault
		// can strike either read.
		dj := oprofile.ReadDaemonJournal(disk)
		sr, serr := oprofile.RecoverSpill(m, proc)
		if dj.Damaged || sr.JournalDamaged {
			countOnce(counted, "daemon-journal", &stats.JournalsDamaged)
		}
		stats.SpillMergeErrors += sr.MergeErrors
		if sr.MergeErrors == 0 {
			// Frame counts are final only when the attempt resolved the
			// spill file (merged or removed); a failed attempt leaves it in
			// place and the next attempt would recount.
			stats.SpillFramesMerged += sr.FramesMerged
			stats.SpillFramesDiscarded += sr.FramesDiscarded
			for ev, c := range sr.Recovered {
				stats.SpillRecovered[ev] += c
				stats.SpillRecoveredTotal += c
			}
		}
		if serr != nil {
			continue // crash mid-merge: restart
		}
		// Persist the decision record. An attempt whose stats write fails
		// is as undecided as one that crashed — restart so the last intact
		// record on disk always reflects a completed pass.
		stats.Clean = true
		if werr := kern.SysWrite(proc, oprofile.RecoveryStatsFile, record.Frame(stats.Payload())); werr != nil {
			stats.Clean = false
			stats.MarkerErrors++
			continue
		}
		return stats, nil
	}
	return stats, fmt.Errorf("core: recovery did not complete within %d attempts", maxRecoveryAttempts)
}

// recoverMaps runs the orphan-temp state machine over one VM's map
// directory. A non-nil error means the recovery process crashed.
func recoverMaps(kern *kernel.Kernel, proc *kernel.Process, pid int, stats *oprofile.RecoveryStats, counted map[string]bool) error {
	disk := kern.Disk()
	journal := ReadAgentJournal(disk, pid)
	if journal.Damaged {
		countOnce(counted, fmt.Sprintf("agent-journal:%d", pid), &stats.JournalsDamaged)
	}
	prefix := fmt.Sprintf("%s/%d/", MapDir, pid)
	// Snapshot the temp names first: the listing is a fault surface of
	// its own (dropped and phantom dirents), and we want one consistent
	// view per attempt.
	var tmps []string
	for _, name := range disk.List() {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, ".tmp") {
			tmps = append(tmps, name)
		}
	}
	for _, tmp := range tmps {
		if err := recoverOrphan(kern, proc, prefix, tmp, stats, counted); err != nil {
			return err
		}
	}
	return nil
}

// recoverOrphan decides one temp file's fate. A non-nil error means
// the recovery process crashed mid-decision.
func recoverOrphan(kern *kernel.Kernel, proc *kernel.Process, prefix, tmp string, stats *oprofile.RecoveryStats, counted map[string]bool) error {
	disk := kern.Disk()
	if !disk.Exists(tmp) {
		// The dirent exists but the file does not: a phantom from
		// directory damage. Nothing to salvage.
		countOnce(counted, "failed:"+tmp, &stats.Failed)
		return nil
	}
	final := strings.TrimSuffix(tmp, ".tmp")
	epoch := -1
	if numStr, found := strings.CutPrefix(strings.TrimPrefix(final, prefix), "map."); found {
		if n, err := strconv.Atoi(numStr); err == nil && n >= 0 {
			epoch = n
		}
	}
	if disk.Exists(final) {
		// The commit is durable (and if the journal ratified this epoch,
		// doubly so): the temp is stale debris from an earlier attempt.
		disk.Remove(tmp)
		stats.Discarded++
		return nil
	}
	data, err := disk.Read(tmp)
	if err != nil {
		countOnce(counted, "failed:"+tmp, &stats.Failed)
		return nil
	}
	entries, sal, trailerOK, perr := salvageMapData(data)
	if perr != nil || sal.Lossy() || !trailerOK || (epoch < 0 && len(entries) == 0) {
		// Damaged (or not a map payload at all): set it aside as
		// evidence. The *.quarantined suffix keeps it out of every
		// resolver path while preserving the bytes.
		if rerr := kern.SysRename(proc, tmp, tmp+".quarantined"); rerr != nil {
			if errors.Is(rerr, kernel.ErrCrashed) {
				return rerr
			}
			countOnce(counted, "failed:"+tmp, &stats.Failed)
			return nil
		}
		stats.Quarantined++
		return nil
	}
	// Complete payload, no final file: the crash struck between the data
	// write and the rename (the journal has no commit for this epoch —
	// or it does, and the listing lost the final's dirent; adopting
	// restores the committed epoch either way). Finish the rename.
	if rerr := kern.SysRename(proc, tmp, final); rerr != nil {
		if errors.Is(rerr, kernel.ErrCrashed) {
			return rerr
		}
		// Ambiguous outcomes included (fail-after: the rename is durable
		// but reported failed) — count the failure; the on-disk truth is
		// whatever the next attempt or the report phase observes.
		countOnce(counted, "failed:"+tmp, &stats.Failed)
		return nil
	}
	stats.Adopted++
	return nil
}

// countOnce increments *n the first time key is seen.
func countOnce(counted map[string]bool, key string, n *int) {
	if counted[key] {
		return
	}
	counted[key] = true
	*n++
}
