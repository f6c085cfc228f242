package oprofile

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"viprof/internal/kernel"
	"viprof/internal/record"
)

// The spill file: where the daemon parks aggregated counts it cannot
// keep in memory while the sample file is unwritable. PR 2's spill
// dropped the sorted tail of the key space outright — bounded memory,
// but accountable-only loss. Here the tail goes to disk as framed,
// CRC'd records instead, under a tiny commit journal, and a recovery
// pass re-merges whatever survives into the sample file. "Spilled"
// stops meaning "gone" and starts meaning "parked".
//
// Protocol (all failure-atomic, no fault-free window assumed):
//
//  1. The daemon burns a fresh sequence number for every spill
//     attempt, writes the tail as framed chunks (each payload
//     "#spill <seq>" + sample lines) in ONE SysWrite, then appends a
//     framed "spill <seq> <samples>" commit to the daemon journal.
//  2. Only after the journal commit succeeds are the keys removed
//     from the dirty map. A crash or error anywhere earlier leaves
//     the keys dirty and the on-disk frames UNCOMMITTED — recovery
//     discards them, because their samples are still accounted as
//     unflushed (adopting them would double-count).
//  3. Recovery scans the spill file, merges every committed intact
//     frame into the sample file as one framed record, and removes
//     the spill file. The merge write and the removal have no fault
//     point between them; a torn merge frame fails its checksum, so
//     re-running recovery cannot double-count.
//
// Sequence numbers are burned per attempt (never reused) so a torn
// attempt's leftover frames can never be ratified by a later
// attempt's journal commit.

// SpillFile is where the daemon parks spilled aggregates.
const SpillFile = "var/lib/oprofile/oprofiled.spill"

// DaemonJournalFile is the daemon-side commit journal: one framed
// record per committed spill batch, plus the recovery pass's
// begin markers. Like the stats file it is read back through the
// salvage layer; a torn journal is loud, not fatal.
const DaemonJournalFile = "var/lib/oprofile/oprofiled.journal"

// spillChunkKeys bounds keys per spill frame so one damaged frame
// loses at most this many keys' worth of parked samples.
const spillChunkKeys = 48

// spillHeader / journal record verbs.
const (
	spillHeaderPrefix    = "#spill "
	journalSpillVerb     = "spill"
	journalRecoveryBegin = "recovery-begin"
)

// buildSpillFrames serializes counts for the given keys into framed
// chunks, every payload opening with "#spill <seq>".
func buildSpillFrames(seq uint64, counts map[Key]uint64, order []Key) []byte {
	var out bytes.Buffer
	var payload []byte
	for start := 0; start < len(order); start += spillChunkKeys {
		end := min(start+spillChunkKeys, len(order))
		payload = fmt.Appendf(payload[:0], "%s%d\n", spillHeaderPrefix, seq)
		payload = AppendCounts(payload, counts, order[start:end])
		out.Write(record.Frame(payload))
	}
	return out.Bytes()
}

// JournalRecoveryBegin formats the framed marker the recovery pass
// appends before doing anything, so a recovery that dies leaves
// durable evidence it started.
func JournalRecoveryBegin() []byte {
	return record.Frame([]byte(journalRecoveryBegin))
}

// spillFrame is one parsed spill record.
type spillFrame struct {
	seq    uint64
	counts map[Key]uint64
}

func parseSpillFrame(payload []byte) (spillFrame, error) {
	head, rest, _ := bytes.Cut(payload, []byte("\n"))
	hs := string(head)
	if !strings.HasPrefix(hs, spillHeaderPrefix) {
		return spillFrame{}, fmt.Errorf("oprofile: spill frame: bad header %q", hs)
	}
	seq, err := strconv.ParseUint(strings.TrimPrefix(hs, spillHeaderPrefix), 10, 64)
	if err != nil {
		return spillFrame{}, fmt.Errorf("oprofile: spill frame: %v", err)
	}
	counts := make(map[Key]uint64)
	if err := readCountsText(rest, counts); err != nil {
		return spillFrame{}, err
	}
	return spillFrame{seq: seq, counts: counts}, nil
}

// ReadDaemonJournal reads the daemon's commit journal: spill commits
// and recovery-begin markers.
func ReadDaemonJournal(disk *kernel.Disk) CommitJournal {
	return ReadCommitJournal(disk, DaemonJournalFile, journalSpillVerb, journalRecoveryBegin)
}

// SpillState is the offline view of what is parked in the spill file:
// which frames the journal ratified, what they hold, and what must be
// ignored. Both the recovery pass and the integrity assembly use it.
type SpillState struct {
	// OnDisk is the committed, intact parked counts (mergeable).
	OnDisk map[Key]uint64
	// OnDiskTotal is the sample total of OnDisk.
	OnDiskTotal uint64
	// FramesCommitted / FramesUncommitted partition intact frames by
	// whether the journal ratified their sequence number.
	FramesCommitted, FramesUncommitted int
	// Journal is the daemon's commit journal.
	Journal CommitJournal
	// Salvage is the spill file's own damage accounting.
	Salvage record.Salvage
	// Unreadable reports an EIO reading the spill file back.
	Unreadable bool
}

// ReadSpillState reads the spill file and journal back through the
// salvage layer. A missing spill file is an empty (clean) state.
func ReadSpillState(disk *kernel.Disk) SpillState {
	st := SpillState{OnDisk: make(map[Key]uint64), Journal: ReadDaemonJournal(disk)}
	if !disk.Exists(SpillFile) {
		return st
	}
	data, err := disk.Read(SpillFile)
	if err != nil {
		st.Unreadable = true
		return st
	}
	recs, sal := record.Scan(data)
	st.Salvage = sal
	for _, payload := range recs {
		fr, err := parseSpillFrame(payload)
		if err != nil {
			// Checksum-valid but unparseable: count it as damage rather
			// than failing the whole state — recovery must still be able
			// to act on the intact remainder.
			st.Salvage.DroppedRecords++
			st.Salvage.DroppedBytes += len(payload)
			continue
		}
		if _, ok := st.Journal.Committed[fr.seq]; !ok {
			st.FramesUncommitted++
			continue
		}
		st.FramesCommitted++
		for k, c := range fr.counts {
			st.OnDisk[k] += c
			st.OnDiskTotal += c
		}
	}
	return st
}

// SpillRecovery is the outcome of one spill-recovery attempt.
type SpillRecovery struct {
	// FramesMerged / FramesDiscarded: committed frames merged into the
	// sample file vs uncommitted/damaged frames dropped.
	FramesMerged, FramesDiscarded int
	// Recovered is the merged sample total per event mnemonic;
	// RecoveredTotal sums it.
	Recovered      map[string]uint64
	RecoveredTotal uint64
	// MergeErrors counts failed merge writes (spill file left in
	// place for a later attempt).
	MergeErrors int
	// JournalDamaged mirrors the journal's Damaged flag.
	JournalDamaged bool
}

// RecoverSpill merges every committed intact spill frame into the
// sample file and removes the spill file. Idempotent: a torn merge
// frame fails its checksum, and the removal happens in the same
// fault-free step as the successful write, so re-running after a
// crash cannot double-count. The returned error is non-nil only for
// a crash (the caller's recovery supervisor restarts the pass).
func RecoverSpill(m *kernel.Machine, proc *kernel.Process) (SpillRecovery, error) {
	sr := SpillRecovery{Recovered: make(map[string]uint64)}
	disk := m.Kern.Disk()
	st := ReadSpillState(disk)
	sr.JournalDamaged = st.Journal.Damaged
	if !disk.Exists(SpillFile) {
		return sr, nil
	}
	if st.Unreadable || st.Journal.Unreadable {
		// Cannot read the spill or its journal back: without the
		// journal every frame would look uncommitted and be discarded.
		// Leave both for a later attempt and count a merge error.
		sr.MergeErrors++
		return sr, nil
	}
	sr.FramesDiscarded = st.FramesUncommitted + st.Salvage.DroppedRecords
	if st.OnDiskTotal == 0 {
		// Nothing committed survives; the file is pure discard.
		disk.Remove(SpillFile)
		return sr, nil
	}
	order := make([]Key, 0, len(st.OnDisk))
	for k := range st.OnDisk {
		order = append(order, k)
	}
	slices.SortFunc(order, compareKeys)
	err := m.Kern.SysWrite(proc, SampleFile, record.Frame(AppendCounts(nil, st.OnDisk, order)))
	if err != nil {
		sr.MergeErrors++
		if errors.Is(err, kernel.ErrCrashed) {
			return sr, err
		}
		// Non-crash failure: the torn merge frame fails its checksum and
		// the spill file stays for a later attempt.
		return sr, nil
	}
	// Success: the merged record is durable. Removing the spill file is
	// an in-memory metadata operation with no fault point, so the merge
	// can never be replayed.
	disk.Remove(SpillFile)
	sr.FramesMerged = st.FramesCommitted
	for k, c := range st.OnDisk {
		sr.Recovered[k.Event.String()] += c
		sr.RecoveredTotal += c
	}
	return sr, nil
}
