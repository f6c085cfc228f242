package oprofile

// White-box tests for the spill-file protocol: frame construction,
// journal ratification, and — the property the recovery pass leans on
// — that a torn write can only ever damage the final frame of the
// file, never silently alter or invent samples in an earlier one.

import (
	"fmt"
	"math/rand"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/hpc"
	"viprof/internal/kernel"
)

// makeSpillCounts builds a deterministic random key space of n keys.
func makeSpillCounts(rng *rand.Rand, n int) (map[Key]uint64, []Key) {
	counts := make(map[Key]uint64, n)
	order := make([]Key, 0, n)
	for i := 0; i < n; i++ {
		k := Key{
			Event: hpc.Event(rng.Intn(hpc.NumEvents)),
			Image: fmt.Sprintf("img%d", i),
			Proc:  "vm",
			JIT:   rng.Intn(2) == 0,
			Off:   addr.Address(0x1000 + 0x40*i),
		}
		if k.JIT {
			k.Image = JITImageName
			k.Epoch = rng.Intn(5)
		}
		counts[k] = 1 + uint64(rng.Intn(500))
		order = append(order, k)
	}
	return counts, order
}

func sumCounts(m map[Key]uint64) uint64 {
	var t uint64
	for _, c := range m {
		t += c
	}
	return t
}

// TestSpillTornSuffixSalvage is the quickcheck property: write a
// committed spill file, truncate it at every interesting cut point,
// and require that (a) every recovered count is exactly what was
// written — never invented, never altered — and (b) the recovered set
// is a whole-frame prefix of what was written: a torn suffix costs at
// most the trailing frame(s), nothing in the middle.
func TestSpillTornSuffixSalvage(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nKeys := 1 + rng.Intn(200) // spans 1..5 frames at 48 keys/frame
		counts, order := makeSpillCounts(rng, nKeys)
		const seq = 7
		frames := buildSpillFrames(seq, counts, order)
		// Per-frame running totals: frameTotal[i] = samples in the first
		// i frames (whole-frame prefixes are the only legal salvages).
		prefixTotals := map[uint64]bool{0: true}
		var running uint64
		for start := 0; start < len(order); start += spillChunkKeys {
			end := start + spillChunkKeys
			if end > len(order) {
				end = len(order)
			}
			for _, k := range order[start:end] {
				running += counts[k]
			}
			prefixTotals[running] = true
		}
		// Cut at a random point per trial plus the exact boundaries.
		cuts := []int{0, len(frames), rng.Intn(len(frames) + 1), rng.Intn(len(frames) + 1)}
		for _, cut := range cuts {
			disk := kernel.NewDisk()
			disk.Append(DaemonJournalFile, CommitRecord(journalSpillVerb, seq, sumCounts(counts)))
			disk.Append(SpillFile, frames[:cut])
			st := ReadSpillState(disk)
			for k, c := range st.OnDisk {
				if counts[k] != c {
					t.Fatalf("seed %d cut %d: recovered %v=%d, written %d (invented/altered sample)",
						seed, cut, k, c, counts[k])
				}
			}
			if !prefixTotals[st.OnDiskTotal] {
				t.Fatalf("seed %d cut %d: recovered total %d is not a whole-frame prefix of the written file",
					seed, cut, st.OnDiskTotal)
			}
			if cut == len(frames) && st.OnDiskTotal != running {
				t.Fatalf("seed %d: untouched file recovered %d of %d samples",
					seed, st.OnDiskTotal, running)
			}
			if st.Salvage.DroppedRecords > 1 {
				t.Fatalf("seed %d cut %d: truncation dropped %d records; only the last frame may be torn",
					seed, cut, st.Salvage.DroppedRecords)
			}
		}
	}
}

// TestSpillUncommittedDiscarded: frames whose sequence number the
// journal never ratified are parked debris, not samples — their keys
// are still accounted as unflushed by the daemon that wrote them, so
// counting them would double-count.
func TestSpillUncommittedDiscarded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts, order := makeSpillCounts(rng, 60) // two frames
	frames := buildSpillFrames(3, counts, order)
	disk := kernel.NewDisk()
	disk.Append(SpillFile, frames)
	st := ReadSpillState(disk)
	if st.FramesUncommitted != 2 || st.FramesCommitted != 0 {
		t.Errorf("uncommitted=%d committed=%d, want 2/0", st.FramesUncommitted, st.FramesCommitted)
	}
	if st.OnDiskTotal != 0 || len(st.OnDisk) != 0 {
		t.Errorf("uncommitted frames contributed %d samples", st.OnDiskTotal)
	}
}

// TestSpillSeqBurn: a torn attempt's leftover frames must never be
// ratified by a later attempt's commit. Frames from burned sequence 4
// share the file with committed sequence 5; only sequence 5's samples
// may surface.
func TestSpillSeqBurn(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	stale, staleOrder := makeSpillCounts(rng, 10)
	fresh, freshOrder := makeSpillCounts(rand.New(rand.NewSource(3)), 10)
	staleFrames := buildSpillFrames(4, stale, staleOrder)
	freshFrames := buildSpillFrames(5, fresh, freshOrder)
	disk := kernel.NewDisk()
	disk.Append(SpillFile, staleFrames)
	disk.Append(SpillFile, freshFrames)
	disk.Append(DaemonJournalFile, CommitRecord(journalSpillVerb, 5, sumCounts(fresh)))
	st := ReadSpillState(disk)
	if st.FramesCommitted != 1 || st.FramesUncommitted != 1 {
		t.Errorf("committed=%d uncommitted=%d, want 1/1", st.FramesCommitted, st.FramesUncommitted)
	}
	if st.OnDiskTotal != sumCounts(fresh) {
		t.Errorf("recovered %d, want only the committed attempt's %d", st.OnDiskTotal, sumCounts(fresh))
	}
	for k := range st.OnDisk {
		if _, stale := stale[k]; stale {
			t.Errorf("burned-sequence key %v surfaced", k)
		}
	}
}

// TestDaemonJournalReader: the journal reader classifies commit
// records, recovery markers, and garbage, and flags damage without
// giving up on the intact remainder.
func TestDaemonJournalReader(t *testing.T) {
	disk := kernel.NewDisk()
	if j := ReadDaemonJournal(disk); !j.Missing {
		t.Error("absent journal not reported Missing")
	}
	disk.Append(DaemonJournalFile, CommitRecord(journalSpillVerb, 1, 100))
	disk.Append(DaemonJournalFile, JournalRecoveryBegin())
	disk.Append(DaemonJournalFile, CommitRecord(journalSpillVerb, 2, 50))
	j := ReadDaemonJournal(disk)
	if j.Damaged || j.Missing {
		t.Errorf("clean journal read damaged=%v missing=%v", j.Damaged, j.Missing)
	}
	if j.Markers != 1 || j.Committed[1] != 100 || j.Committed[2] != 50 {
		t.Errorf("journal misread: %+v", j)
	}
	// A torn tail record is damage, but earlier commits survive.
	disk.Append(DaemonJournalFile, CommitRecord(journalSpillVerb, 3, 25)[:5])
	j = ReadDaemonJournal(disk)
	if !j.Damaged {
		t.Error("torn journal tail not flagged Damaged")
	}
	if j.Committed[1] != 100 || j.Committed[2] != 50 {
		t.Errorf("torn tail destroyed earlier commits: %+v", j)
	}
	if _, ok := j.Committed[3]; ok {
		t.Error("torn commit record was ratified")
	}
}
