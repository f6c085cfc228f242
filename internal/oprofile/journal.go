package oprofile

import (
	"strconv"
	"strings"

	"viprof/internal/kernel"
	"viprof/internal/record"
)

// Commit journals. The VM agent appends "commit <epoch> <entries>"
// after each map rename, and the daemon appends "spill <seq> <samples>"
// after each spill batch, plus the recovery pass's "recovery-begin"
// markers. Both journals share this codec: one record format, one
// salvage reader and one damage rule — a record that is neither a
// well-formed commit nor the journal's own marker makes the journal
// untrusted.

// CommitJournal is a commit journal read back through the salvage
// layer.
type CommitJournal struct {
	// Committed maps each ratified key (an epoch, a spill seq) to the
	// count its commit record claimed; a later record for a key wins.
	Committed map[uint64]uint64
	// Markers counts the journal's marker records.
	Markers int
	// Damaged reports an unreadable file, salvage loss, or a record
	// that is neither a well-formed commit nor the marker.
	Damaged bool
	// Unreadable reports that the file exists but would not read back:
	// its commits are unknown, not absent.
	Unreadable bool
	// Missing reports that the journal file does not exist.
	Missing bool
}

// CommitRecord frames the commit record "<verb> <a> <b>".
func CommitRecord(verb string, a, b uint64) []byte {
	p := append([]byte(verb), ' ')
	p = strconv.AppendUint(p, a, 10)
	p = append(p, ' ')
	return record.Frame(strconv.AppendUint(p, b, 10))
}

// ReadCommitJournal reads the journal at path: verb names its commit
// records and marker, if not empty, its marker record.
func ReadCommitJournal(disk *kernel.Disk, path, verb, marker string) CommitJournal {
	j := CommitJournal{Committed: make(map[uint64]uint64)}
	if !disk.Exists(path) {
		j.Missing = true
		return j
	}
	data, err := disk.Read(path)
	if err != nil {
		j.Damaged, j.Unreadable = true, true
		return j
	}
	recs, sal := record.Scan(data)
	j.Damaged = sal.Lossy()
	for _, payload := range recs {
		s := string(payload)
		if marker != "" && s == marker {
			j.Markers++
			continue
		}
		// Exactly what CommitRecord writes, each number below 2^63 so an
		// agent's epoch and entry count convert to int without wrapping.
		rest, found := strings.CutPrefix(s, verb+" ")
		as, bs, two := strings.Cut(rest, " ")
		a, err1 := strconv.ParseUint(as, 10, 63)
		b, err2 := strconv.ParseUint(bs, 10, 63)
		if !found || !two || err1 != nil || err2 != nil {
			j.Damaged = true
			continue
		}
		j.Committed[a] = b
	}
	return j
}
