package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// The agent's and the daemon's commit journals had a parser each before
// the shared codec (oprofile/journal.go): the agent matched records with
// fmt.Sscanf("commit %d %d"), the daemon split "spill <seq> <samples>"
// with strings.Fields and strconv.ParseUint. Both survive here as
// references, and the shared reader must agree with them (apart from
// its Unreadable flag, which they lacked), with one difference asserted
// explicitly: it accepts exactly what CommitRecord writes — the verb,
// one space, an unsigned decimal, one space, an unsigned decimal, each
// number below 2^63 — and reads every other record as damage. The references also accepted forms no writer
// emits: the agent's Sscanf took signs, trailing text and runs of
// spaces or tabs (commit 3 4 junk, commit +3 -4), and the daemon's
// Fields split took runs of whitespace and seqs past 2^63 - 1.

// refAgentJournal is the shape the agent's reference reader returned.
type refAgentJournal struct {
	Committed map[int]int
	Damaged   bool
	Missing   bool
}

// refReadAgentJournal is the agent's reference reader.
func refReadAgentJournal(disk *kernel.Disk, pid int) refAgentJournal {
	j := refAgentJournal{Committed: make(map[int]int)}
	path := AgentJournalPath(pid)
	if !disk.Exists(path) {
		j.Missing = true
		return j
	}
	data, err := disk.Read(path)
	if err != nil {
		j.Damaged = true
		return j
	}
	recs, sal := record.Scan(data)
	if sal.Lossy() {
		j.Damaged = true
	}
	for _, payload := range recs {
		var epoch, entries int
		if n, err := fmt.Sscanf(string(payload), "commit %d %d", &epoch, &entries); n != 2 || err != nil || epoch < 0 {
			j.Damaged = true
			continue
		}
		j.Committed[epoch] = entries
	}
	return j
}

// refDaemonJournal is the shape the daemon's reference reader returned.
type refDaemonJournal struct {
	Committed     map[uint64]uint64
	RecoveryBegun int
	Damaged       bool
	Missing       bool
}

// refReadDaemonJournal is the daemon's reference reader.
func refReadDaemonJournal(disk *kernel.Disk) refDaemonJournal {
	j := refDaemonJournal{Committed: make(map[uint64]uint64)}
	if !disk.Exists(oprofile.DaemonJournalFile) {
		j.Missing = true
		return j
	}
	data, err := disk.Read(oprofile.DaemonJournalFile)
	if err != nil {
		j.Damaged = true
		return j
	}
	recs, sal := record.Scan(data)
	if sal.Lossy() {
		j.Damaged = true
	}
	for _, payload := range recs {
		s := string(payload)
		switch {
		case s == "recovery-begin":
			j.RecoveryBegun++
		case strings.HasPrefix(s, "spill "):
			fields := strings.Fields(strings.TrimPrefix(s, "spill "))
			if len(fields) != 2 {
				j.Damaged = true
				continue
			}
			seq, err1 := strconv.ParseUint(fields[0], 10, 64)
			n, err2 := strconv.ParseUint(fields[1], 10, 64)
			if err1 != nil || err2 != nil {
				j.Damaged = true
				continue
			}
			j.Committed[seq] = n
		default:
			j.Damaged = true
		}
	}
	return j
}

// journalUnderTest reads one journal both ways and returns both results
// in the shared reader's shape.
type journalUnderTest struct {
	name, verb string
	path       string
	ref, read  func(*kernel.Disk) oprofile.CommitJournal
}

const journalTestPID = 7

var journalsUnderTest = []journalUnderTest{
	{
		name: "agent", verb: "commit", path: AgentJournalPath(journalTestPID),
		ref: func(d *kernel.Disk) oprofile.CommitJournal {
			r := refReadAgentJournal(d, journalTestPID)
			j := oprofile.CommitJournal{Committed: make(map[uint64]uint64), Damaged: r.Damaged, Missing: r.Missing}
			for e, n := range r.Committed {
				// The shared reader keeps unsigned values; a negative entry
				// count shows up as its two's complement and differs.
				j.Committed[uint64(e)] = uint64(n)
			}
			return j
		},
		read: func(d *kernel.Disk) oprofile.CommitJournal { return ReadAgentJournal(d, journalTestPID) },
	},
	{
		name: "daemon", verb: "spill", path: oprofile.DaemonJournalFile,
		ref: func(d *kernel.Disk) oprofile.CommitJournal {
			r := refReadDaemonJournal(d)
			return oprofile.CommitJournal{Committed: r.Committed, Markers: r.RecoveryBegun, Damaged: r.Damaged, Missing: r.Missing}
		},
		read: oprofile.ReadDaemonJournal,
	},
}

// randJournalNumber draws a decimal the way writers and forgers might:
// mostly small, sometimes huge, sometimes at or past a bound.
func randJournalNumber(r *rand.Rand) string {
	switch r.Intn(8) {
	case 0:
		return strconv.FormatUint(r.Uint64(), 10)
	case 1:
		return []string{"0", "9223372036854775807", "9223372036854775808",
			"18446744073709551615", "18446744073709551616", "007"}[r.Intn(6)]
	case 2:
		return strconv.FormatInt(r.Int63(), 10)
	default:
		return strconv.Itoa(r.Intn(40))
	}
}

// randJournalPayload draws one record payload for a journal whose
// commit verb is verb: canonical commits, markers, foreign verbs and
// the hand-made forms only the references accepted.
func randJournalPayload(r *rand.Rand, verb string) string {
	a, b := randJournalNumber(r), randJournalNumber(r)
	switch r.Intn(12) {
	case 0:
		return "recovery-begin"
	case 1:
		return []string{"commit", "spill"}[r.Intn(2)] + " " + a + " " + b
	case 2:
		return verb + " " + []string{"+", "-", ""}[r.Intn(3)] + a + " " + []string{"+", "-", ""}[r.Intn(3)] + b
	case 3:
		return verb + " " + a + " " + b + []string{" junk", "junk", " 5", "\n", " "}[r.Intn(5)]
	case 4:
		return verb + []string{"  ", "\t", " \t"}[r.Intn(3)] + a + []string{"  ", "\t", "\n", ""}[r.Intn(4)] + b
	case 5:
		return []string{"", verb, verb + " " + a, "recovery-begin ", "xx"}[r.Intn(5)]
	default:
		return verb + " " + a + " " + b
	}
}

// readOne reads a journal holding only payload and reports whether the
// reader committed it, and to what.
func readOne(read func(*kernel.Disk) oprofile.CommitJournal, path, payload string) (oprofile.CommitJournal, bool) {
	d := kernel.NewDisk()
	d.Append(path, record.Frame([]byte(payload)))
	j := read(d)
	return j, !j.Damaged && j.Markers == 0 && len(j.Committed) == 1
}

// Property: over random journal streams — canonical records, markers,
// foreign verbs, hand-made forms, torn tails, flipped bytes, missing and
// unreadable files — the shared reader reads every journal as its
// reference did, once each record the reference alone accepted is
// replaced by same-length junk the reference reads as damage.
func TestCommitJournalMatchesReference(t *testing.T) {
	var onlyRef, torn, flipped, clean int
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// The writers' bytes: the agent's Sprintf of two ints, the
		// daemon's of two uint64s.
		a, b := uint64(r.Int63()>>uint(r.Intn(63))), uint64(r.Int63()>>uint(r.Intn(63)))
		if got, want := oprofile.CommitRecord("commit", a, b), record.Frame([]byte(fmt.Sprintf("commit %d %d", int(a), int(b)))); string(got) != string(want) {
			t.Errorf("agent commit %d %d: %q, reference %q", a, b, got, want)
		}
		if got, want := oprofile.CommitRecord("spill", a, b), record.Frame([]byte(fmt.Sprintf("%s%d %d", "spill ", a, b))); string(got) != string(want) {
			t.Errorf("spill commit %d %d: %q, reference %q", a, b, got, want)
		}
		for _, jt := range journalsUnderTest {
			n := r.Intn(8)
			var stream, masked []byte
			for i := 0; i < n; i++ {
				p := randJournalPayload(r, jt.verb)
				got, newOK := readOne(jt.read, jt.path, p)
				want, refOK := readOne(jt.ref, jt.path, p)
				switch {
				case newOK && (!refOK || !reflect.DeepEqual(got, want)):
					t.Errorf("%s: shared reader accepts %q as %v, reference %v", jt.name, p, got, want)
				case refOK && !newOK:
					onlyRef++
					stream = append(stream, record.Frame([]byte(p))...)
					masked = append(masked, record.Frame([]byte(strings.Repeat("x", len(p))))...)
					continue
				case !newOK && !reflect.DeepEqual(got, want):
					t.Errorf("%s: %q read as %+v, reference %+v", jt.name, p, got, want)
				}
				stream = append(stream, record.Frame([]byte(p))...)
				masked = append(masked, record.Frame([]byte(p))...)
			}
			if len(stream) > 0 && r.Intn(4) == 0 {
				cut := r.Intn(len(stream))
				stream, masked = stream[:cut], masked[:cut]
				torn++
			}
			if len(stream) > 0 && r.Intn(4) == 0 {
				at, flip := r.Intn(len(stream)), byte(1+r.Intn(255))
				stream[at] ^= flip
				masked[at] ^= flip
				flipped++
			}
			newDisk, refDisk := kernel.NewDisk(), kernel.NewDisk()
			if n > 0 || r.Intn(2) == 0 {
				newDisk.Append(jt.path, stream)
				refDisk.Append(jt.path, masked)
			}
			eio := r.Intn(10) == 0
			if eio {
				for _, d := range []*kernel.Disk{newDisk, refDisk} {
					d.SetReadFaultInjector(kernel.ReadFaultPlan{Seed: seed, PEIO: 1})
				}
			}
			got, want := jt.read(newDisk), jt.ref(refDisk)
			// The references had no Unreadable flag: it marks exactly an
			// existing file whose read failed.
			if got.Unreadable != (eio && newDisk.Exists(jt.path)) {
				t.Errorf("seed %d %s: Unreadable=%v, EIO injected=%v", seed, jt.name, got.Unreadable, eio)
			}
			want.Unreadable = got.Unreadable
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s: shared reader %+v, reference %+v on %q", seed, jt.name, got, want, stream)
			}
			if !got.Damaged && !got.Missing {
				clean++
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	t.Logf("%d reference-only records, %d torn, %d flipped, %d clean journals", onlyRef, torn, flipped, clean)
	if onlyRef == 0 || torn == 0 || flipped == 0 || clean == 0 {
		t.Errorf("weak coverage: %d reference-only records, %d torn, %d flipped, %d clean journals",
			onlyRef, torn, flipped, clean)
	}
}

// TestCommitJournalListedDifference pins forms only the references
// accepted.
func TestCommitJournalListedDifference(t *testing.T) {
	for _, tc := range []struct {
		jt      journalUnderTest
		payload string
	}{
		{journalsUnderTest[0], "commit 3 4 junk"},
		{journalsUnderTest[0], "commit +3 -4"},
		{journalsUnderTest[0], "commit 3 4junk"},
		{journalsUnderTest[0], "commit  3\t4"},
		{journalsUnderTest[0], "commit  3 4"},
		{journalsUnderTest[1], "spill 3\t4"},
		{journalsUnderTest[1], "spill  3 4"},
		{journalsUnderTest[1], "spill 3 4 "},
		{journalsUnderTest[1], "spill 9223372036854775808 4"},
	} {
		if _, ok := readOne(tc.jt.ref, tc.jt.path, tc.payload); !ok {
			t.Errorf("%s reference rejects %q", tc.jt.name, tc.payload)
		}
		if j, ok := readOne(tc.jt.read, tc.jt.path, tc.payload); ok || !j.Damaged {
			t.Errorf("%s: shared reader reads %q as %+v, want damage", tc.jt.name, tc.payload, j)
		}
	}
}
