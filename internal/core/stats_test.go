package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// The agent's stats record had its own fmt.Fprintf writer and
// switch-statement reader before the table codec (oprofile/stats.go).
// Both survive here as references: the table writer must emit their
// bytes exactly, and the table reader must decode them as the reference
// did. Two differences are asserted explicitly. The reference parsed
// values with strconv.Atoi, the table reader parses them as the other
// five stats readers always did (unsigned decimal, converted to the
// field's type), so it rejects signed values such as -1 and +5, which
// no writer emits. And the reference trusted only a file holding
// exactly one intact record and nothing lost, where the table reader
// takes the last intact record (oprofile.ReadStats), as every stats
// reader does.

// lastRecord reframes data's last intact record, nil if none survives:
// the record oprofile.ReadStats selects. Handing it to the reference
// applies the one record-selection rule to the reference's decoding.
func lastRecord(data []byte) []byte {
	recs, _ := record.Scan(data)
	if len(recs) == 0 {
		return nil
	}
	return record.Frame(recs[len(recs)-1])
}

// refAgentPersisted is the shape the reference reader returned.
type refAgentPersisted struct {
	Compiles, Moves, MapsWritten, Entries int
	MapBytes                              uint64
	MapWriteErrors, Deferred              int
	JournalErrors                         int
	Clean                                 bool
}

func (r *refAgentPersisted) current() *AgentPersisted {
	if r == nil {
		return nil
	}
	return &AgentPersisted{AgentStats: AgentStats{
		Compiles: r.Compiles, Moves: r.Moves, MapsWritten: r.MapsWritten, Entries: r.Entries,
		MapBytes: r.MapBytes, MapWriteErrors: r.MapWriteErrors, DeferredEntries: r.Deferred,
		JournalErrors: r.JournalErrors,
	}, Clean: r.Clean}
}

// refAgentStatsPayload is the agent's reference writer.
func refAgentStatsPayload(st AgentStats) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "compiles=%d\nmoves=%d\nmaps_written=%d\nentries=%d\nmap_bytes=%d\n",
		st.Compiles, st.Moves, st.MapsWritten, st.Entries, st.MapBytes)
	fmt.Fprintf(&buf, "map_write_errors=%d\ndeferred=%d\njournal_errors=%d\nclean=1\n",
		st.MapWriteErrors, st.DeferredEntries, st.JournalErrors)
	return buf.Bytes()
}

// refReadAgentStats is the agent's reference reader.
func refReadAgentStats(data []byte) *refAgentPersisted {
	recs, sal := record.Scan(data)
	if sal.Lossy() || len(recs) != 1 {
		return nil
	}
	ap := &refAgentPersisted{}
	for _, line := range strings.Split(string(recs[0]), "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil
		}
		switch k {
		case "compiles":
			ap.Compiles = n
		case "moves":
			ap.Moves = n
		case "maps_written":
			ap.MapsWritten = n
		case "entries":
			ap.Entries = n
		case "map_bytes":
			ap.MapBytes = uint64(n)
		case "map_write_errors":
			ap.MapWriteErrors = n
		case "deferred":
			ap.Deferred = n
		case "journal_errors":
			ap.JournalErrors = n
		case "clean":
			ap.Clean = n != 0
		}
	}
	return ap
}

// agentPayload is what VMAgent.writeStats frames for st.
func agentPayload(st AgentStats) []byte {
	ap := AgentPersisted{AgentStats: st, Clean: true}
	return oprofile.AppendStats(nil, ap.table())
}

// randAgentStats draws nonnegative counters of every magnitude.
// MapBytes stays within int64, the range the Atoi-based reference can
// read back.
func randAgentStats(r *rand.Rand) AgentStats {
	n := func() int {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return r.Intn(10)
		case 2:
			return math.MaxInt64 - r.Intn(3)
		}
		return int(r.Int63() >> uint(r.Intn(63)))
	}
	return AgentStats{
		Compiles: n(), Moves: n(), MapsWritten: n(), Entries: n(), MapBytes: uint64(n()),
		MapWriteErrors: n(), DeferredEntries: n(), JournalErrors: n(),
	}
}

func checkAgentReader(t *testing.T, name string, data []byte) {
	t.Helper()
	if got, want := ReadAgentStats(data), refReadAgentStats(lastRecord(data)).current(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: table reader %+v, reference %+v", name, got, want)
	}
}

// Property: on random counters the agent's table writer emits the
// reference writer's bytes, and the table reader decodes them as the
// reference did and back to the counters written.
func TestStatsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		st := randAgentStats(rand.New(rand.NewSource(seed)))
		got, want := agentPayload(st), refAgentStatsPayload(st)
		if !bytes.Equal(got, want) {
			t.Errorf("seed %d: writer output differs:\n got %q\nwant %q", seed, got, want)
		}
		checkAgentReader(t, fmt.Sprintf("seed %d", seed), record.Frame(want))
		if ap := ReadAgentStats(record.Frame(got)); ap == nil || ap.AgentStats != st || !ap.Clean {
			t.Errorf("seed %d: round trip %+v, wrote %+v", seed, ap, st)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStatsRoundTripFixed pins the agent reader against the reference
// on malformed and multi-record inputs, and pins the two differences:
// record selection (the last intact record wins; the reference read a
// torn tail or two intact records as nil) and signed values.
func TestStatsRoundTripFixed(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p, q := agentPayload(randAgentStats(r)), agentPayload(randAgentStats(r))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	fq := record.Frame(q)
	cases := map[string][]byte{
		"intact":       record.Frame(p),
		"empty file":   nil,
		"no equals":    record.Frame(cat(p, []byte("garbage\n"))),
		"non-numeric":  record.Frame(cat(p, []byte("clean=yes\n"))),
		"crlf":         record.Frame(bytes.ReplaceAll(p, []byte("\n"), []byte("\r\n"))),
		"blank lines":  record.Frame(cat([]byte("\n"), bytes.ReplaceAll(p, []byte("\n"), []byte("\n\n")))),
		"unknown keys": record.Frame(cat([]byte("bogus=7\nmoves.cpu0=3\n"), p, []byte("zzz=1\n"))),
		"torn tail":    cat(record.Frame(p), fq[:len(fq)-3]),
		"two intact":   cat(record.Frame(p), fq),
	}
	for name, data := range cases {
		checkAgentReader(t, name, data)
	}
	first := ReadAgentStats(cases["intact"])
	if first == nil {
		t.Error("intact record rejected")
	}
	for _, name := range []string{"empty file", "no equals", "non-numeric", "crlf"} {
		if ap := ReadAgentStats(cases[name]); ap != nil {
			t.Errorf("%s: decoded %+v, want nil", name, ap)
		}
	}
	for name, want := range map[string]*AgentPersisted{
		"torn tail":  first,
		"two intact": ReadAgentStats(fq),
	} {
		if got := ReadAgentStats(cases[name]); got == nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: selected %+v, want %+v", name, got, want)
		}
		if ref := refReadAgentStats(cases[name]); ref != nil {
			t.Errorf("%s: reference decoded %+v, want nil", name, ref)
		}
	}

	// The difference: Atoi took a sign, the table reader does not, and a
	// value past MaxInt64 converts to int as in the recovery and
	// retention readers, where Atoi rejected it.
	for _, tc := range []struct {
		line        string
		ref, agent  bool
		compilesRef int
	}{
		{"compiles=-1\n", true, false, -1},
		{"compiles=+5\n", true, false, 5},
		{"compiles=9223372036854775808\n", false, true, 0},
	} {
		data := record.Frame(cat(p, []byte(tc.line)))
		ref, got := refReadAgentStats(data), ReadAgentStats(data)
		if (ref != nil) != tc.ref || (got != nil) != tc.agent {
			t.Errorf("%q: reference %+v, table reader %+v", tc.line, ref, got)
			continue
		}
		if ref != nil && ref.Compiles != tc.compilesRef {
			t.Errorf("%q: reference read compiles=%d", tc.line, ref.Compiles)
		}
		if got != nil && got.Compiles != math.MinInt64 {
			t.Errorf("%q: table reader read compiles=%d", tc.line, got.Compiles)
		}
	}
}
