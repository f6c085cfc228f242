package fleet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
	"viprof/internal/hpc"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// The collector and sender stats records had their own fmt.Fprintf
// writers and switch-statement readers (over a shared key=value map
// scanner) before the table codec (oprofile/stats.go). They survive
// here as references: the table writers must emit their bytes exactly,
// and the table readers must decode them as the references did, apart
// from one difference asserted explicitly: a <name>.cpu<N> key no
// longer lands in a per-event family. The sender reference skipped
// zero-valued per-event entries; the table writer writes every entry,
// and unhold deletes an entry when it reaches zero instead.

// refCollectorStatsPayload is the collector's reference writer.
func refCollectorStatsPayload(s *CollectorStats) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "shards=%d\ningested=%d\nduplicates=%d\nout_of_order=%d\nmaps_applied=%d\nwire_damaged=%d\n",
		s.Shards, s.Ingested, s.Duplicates, s.OutOfOrder, s.MapsApplied, s.WireDamaged)
	fmt.Fprintf(&buf, "journal_errors=%d\nacks_sent=%d\nrestarts=%d\nreplay_errors=%d\n",
		s.JournalErrors, s.AcksSent, s.Restarts, s.ReplayErrors)
	fmt.Fprintf(&buf, "replayed_frames=%d\nmarker_errors=%d\ndead_letters=%d\nsnapshot_errors=%d\n",
		s.ReplayedFrames, s.MarkerErrors, s.DeadLetters, s.SnapshotErrors)
	fmt.Fprintf(&buf, "failovers=%d\nhandoffs=%d\nhandoff_errors=%d\nmisrouted=%d\n",
		s.Failovers, s.Handoffs, s.HandoffErrors, s.Misrouted)
	fmt.Fprintf(&buf, "compactions=%d\ncompact_errors=%d\n", s.Compactions, s.CompactErrors)
	fmt.Fprintf(&buf, "clean=%d\n", refB2i(s.Clean))
	return buf.Bytes()
}

// refReadCollectorStats is the collector's reference reader.
func refReadCollectorStats(data []byte) *CollectorStats {
	kv := refReadStatsKV(data)
	if kv == nil {
		return nil
	}
	s := &CollectorStats{}
	for k, n := range kv {
		switch k {
		case "shards":
			s.Shards = n
		case "ingested":
			s.Ingested = n
		case "duplicates":
			s.Duplicates = n
		case "out_of_order":
			s.OutOfOrder = n
		case "maps_applied":
			s.MapsApplied = n
		case "wire_damaged":
			s.WireDamaged = n
		case "failovers":
			s.Failovers = n
		case "handoffs":
			s.Handoffs = n
		case "handoff_errors":
			s.HandoffErrors = n
		case "misrouted":
			s.Misrouted = n
		case "compactions":
			s.Compactions = n
		case "compact_errors":
			s.CompactErrors = n
		case "journal_errors":
			s.JournalErrors = n
		case "acks_sent":
			s.AcksSent = n
		case "restarts":
			s.Restarts = n
		case "replay_errors":
			s.ReplayErrors = n
		case "replayed_frames":
			s.ReplayedFrames = n
		case "marker_errors":
			s.MarkerErrors = n
		case "dead_letters":
			s.DeadLetters = n
		case "snapshot_errors":
			s.SnapshotErrors = n
		case "clean":
			s.Clean = n != 0
		}
	}
	return s
}

// refSenderStatsPayload is the sender's reference writer.
func refSenderStatsPayload(s *SenderStats) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "generated=%d\nsent=%d\nretries=%d\ntimeouts=%d\nacked=%d\n",
		s.Generated, s.Sent, s.Retries, s.Timeouts, s.Acked)
	fmt.Fprintf(&buf, "spilled=%d\ndeferred=%d\nlost=%d\nspill_errors=%d\nstats_errors=%d\n",
		s.Spilled, s.Deferred, s.Lost, s.SpillErrors, s.StatsErrors)
	fmt.Fprintf(&buf, "spilled_samples=%d\nlost_samples=%d\n", s.SpilledSamples, s.LostSamples)
	fmt.Fprintf(&buf, "maps_generated=%d\nmaps_acked=%d\n", s.MapsGenerated, s.MapsAcked)
	for _, pair := range []struct {
		prefix string
		m      map[string]uint64
	}{{"spilled_by_event.", s.SpilledByEvent}, {"lost_by_event.", s.LostByEvent}} {
		events := make([]string, 0, len(pair.m))
		for ev := range pair.m {
			events = append(events, ev)
		}
		sort.Strings(events)
		for _, ev := range events {
			if pair.m[ev] == 0 {
				continue
			}
			fmt.Fprintf(&buf, "%s%s=%d\n", pair.prefix, ev, pair.m[ev])
		}
	}
	fmt.Fprintf(&buf, "clean=%d\n", refB2i(s.Clean))
	return buf.Bytes()
}

// refReadSenderStats is the sender's reference reader.
func refReadSenderStats(data []byte) *SenderStats {
	kv := refReadStatsKV(data)
	if kv == nil {
		return nil
	}
	s := &SenderStats{
		SpilledByEvent: make(map[string]uint64),
		LostByEvent:    make(map[string]uint64),
	}
	for k, n := range kv {
		if ev, found := strings.CutPrefix(k, "spilled_by_event."); found {
			s.SpilledByEvent[ev] = n
			continue
		}
		if ev, found := strings.CutPrefix(k, "lost_by_event."); found {
			s.LostByEvent[ev] = n
			continue
		}
		switch k {
		case "generated":
			s.Generated = n
		case "sent":
			s.Sent = n
		case "retries":
			s.Retries = n
		case "timeouts":
			s.Timeouts = n
		case "acked":
			s.Acked = n
		case "spilled":
			s.Spilled = n
		case "deferred":
			s.Deferred = n
		case "lost":
			s.Lost = n
		case "spill_errors":
			s.SpillErrors = n
		case "stats_errors":
			s.StatsErrors = n
		case "spilled_samples":
			s.SpilledSamples = n
		case "lost_samples":
			s.LostSamples = n
		case "maps_generated":
			s.MapsGenerated = n
		case "maps_acked":
			s.MapsAcked = n
		case "clean":
			s.Clean = n != 0
		}
	}
	return s
}

// refReadStatsKV is the references' shared scanner: the last intact
// record's key=value lines; nil on no intact record or parse damage.
func refReadStatsKV(data []byte) map[string]uint64 {
	recs, _ := record.Scan(data)
	if len(recs) == 0 {
		return nil
	}
	kv := make(map[string]uint64)
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
		kv[k] = n
	}
	return kv
}

func refB2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func randU64(r *rand.Rand) uint64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return uint64(r.Intn(10))
	case 2:
		return math.MaxUint64 - uint64(r.Intn(3))
	}
	return r.Uint64() >> uint(r.Intn(64))
}

func randCollectorStats(r *rand.Rand) *CollectorStats {
	s := &CollectorStats{Clean: r.Intn(2) == 0}
	for _, p := range []*uint64{
		&s.Shards, &s.Ingested, &s.Duplicates, &s.OutOfOrder, &s.MapsApplied, &s.WireDamaged,
		&s.JournalErrors, &s.AcksSent, &s.Restarts, &s.ReplayErrors, &s.ReplayedFrames,
		&s.MarkerErrors, &s.DeadLetters, &s.Failovers, &s.Handoffs, &s.HandoffErrors,
		&s.Misrouted, &s.Compactions, &s.CompactErrors, &s.SnapshotErrors,
	} {
		*p = randU64(r)
	}
	return s
}

// randSenderStats draws a sender's stats the way its accounting builds
// them: every delta the sender gave up on adds its counts to a
// per-event map, and a random subset is rescued by a late ack, which
// takes them back out through unhold.
func randSenderStats(r *rand.Rand) *SenderStats {
	s := &Sender{stats: SenderStats{
		SpilledByEvent: make(map[string]uint64),
		LostByEvent:    make(map[string]uint64),
		Clean:          r.Intn(2) == 0,
	}}
	st := &s.stats
	for _, p := range []*uint64{
		&st.Generated, &st.Sent, &st.Retries, &st.Timeouts, &st.Acked, &st.MapsGenerated,
		&st.MapsAcked, &st.Deferred, &st.SpillErrors, &st.StatsErrors,
	} {
		*p = randU64(r)
	}
	var held []*Delta
	for i := r.Intn(8); i > 0; i-- {
		d := &Delta{Hold: HoldSpilled}
		counts := make(map[oprofile.Key]uint64)
		for j := 1 + r.Intn(4); j > 0; j-- {
			k := oprofile.Key{Event: hpc.Event(r.Intn(6)), Image: "fleet.app", Off: addr.Address(8 * r.Intn(4))}
			counts[k] += uint64(1 + r.Intn(4))
		}
		d.Counts = runOf(counts)
		byEvent := st.SpilledByEvent
		if r.Intn(3) == 0 {
			d.Hold, byEvent = HoldLost, st.LostByEvent
		}
		for _, kc := range d.Counts {
			byEvent[kc.Key.Event.String()] += kc.Count
		}
		if d.Hold == HoldSpilled {
			st.Spilled++
			st.SpilledSamples += d.Total()
		} else {
			st.Lost++
			st.LostSamples += d.Total()
		}
		held = append(held, d)
	}
	for _, d := range held {
		if r.Intn(2) == 0 {
			s.unhold(d)
		}
	}
	return st
}

var cpuKey = regexp.MustCompile(`\.cpu[0-9]+$`)

// dropCPUKeys deletes the family entries whose full key has the
// <name>.cpu<N> shape: the entries the reference reader filed into a
// family and the table reader ignores.
func dropCPUKeys(prefix string, m map[string]uint64) {
	for name := range m {
		if cpuKey.MatchString(prefix + name) {
			delete(m, name)
		}
	}
}

var statsReaders = []struct {
	name string
	got  func([]byte) any
	want func([]byte) any
}{
	{"collector",
		func(b []byte) any { return ReadCollectorStats(b) },
		func(b []byte) any { return refReadCollectorStats(b) }},
	{"sender",
		func(b []byte) any { return ReadSenderStats(b) },
		func(b []byte) any {
			s := refReadSenderStats(b)
			if s != nil {
				dropCPUKeys("spilled_by_event.", s.SpilledByEvent)
				dropCPUKeys("lost_by_event.", s.LostByEvent)
			}
			return s
		}},
}

func checkReaders(t *testing.T, name string, i int, data []byte) {
	t.Helper()
	if got, want := statsReaders[i].got(data), statsReaders[i].want(data); !reflect.DeepEqual(got, want) {
		t.Errorf("%s %s: table reader %+v, reference %+v", statsReaders[i].name, name, got, want)
	}
}

// TestStatsRoundTrip is the differential test of the fleet's stats
// records. Property: on random values the table writers emit the
// reference writers' bytes and the table readers decode those bytes as
// the references did and back to the values written. Sender maps come
// out of the real unhold, so they hold no zero entries.
func TestStatsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cs, ss := randCollectorStats(r), randSenderStats(r)
		for _, m := range []map[string]uint64{ss.SpilledByEvent, ss.LostByEvent} {
			for ev, n := range m {
				if n == 0 {
					t.Errorf("seed %d: unhold left a zero entry for %s", seed, ev)
				}
			}
		}
		for i, c := range []struct {
			got, want []byte
			wrote     any
		}{
			{oprofile.AppendStats(nil, cs.table()), refCollectorStatsPayload(cs), cs},
			{oprofile.AppendStats(nil, ss.table()), refSenderStatsPayload(ss), ss},
		} {
			if !bytes.Equal(c.got, c.want) {
				t.Errorf("seed %d %s: writer output differs:\n got %q\nwant %q", seed, statsReaders[i].name, c.got, c.want)
			}
			checkReaders(t, fmt.Sprintf("seed %d", seed), i, record.Frame(c.want))
			if got := statsReaders[i].got(record.Frame(c.got)); !reflect.DeepEqual(got, c.wrote) {
				t.Errorf("seed %d %s: round trip %+v, wrote %+v", seed, statsReaders[i].name, got, c.wrote)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStatsRoundTripFixed pins the fleet readers against the references
// on malformed and multi-record inputs, and pins their record
// selection: the last intact record wins.
func TestStatsRoundTripFixed(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	payloads := [][2][]byte{
		{oprofile.AppendStats(nil, randCollectorStats(r).table()), oprofile.AppendStats(nil, randCollectorStats(r).table())},
		{oprofile.AppendStats(nil, randSenderStats(r).table()), oprofile.AppendStats(nil, randSenderStats(r).table())},
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for i, pq := range payloads {
		p, q := pq[0], pq[1]
		fq := record.Frame(q)
		cases := map[string][]byte{
			"intact":       record.Frame(p),
			"empty file":   nil,
			"garbage":      []byte("garbage"),
			"no equals":    record.Frame(cat(p, []byte("garbage\n"))),
			"non-numeric":  record.Frame(cat(p, []byte("clean=yes\n"))),
			"signed":       record.Frame(cat(p, []byte("clean=-1\n"))),
			"crlf":         record.Frame(bytes.ReplaceAll(p, []byte("\n"), []byte("\r\n"))),
			"blank lines":  record.Frame(cat([]byte("\n"), bytes.ReplaceAll(p, []byte("\n"), []byte("\n\n")))),
			"unknown keys": record.Frame(cat([]byte("bogus=7\n"), p, []byte("zzz=1\n"))),
			"cpu keys":     record.Frame(cat(p, []byte("spilled_by_event.cpu0=4\nlost_by_event.cpu1=2\n"))),
			"torn tail":    cat(record.Frame(p), fq[:len(fq)-3]),
			"two intact":   cat(record.Frame(p), fq),
		}
		rd := statsReaders[i]
		for name, data := range cases {
			checkReaders(t, name, i, data)
		}
		for _, name := range []string{"empty file", "garbage", "no equals", "non-numeric", "signed", "crlf"} {
			if got := reflect.ValueOf(rd.got(cases[name])); !got.IsNil() {
				t.Errorf("%s %s: decoded %+v, want nil", rd.name, name, got)
			}
		}
		for name, want := range map[string]any{
			"torn tail":  rd.got(cases["intact"]),
			"two intact": rd.got(fq),
			"cpu keys":   rd.got(cases["intact"]),
		} {
			if got := rd.got(cases[name]); reflect.ValueOf(got).IsNil() || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: decoded %+v, want %+v", rd.name, name, got, want)
			}
		}
	}
}
