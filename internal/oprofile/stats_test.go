package oprofile

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

	"viprof/internal/record"
)

// The daemon, recovery and retention stats records each had their own
// fmt.Fprintf writer and switch-statement reader before the table codec
// in stats.go. Those six functions survive below as references: the
// table writers must emit their bytes exactly (SysWrite bills simulated
// copy cycles per payload byte), and the table readers must decode
// those bytes as they did. The readers differ from the references in
// ways this file asserts explicitly: a <name>.cpu<N> key no longer
// lands in a family, PersistedStats has no PerCPU map, and the daemon
// reader takes the last intact record (ReadStats) where its reference
// trusted only a file holding exactly one intact record and nothing
// lost.

// lastRecord reframes data's last intact record, nil if none survives:
// the record ReadStats selects. Handing it to the daemon's reference
// applies the one record-selection rule to the reference's decoding.
func lastRecord(data []byte) []byte {
	recs, _ := record.Scan(data)
	if len(recs) == 0 {
		return nil
	}
	return record.Frame(recs[len(recs)-1])
}

// refPersistedStats is what the reference daemon reader returned:
// PersistedStats plus the PerCPU map it parsed and nothing read.
type refPersistedStats struct {
	PersistedStats
	PerCPU map[string]map[int]uint64
}

// refDaemonStatsPayload is the daemon's reference writer, taking as
// arguments the values it read off the daemon. cpus is nil on a
// single-core machine, which writes no per-CPU lines.
func refDaemonStatsPayload(ps *PersistedStats, cpus []PersistedStats) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "nmis=%d\nlogged=%d\ndropped=%d\n", ps.NMIs, ps.Logged, ps.Dropped)
	fmt.Fprintf(&buf, "samples_logged=%d\nflushes=%d\nflush_errors=%d\nspilled=%d\nunflushed=%d\n",
		ps.SamplesLogged, ps.Flushes, ps.FlushErrors, ps.Spilled, ps.Unflushed)
	fmt.Fprintf(&buf, "spilled_on_disk=%d\nspilled_lost=%d\nspill_batches=%d\nspill_errors=%d\njournal_errors=%d\n",
		ps.SpilledOnDisk, ps.SpilledLost, ps.SpillBatches, ps.SpillErrors, ps.JournalErrors)
	events := make([]string, 0, len(ps.SpilledLostByEvent))
	for ev := range ps.SpilledLostByEvent {
		events = append(events, ev)
	}
	sort.Strings(events)
	for _, ev := range events {
		fmt.Fprintf(&buf, "spilled_lost.%s=%d\n", ev, ps.SpilledLostByEvent[ev])
	}
	for ci, cs := range cpus {
		fmt.Fprintf(&buf, "nmis.cpu%d=%d\nlogged.cpu%d=%d\ndropped.cpu%d=%d\n",
			ci, cs.NMIs, ci, cs.Logged, ci, cs.Dropped)
		fmt.Fprintf(&buf, "samples_logged.cpu%d=%d\n", ci, cs.SamplesLogged)
		if cs.SpilledLost > 0 {
			fmt.Fprintf(&buf, "spilled_lost.cpu%d=%d\n", ci, cs.SpilledLost)
		}
	}
	fmt.Fprintf(&buf, "clean=1\n")
	return buf.Bytes()
}

// refReadDaemonStats is the daemon's reference reader.
func refReadDaemonStats(data []byte) *refPersistedStats {
	recs, sal := record.Scan(data)
	if sal.Lossy() || len(recs) != 1 {
		return nil
	}
	ps := &refPersistedStats{PersistedStats: PersistedStats{SpilledLostByEvent: make(map[string]uint64)}}
	for _, line := range strings.Split(string(recs[0]), "\n") {
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
		if ev, found := strings.CutPrefix(k, "spilled_lost."); found {
			ps.SpilledLostByEvent[ev] = n
			continue
		}
		if base, rest, found := strings.Cut(k, ".cpu"); found && base != "" {
			if ci, cerr := strconv.Atoi(rest); cerr == nil {
				if ps.PerCPU == nil {
					ps.PerCPU = make(map[string]map[int]uint64)
				}
				if ps.PerCPU[base] == nil {
					ps.PerCPU[base] = make(map[int]uint64)
				}
				ps.PerCPU[base][ci] = n
				continue
			}
		}
		switch k {
		case "nmis":
			ps.NMIs = n
		case "logged":
			ps.Logged = n
		case "dropped":
			ps.Dropped = n
		case "samples_logged":
			ps.SamplesLogged = n
		case "flushes":
			ps.Flushes = n
		case "flush_errors":
			ps.FlushErrors = n
		case "spilled":
			ps.Spilled = n
		case "spilled_on_disk":
			ps.SpilledOnDisk = n
		case "spilled_lost":
			ps.SpilledLost = n
		case "spill_batches":
			ps.SpillBatches = n
		case "spill_errors":
			ps.SpillErrors = n
		case "journal_errors":
			ps.JournalErrors = n
		case "unflushed":
			ps.Unflushed = n
		case "clean":
			ps.Clean = n != 0
		}
	}
	return ps
}

// refRecoveryPayload is RecoveryStats' reference writer. It wrote
// clean=1 whatever rs.Clean held; RunRecovery sets Clean before every
// write.
func refRecoveryPayload(rs *RecoveryStats) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "adopted=%d\ndiscarded=%d\nquarantined=%d\nfailed=%d\n",
		rs.Adopted, rs.Discarded, rs.Quarantined, rs.Failed)
	fmt.Fprintf(&buf, "spill_frames_merged=%d\nspill_frames_discarded=%d\nspill_recovered_total=%d\nspill_merge_errors=%d\n",
		rs.SpillFramesMerged, rs.SpillFramesDiscarded, rs.SpillRecoveredTotal, rs.SpillMergeErrors)
	fmt.Fprintf(&buf, "journals_damaged=%d\nmarker_errors=%d\nrestarts=%d\n",
		rs.JournalsDamaged, rs.MarkerErrors, rs.Restarts)
	events := make([]string, 0, len(rs.SpillRecovered))
	for ev := range rs.SpillRecovered {
		events = append(events, ev)
	}
	sort.Strings(events)
	for _, ev := range events {
		fmt.Fprintf(&buf, "spill_recovered.%s=%d\n", ev, rs.SpillRecovered[ev])
	}
	fmt.Fprintf(&buf, "clean=1\n")
	return buf.Bytes()
}

// refReadRecoveryStats is RecoveryStats' reference reader.
func refReadRecoveryStats(data []byte) *RecoveryStats {
	recs, _ := record.Scan(data)
	if len(recs) == 0 {
		return nil
	}
	rs := &RecoveryStats{SpillRecovered: make(map[string]uint64)}
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
		if ev, found := strings.CutPrefix(k, "spill_recovered."); found {
			rs.SpillRecovered[ev] = n
			continue
		}
		switch k {
		case "adopted":
			rs.Adopted = int(n)
		case "discarded":
			rs.Discarded = int(n)
		case "quarantined":
			rs.Quarantined = int(n)
		case "failed":
			rs.Failed = int(n)
		case "spill_frames_merged":
			rs.SpillFramesMerged = int(n)
		case "spill_frames_discarded":
			rs.SpillFramesDiscarded = int(n)
		case "spill_recovered_total":
			rs.SpillRecoveredTotal = n
		case "spill_merge_errors":
			rs.SpillMergeErrors = int(n)
		case "journals_damaged":
			rs.JournalsDamaged = int(n)
		case "marker_errors":
			rs.MarkerErrors = int(n)
		case "restarts":
			rs.Restarts = int(n)
		case "clean":
			rs.Clean = n != 0
		}
	}
	return rs
}

// refRetentionPayload is RetentionStats' reference writer.
func refRetentionPayload(rs *RetentionStats) []byte {
	boolInt := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
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

// refReadRetentionStats is RetentionStats' reference reader.
func refReadRetentionStats(data []byte) *RetentionStats {
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

// cpuKey is the <name>.cpu<N> shape no family may claim, spelled
// independently of isCPUKey.
var cpuKey = regexp.MustCompile(`\.cpu[0-9]+$`)

// dropCPUKeys deletes the family entries whose full key (prefix+name)
// has the <name>.cpu<N> shape: the entries the reference readers filed
// into a family and the table readers ignore.
func dropCPUKeys[V uint64 | int](prefix string, m map[string]V) {
	for name := range m {
		if cpuKey.MatchString(prefix + name) {
			delete(m, name)
		}
	}
}

// statsRand draws the field values the differential tests write.
type statsRand struct{ *rand.Rand }

func (r statsRand) u64() uint64 {
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

func (r statsRand) int() int   { return int(r.u64() >> 1) }
func (r statsRand) bool() bool { return r.Intn(2) == 0 }

// name draws a family member name from alphabet.
func (r statsRand) name(alphabet string) string {
	b := make([]byte, 1+r.Intn(16))
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(b)
}

// Event mnemonics, and survivor paths with '/', '.' and digits.
const (
	eventAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789"
	pathAlphabet  = "abcpuqr/._-0123456789"
)

// events draws a per-event family, zero-valued entries included: the
// daemon and recovery writers write those, unlike the fleet sender.
func (r statsRand) events() map[string]uint64 {
	m := make(map[string]uint64)
	for i := r.Intn(6); i > 0; i-- {
		m[r.name(eventAlphabet)] = r.u64()
	}
	return m
}

func randPersistedStats(r statsRand) (*PersistedStats, []PersistedStats) {
	ps := &PersistedStats{
		NMIs: r.u64(), Logged: r.u64(), Dropped: r.u64(),
		SamplesLogged: r.u64(), Flushes: r.u64(), FlushErrors: r.u64(), Spilled: r.u64(),
		Unflushed: r.u64(), SpilledOnDisk: r.u64(), SpilledLost: r.u64(),
		SpilledLostByEvent: r.events(),
		SpillBatches:       r.u64(), SpillErrors: r.u64(), JournalErrors: r.u64(),
		Clean: true, // writeStats always sets it; the reference hard-coded clean=1
	}
	var cpus []PersistedStats
	if r.bool() {
		cpus = make([]PersistedStats, 2+r.Intn(7))
		for ci := range cpus {
			cpus[ci] = PersistedStats{NMIs: r.u64(), Logged: r.u64(), Dropped: r.u64(), SamplesLogged: r.u64(), SpilledLost: r.u64()}
		}
	}
	return ps, cpus
}

func randRecoveryStats(r statsRand) *RecoveryStats {
	return &RecoveryStats{
		Adopted: r.int(), Discarded: r.int(), Quarantined: r.int(), Failed: r.int(),
		SpillFramesMerged: r.int(), SpillFramesDiscarded: r.int(),
		SpillRecovered: r.events(), SpillRecoveredTotal: r.u64(),
		SpillMergeErrors: r.int(), JournalsDamaged: r.int(), MarkerErrors: r.int(), Restarts: r.int(),
		Clean: true, // RunRecovery always sets it; the reference hard-coded clean=1
	}
}

func randRetentionStats(r statsRand) *RetentionStats {
	rs := &RetentionStats{
		Scanned: r.int(), Kept: r.int(), Pruned: r.int(),
		KeptBytes: r.u64(), PrunedBytes: r.u64(),
		AgePruned: r.int(), CountPruned: r.int(), SizePruned: r.int(),
		PriorDamaged: r.bool(), StatsErrors: r.int(),
		Survivors: make(map[string]int),
		Clean:     r.bool(),
	}
	for i := r.Intn(6); i > 0; i-- {
		// Ledger paths end in core.QuarantineSuffix.
		rs.Survivors["var/lib/viprof/"+r.name(pathAlphabet)+".quarantined"] = r.int()
	}
	return rs
}

// readerPair runs a table reader and its reference on the same bytes;
// want applies the documented differences to the reference's result.
type readerPair struct {
	name string
	got  func([]byte) any
	want func([]byte) any
}

var statsReaders = []readerPair{
	{"daemon",
		func(b []byte) any { return ReadDaemonStats(b) },
		func(b []byte) any {
			ref := refReadDaemonStats(lastRecord(b)) // difference: the last intact record wins
			if ref == nil {
				return (*PersistedStats)(nil)
			}
			ps := ref.PersistedStats // difference: PerCPU is gone
			dropCPUKeys("spilled_lost.", ps.SpilledLostByEvent)
			return &ps
		}},
	{"recovery",
		func(b []byte) any { return ReadRecoveryStats(b) },
		func(b []byte) any {
			rs := refReadRecoveryStats(b)
			if rs != nil {
				dropCPUKeys("spill_recovered.", rs.SpillRecovered)
			}
			return rs
		}},
	{"retention",
		func(b []byte) any { return ReadRetentionStats(b) },
		func(b []byte) any {
			rs := refReadRetentionStats(b)
			if rs != nil {
				dropCPUKeys("survivor.", rs.Survivors)
			}
			return rs
		}},
}

func checkReaders(t *testing.T, name string, pair readerPair, data []byte) {
	t.Helper()
	if got, want := pair.got(data), pair.want(data); !reflect.DeepEqual(got, want) {
		t.Errorf("%s %s: table reader %+v, reference %+v", pair.name, name, got, want)
	}
}

// Property: on random field values the table writers emit the
// reference writers' bytes, and the table readers decode those bytes as
// the reference readers do, up to the documented differences.
func TestStatsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := statsRand{rand.New(rand.NewSource(seed))}
		ps, cpus := randPersistedStats(r)
		rec, ret := randRecoveryStats(r), randRetentionStats(r)
		for i, c := range []struct{ got, want []byte }{
			{ps.payload(cpus), refDaemonStatsPayload(ps, cpus)},
			{rec.Payload(), refRecoveryPayload(rec)},
			{ret.Payload(), refRetentionPayload(ret)},
		} {
			if !bytes.Equal(c.got, c.want) {
				t.Errorf("seed %d %s: writer output differs:\n got %q\nwant %q", seed, statsReaders[i].name, c.got, c.want)
			}
			checkReaders(t, fmt.Sprintf("seed %d", seed), statsReaders[i], record.Frame(c.want))
		}
		// The round trip is exact apart from the write-only per-CPU
		// lines, which the daemon reader ignores.
		if got := ReadDaemonStats(record.Frame(ps.payload(cpus))); !reflect.DeepEqual(got, ps) {
			t.Errorf("seed %d: daemon round trip %+v, wrote %+v", seed, got, ps)
		}
		if got := ReadRecoveryStats(record.Frame(rec.Payload())); !reflect.DeepEqual(got, rec) {
			t.Errorf("seed %d: recovery round trip %+v, wrote %+v", seed, got, rec)
		}
		if got := ReadRetentionStats(record.Frame(ret.Payload())); !reflect.DeepEqual(got, ret) {
			t.Errorf("seed %d: retention round trip %+v, wrote %+v", seed, got, ret)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// statsEdgeCases derives the fixed reader inputs from two valid
// payloads p and q.
func statsEdgeCases(p, q []byte) map[string][]byte {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	fq := record.Frame(q)
	return map[string][]byte{
		"intact":       record.Frame(p),
		"empty file":   nil,
		"no equals":    record.Frame(cat(p, []byte("garbage\n"))),
		"non-numeric":  record.Frame(cat(p, []byte("clean=yes\n"))),
		"signed":       record.Frame(cat(p, []byte("clean=+1\n"))),
		"crlf":         record.Frame(bytes.ReplaceAll(p, []byte("\n"), []byte("\r\n"))),
		"blank lines":  record.Frame(cat([]byte("\n"), bytes.ReplaceAll(p, []byte("\n"), []byte("\n\n")))),
		"unknown keys": record.Frame(cat([]byte("bogus=7\nnmis.cpux=3\n"), p, []byte("zzz=1\n"))),
		"torn tail":    cat(record.Frame(p), fq[:len(fq)-3]),
		"two intact":   cat(record.Frame(p), fq),
	}
}

// TestStatsRoundTripFixed pins the table readers against the references
// on malformed and multi-record inputs, and pins the one record
// selection every reader shares: the last intact record wins. The
// daemon's reference read the two multi-record cases as nil.
func TestStatsRoundTripFixed(t *testing.T) {
	r := statsRand{rand.New(rand.NewSource(7))}
	ps, cpus := randPersistedStats(r)
	ps2, _ := randPersistedStats(r)
	rec, rec2 := randRecoveryStats(r), randRecoveryStats(r)
	ret, ret2 := randRetentionStats(r), randRetentionStats(r)
	payloads := [][2][]byte{
		{ps.payload(cpus), ps2.payload(nil)},
		{rec.Payload(), rec2.Payload()},
		{ret.Payload(), ret2.Payload()},
	}
	for i, pair := range statsReaders {
		cases := statsEdgeCases(payloads[i][0], payloads[i][1])
		for name, data := range cases {
			checkReaders(t, name, pair, data)
		}
		first, second := pair.got(cases["intact"]), pair.got(record.Frame(payloads[i][1]))
		for name, want := range map[string]any{
			"torn tail":  first,
			"two intact": second,
		} {
			if got := pair.got(cases[name]); reflect.ValueOf(got).IsNil() || !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: selected %+v, want %+v", pair.name, name, got, want)
			}
			if pair.name != "daemon" {
				continue
			}
			if ref := refReadDaemonStats(cases[name]); ref != nil {
				t.Errorf("daemon %s: reference decoded %+v, want nil", name, ref)
			}
		}
		for _, name := range []string{"empty file", "no equals", "non-numeric", "signed", "crlf"} {
			if got := reflect.ValueOf(pair.got(cases[name])); !got.IsNil() {
				t.Errorf("%s %s: decoded %+v, want nil", pair.name, name, got)
			}
		}
	}
}

// TestDecodeStatsCPUKeys pins the bug the table codec fixes: the SMP
// daemon's spilled_lost.cpu<N> lines used to land in SpilledLostByEvent
// as fake events named cpu<N>, doubling the reported hard-cap loss.
func TestDecodeStatsCPUKeys(t *testing.T) {
	ps := &PersistedStats{SpilledLost: 3, SpilledLostByEvent: map[string]uint64{"GLOBAL_POWER_EVENTS": 3}, Clean: true}
	cpus := []PersistedStats{{NMIs: 5}, {NMIs: 9, SpilledLost: 3}}
	data := record.Frame(ps.payload(cpus))
	if !bytes.Contains(data, []byte("\nspilled_lost.cpu1=3\nclean=1\n")) {
		t.Fatalf("payload lacks the per-CPU loss line before clean:\n%s", data)
	}
	if ref := refReadDaemonStats(data); ref.SpilledLostByEvent["cpu1"] != 3 || ref.PerCPU["nmis"][1] != 9 {
		t.Fatalf("reference reader no longer shows the bug: %+v", ref)
	}
	got := ReadDaemonStats(data)
	if !reflect.DeepEqual(got, ps) {
		t.Fatalf("decoded %+v, want %+v", got, ps)
	}
	var lost uint64
	for _, n := range got.SpilledLostByEvent {
		lost += n
	}
	if lost != got.SpilledLost {
		t.Errorf("per-event loss sums to %d, SpilledLost is %d", lost, got.SpilledLost)
	}

	// The rule is the codec's, not the daemon's: no family claims a
	// <name>.cpu<N> key, while near misses still land.
	fam := map[string]uint64{}
	var n uint64
	tab := []Stat{{Key: "n", Ptr: &n}, {Key: "f.", Ptr: &fam}}
	in := "n=1\nf.a=2\nf.cpu3=4\nf.x.cpu12=5\nf.cpu=6\nf.cpux=7\nf.cpu3a=8\nn.cpu0=9\n"
	if !DecodeStats([]byte(in), tab) {
		t.Fatal("DecodeStats rejected a valid payload")
	}
	want := map[string]uint64{"a": 2, "cpu": 6, "cpux": 7, "cpu3a": 8}
	if n != 1 || !reflect.DeepEqual(fam, want) {
		t.Errorf("decoded n=%d family %v, want n=1 family %v", n, fam, want)
	}
}

// TestAppendStatsRejectsUnknownField pins that a table entry of an
// unsupported type fails loudly instead of writing nothing.
func TestAppendStatsRejectsUnknownField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AppendStats accepted a *string field")
		}
	}()
	s := "x"
	AppendStats(nil, []Stat{{Key: "s", Ptr: &s}})
}
