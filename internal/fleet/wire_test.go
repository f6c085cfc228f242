package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
	"viprof/internal/core"
	"viprof/internal/hpc"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

// The encoders Record.Encode replaced, kept verbatim as its references
// (renamed, and with the kind names spelled out): one encoder per kind,
// the key order and the io.Writer-based sample-line and map-file
// writers they called (sortedKeys, oprofile.WriteCounts and
// core.WriteMapFile, now oprofile.AppendCounts and core.AppendMapFile),
// and the compaction pass's encodeRec.

// The kind names the old encoders wrote, spelled out: the Kind
// constants were these strings.
const (
	refKindDelta   = "delta"
	refKindAck     = "ack"
	refKindMap     = "map"
	refKindRestart = "restart"
)

// refWriteCounts is oprofile.WriteCounts.
func refWriteCounts(w io.Writer, counts map[oprofile.Key]uint64, order []oprofile.Key) error {
	bw := bufio.NewWriter(w)
	for _, k := range order {
		c := counts[k]
		if c == 0 {
			continue
		}
		jit := 0
		if k.JIT {
			jit = 1
		}
		if _, err := fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s\n",
			k.Event, jit, k.Epoch, uint64(k.Off), c, k.CPU, k.Proc, k.Image); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// refWriteMapFile is core.WriteMapFile.
func refWriteMapFile(w io.Writer, entries []core.MapEntry) error {
	for _, e := range entries {
		line := fmt.Sprintf("%08x %d %d %s %s\n",
			uint64(e.Start), e.Size, e.Epoch, e.Level, e.Sig)
		if _, err := w.Write(record.Frame([]byte(line))); err != nil {
			return err
		}
	}
	trailer := fmt.Sprintf("#end %d\n", len(entries))
	_, err := w.Write(record.Frame([]byte(trailer)))
	return err
}

// refSortedKeys is sortedKeys with its comparator written inline.
func refSortedKeys(counts map[oprofile.Key]uint64) []oprofile.Key {
	order := make([]oprofile.Key, 0, len(counts))
	for k := range counts {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Image != b.Image {
			return a.Image < b.Image
		}
		if a.JIT != b.JIT {
			return !a.JIT
		}
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.Off != b.Off {
			return a.Off < b.Off
		}
		return a.CPU < b.CPU
	})
	return order
}

// refDeltaFrame builds the framed wire record for one sample delta.
func refDeltaFrame(host int, seq, at uint64, counts map[oprofile.Key]uint64) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "#%s host=%d seq=%d at=%d\n", refKindDelta, host, seq, at)
	if err := refWriteCounts(&buf, counts, refSortedKeys(counts)); err != nil {
		return nil, err
	}
	return record.Frame(buf.Bytes()), nil
}

// refMapFrame builds the framed wire record replicating one epoch code
// map.
func refMapFrame(host int, seq uint64, epoch int, at uint64, entries []core.MapEntry) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "#%s host=%d seq=%d epoch=%d at=%d\n", refKindMap, host, seq, epoch, at)
	if err := refWriteMapFile(&buf, entries); err != nil {
		return nil, err
	}
	return record.Frame(buf.Bytes()), nil
}

// refAckFrame builds the framed wire record acknowledging (host, seq).
func refAckFrame(host int, seq uint64) []byte {
	return record.Frame([]byte(fmt.Sprintf("#%s host=%d seq=%d\n", refKindAck, host, seq)))
}

// refRestartJournalFrame builds the framed restart marker.
func refRestartJournalFrame(shard, attempt int) []byte {
	return record.Frame([]byte(fmt.Sprintf("#%s shard=%d attempt=%d\n", refKindRestart, shard, attempt)))
}

// refEncodeRec re-frames one applied record, as the compaction pass
// did (records kept their counts in a map then: the run is folded into
// one).
func refEncodeRec(rec *Record) ([]byte, error) {
	if rec.Kind == KindMap {
		return refMapFrame(rec.Host, rec.Seq, rec.Epoch, rec.At, rec.Entries)
	}
	return refDeltaFrame(rec.Host, rec.Seq, rec.At, countsOf(rec.Counts))
}

// refEncode dispatches a record to its reference encoder.
func refEncode(rec *Record) ([]byte, error) {
	switch rec.Kind {
	case KindAck:
		return refAckFrame(rec.Host, rec.Seq), nil
	case KindRestart:
		return refRestartJournalFrame(rec.Shard, rec.Attempt), nil
	}
	return refEncodeRec(rec)
}

// randName draws a proc, image, tier or signature name, now and then
// with the characters the formats are sensitive to.
func randName(rng *rand.Rand) string {
	const alpha = "abcdefgjkvmxyzLF;()[/._0123456789"
	const special = " ,\t#="
	var b []byte
	for n := rng.Intn(14); n > 0; n-- {
		if rng.Intn(8) == 0 {
			b = append(b, special[rng.Intn(len(special))])
		} else {
			b = append(b, alpha[rng.Intn(len(alpha))])
		}
	}
	return string(b)
}

// randUint draws a uint64 spread over every magnitude.
func randUint(rng *rand.Rand) uint64 { return rng.Uint64() >> uint(rng.Intn(64)) }

// randRecord draws a record of any kind with every field the kind
// encodes filled at random, the others left as a decoder would.
func randRecord(rng *rand.Rand) *Record {
	rec := &Record{Kind: Kind(1 + rng.Intn(4)), Host: rng.Intn(1 << 20), Seq: randUint(rng), At: randUint(rng)}
	switch rec.Kind {
	case KindDelta:
		// Small name, offset and epoch pools make keys that tie on
		// every field but one, so the key order is exercised field by
		// field. The pairs are drawn in no order and may repeat a key:
		// sortRun makes them a run.
		procs := []string{randName(rng), "host01"}
		images := []string{randName(rng), "libfleet.so", oprofile.JITImageName}
		for n := rng.Intn(16); n > 0; n-- {
			k := oprofile.Key{
				Event: hpc.Event(rng.Intn(2)),
				Image: images[rng.Intn(len(images))],
				Proc:  procs[rng.Intn(len(procs))],
				CPU:   rng.Intn(4),
				Off:   addr.Address(rng.Intn(3)),
			}
			if rng.Intn(2) == 0 {
				k.Event, k.Off = hpc.Event(rng.Intn(hpc.NumEvents)), addr.Address(randUint(rng))
			}
			if rng.Intn(3) == 0 {
				k.Image, k.JIT, k.Epoch = oprofile.JITImageName, true, rng.Intn(3)
			}
			c := randUint(rng)
			if rng.Intn(10) == 0 {
				c = 0
			}
			rec.Counts = append(rec.Counts, oprofile.KeyCount{Key: k, Count: c})
		}
		rec.Counts = sortRun(rec.Counts)
	case KindMap:
		rec.Epoch = rng.Intn(1 << 16)
		for n := rng.Intn(20); n > 0; n-- {
			rec.Entries = append(rec.Entries, core.MapEntry{
				Start: addr.Address(randUint(rng)), Size: uint32(randUint(rng)),
				Epoch: rng.Intn(1<<16) - 8, Level: randName(rng), Sig: randName(rng),
			})
		}
	case KindAck:
		rec.At = 0
	case KindRestart:
		rec.Host, rec.Seq, rec.At = 0, 0, 0
		rec.Shard, rec.Attempt = rng.Intn(maxShardSlots), rng.Intn(1<<20)
	}
	return rec
}

// TestEncodeMatchesReferenceQuick holds Record.Encode to the encoders
// it replaced, byte for byte, on random delta, map, ack and restart
// records; a delta's run is drawn unordered and made a run by sortRun,
// so the key order under test is sortRun's. `-args -quickchecks=N`
// widens it.
func TestEncodeMatchesReferenceQuick(t *testing.T) {
	kinds := make(map[Kind]int)
	f := func(seed int64) bool {
		rec := randRecord(rand.New(rand.NewSource(seed)))
		kinds[rec.Kind]++
		want, err := refEncode(rec)
		if err != nil {
			t.Logf("seed %d: reference: %v", seed, err)
			return false
		}
		if got := rec.Encode(); !bytes.Equal(got, want) {
			t.Logf("seed %d: %s record encodes as\n%q\nreference\n%q", seed, rec.Kind, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if len(kinds) != 4 {
		t.Errorf("drew kinds %v, want all four", kinds)
	}
}

// randStored draws a delta, map or restart record as a writer makes
// them, so that it decodes: randRecord's fields with seq and map epoch
// at least 1, no tab in a proc name, and map tiers and signatures that
// are non-empty runs of non-space bytes.
func randStored(rng *rand.Rand) *Record {
	rec := randRecord(rng)
	for rec.Kind == KindAck {
		rec = randRecord(rng)
	}
	word := func(s string) string {
		return "w" + strings.NewReplacer(" ", "_", "\t", "_").Replace(s)
	}
	switch rec.Kind {
	case KindDelta:
		rec.Seq |= 1
		for i := range rec.Counts {
			k := &rec.Counts[i].Key
			k.Proc = strings.ReplaceAll(k.Proc, "\t", "_")
		}
		rec.Counts = sortRun(rec.Counts)
	case KindMap:
		rec.Seq |= 1
		rec.Epoch++
		for i := range rec.Entries {
			rec.Entries[i].Level = word(rec.Entries[i].Level)
			rec.Entries[i].Sig = word(rec.Entries[i].Sig)
		}
	}
	return rec
}

// TestEncodeIsCanonicalQuick: a record decoded from an encoded frame
// encodes back to the same frame, for random delta, map and restart
// records. A compaction pass copies stored frames instead of
// re-encoding their records, and writes the same bytes only because of
// this. `-args -quickchecks=N` widens it.
func TestEncodeIsCanonicalQuick(t *testing.T) {
	kinds := make(map[Kind]int)
	f := func(seed int64) bool {
		frame := randStored(rand.New(rand.NewSource(seed))).Encode()
		recs, sal := record.Scan(frame)
		if len(recs) != 1 || sal.Lossy() {
			t.Logf("seed %d: %d records, salvage %+v", seed, len(recs), sal)
			return false
		}
		rec, err := DecodePayload(recs[0])
		if err != nil {
			t.Logf("seed %d: decode: %v", seed, err)
			return false
		}
		kinds[rec.Kind]++
		if got := rec.Encode(); !bytes.Equal(got, frame) {
			t.Logf("seed %d: %s record re-encodes as\n%q\nstored\n%q", seed, rec.Kind, got, frame)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if len(kinds) != 3 {
		t.Errorf("drew kinds %v, want delta, map and restart", kinds)
	}
}

// refParseHeader is parseHeader as it was before it walked the header
// in place (bytes.Fields, a fresh record per call), kept verbatim as
// its reference.
func refParseHeader(payload []byte) (*Record, error) {
	header, _, _ := bytes.Cut(payload, []byte("\n"))
	fields := bytes.Fields(header)
	if len(fields) == 0 || fields[0][0] != '#' {
		return nil, fmt.Errorf("fleet: wire payload has no #header")
	}
	name := fields[0][1:]
	msg := &Record{}
	for k, n := range kindNames {
		if n == string(name) {
			msg.Kind = Kind(k) // a bare "#" matches slot 0: no kind
		}
	}
	for _, f := range fields[1:] {
		k, v, ok := bytes.Cut(f, []byte("="))
		if !ok {
			return nil, fmt.Errorf("fleet: malformed wire header field %q", f)
		}
		n, err := strconv.ParseUint(string(v), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: wire header %s: %v", k, err)
		}
		switch string(k) {
		case "host":
			msg.Host = int(n)
		case "seq":
			msg.Seq = n
		case "at":
			msg.At = n
		case "epoch":
			msg.Epoch = int(n)
		case "attempt":
			msg.Attempt = int(n)
		case "shard":
			msg.Shard = int(n)
		}
	}
	switch msg.Kind {
	case KindDelta, KindMap, KindAck:
		if msg.Seq == 0 {
			return nil, fmt.Errorf("fleet: %s with seq 0", msg.Kind)
		}
		if msg.Kind == KindMap && msg.Epoch <= 0 {
			return nil, fmt.Errorf("fleet: map with epoch %d", msg.Epoch)
		}
	case KindRestart:
	default:
		return nil, fmt.Errorf("fleet: unknown wire kind %q", name)
	}
	return msg, nil
}

// refDecodePayload is DecodePayload as it was while a record kept its
// counts in a map, kept verbatim as the reference for the run decoder
// (the counts come back beside the record, which has no map field
// now).
func refDecodePayload(payload []byte) (*Record, map[oprofile.Key]uint64, error) {
	msg, err := refParseHeader(payload)
	if err != nil {
		return nil, nil, err
	}
	counts, err := refDecodeBody(msg, payload)
	if err != nil {
		return nil, nil, err
	}
	return msg, counts, nil
}

// refDecodeBody is the map-building decodeBody.
func refDecodeBody(msg *Record, payload []byte) (map[oprofile.Key]uint64, error) {
	_, body, _ := bytes.Cut(payload, []byte("\n"))
	var counts map[oprofile.Key]uint64
	switch msg.Kind {
	case KindDelta:
		counts = make(map[oprofile.Key]uint64)
		if err := refParseCountsText(body, counts); err != nil {
			return nil, fmt.Errorf("fleet: delta body: %v", err)
		}
	case KindMap:
		entries, err := core.ReadMapFile(body)
		if err != nil {
			return nil, fmt.Errorf("fleet: map body: %v", err)
		}
		msg.Entries = entries
	}
	return counts, nil
}

// refParseCountsText is oprofile.ParseCountsText, the map reader over
// unframed lines: it reaches the same reader through one frame.
func refParseCountsText(data []byte, counts map[oprofile.Key]uint64) error {
	got, _, err := oprofile.ReadCountsSalvage(record.Frame(data))
	for k, c := range got {
		counts[k] += c
	}
	return err
}

// refSnapshot is the aggregate snapshot frame as Finalize wrote it
// while records kept maps: every applied record's counts folded into
// one map (the old Counts), its keys sorted (sortedKeys) and written
// by AppendCounts.
func refSnapshot(a *Aggregate) []byte {
	counts := make(map[oprofile.Key]uint64)
	for _, recs := range a.byHost {
		for _, rec := range recs {
			for _, kc := range rec.Counts {
				counts[kc.Key] += kc.Count
			}
		}
	}
	return record.Frame(oprofile.AppendCounts(nil, counts, refSortedKeys(counts)))
}

// randBody draws a delta body as any writer might lay one out: lines
// drawn from a small key pool in no order, so keys repeat and the
// lines are seldom in the wire's order, zero counts, CRLF line ends,
// blank lines, and in about one body in four a line that will not
// parse: an event out of range, too few fields or a bad number.
func randBody(rng *rand.Rand) []byte {
	name := func() string { return strings.ReplaceAll(randName(rng), "\t", " ") }
	pool := make([]oprofile.Key, 1+rng.Intn(5))
	for i := range pool {
		pool[i] = oprofile.Key{
			Event: hpc.Event(rng.Intn(2)), Image: []string{name(), "libfleet.so"}[rng.Intn(2)],
			Proc: []string{name(), "host01"}[rng.Intn(2)], CPU: rng.Intn(2), Off: addr.Address(rng.Intn(3)),
		}
		if rng.Intn(3) == 0 {
			pool[i].Image, pool[i].JIT, pool[i].Epoch = oprofile.JITImageName, true, rng.Intn(3)
		}
	}
	lines := make([]string, rng.Intn(10))
	for i := range lines {
		k := pool[rng.Intn(len(pool))]
		c := randUint(rng)
		if rng.Intn(5) == 0 {
			c = 0
		}
		jit := 0
		if k.JIT {
			jit = 1
		}
		lines[i] = fmt.Sprintf("%d\t%d\t%d\t%d\t%d\t%d\t%s\t%s", k.Event, jit, k.Epoch, uint64(k.Off), c, k.CPU, k.Proc, k.Image)
	}
	if len(lines) > 0 && rng.Intn(4) == 0 {
		lines[rng.Intn(len(lines))] = []string{
			"9\t0\t0\t1\t1\t0\tp\timg", "-1\t0\t0\t1\t1\t0\tp\timg", "0\t0\t0\t1",
			"0\t0\t0\tx\t1\t0\tp\timg", "0\t0\t0\t1\t18446744073709551616\t0\tp\timg",
		}[rng.Intn(5)]
	}
	var body []byte
	for i, line := range lines {
		if rng.Intn(6) == 0 {
			body = append(body, []string{"\n", "\r\n", "\n\n"}[rng.Intn(3)]...)
		}
		body = append(body, line...)
		if i < len(lines)-1 || rng.Intn(4) != 0 {
			body = append(body, []string{"\n", "\r\n"}[rng.Intn(2)]...)
		}
	}
	return body
}

// TestCountRunMatchesMapDecodeQuick holds the run decoder to the map
// decoder it replaced (refDecodePayload) over random delta bodies. Both
// accept or reject each body, with the same error text; an accepted
// run is in the wire's key order, each key once, and folds to the same
// counts, zero counts included. Zero-count keys then behave as the
// map's did: QueryWindow reports them, Encode skips them.
// `-args -quickchecks=N` widens it.
func TestCountRunMatchesMapDecodeQuick(t *testing.T) {
	var rejected, unordered, zeros int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		body := randBody(rng)
		payload := append([]byte("#delta host=3 seq=41 at=7500\n"), body...)
		want, wantCounts, wantErr := refDecodePayload(payload)
		got, err := DecodePayload(payload)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Logf("seed %d: error %v, reference %v\nbody %q", seed, err, wantErr, body)
			return false
		}
		if err != nil {
			rejected++
			return true
		}
		if got.Host != want.Host || got.Seq != want.Seq || got.At != want.At || got.Kind != want.Kind {
			t.Logf("seed %d: header %+v, reference %+v", seed, got, want)
			return false
		}
		if !isRun(got.Counts) || !sameCounts(countsOf(got.Counts), wantCounts) {
			t.Logf("seed %d: run %v, reference %v\nbody %q", seed, got.Counts, wantCounts, body)
			return false
		}
		parsed, _ := oprofile.ParseRun(nil, body)
		if !isRun(parsed) {
			unordered++
		}
		for _, c := range wantCounts {
			if c == 0 {
				zeros++
				break
			}
		}
		agg := NewAggregate()
		agg.Apply(got)
		if w := agg.QueryWindow(0, ^uint64(0)); !sameCounts(w, wantCounts) {
			t.Logf("seed %d: QueryWindow %v, reference %v", seed, w, wantCounts)
			return false
		}
		wantFrame, _ := refDeltaFrame(want.Host, want.Seq, want.At, wantCounts)
		if frame := got.Encode(); !bytes.Equal(frame, wantFrame) {
			t.Logf("seed %d: encodes as\n%q\nreference\n%q", seed, frame, wantFrame)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if rejected == 0 || unordered == 0 || zeros == 0 {
		t.Errorf("drew %d rejected bodies, %d out of order, %d with zero counts: want some of each", rejected, unordered, zeros)
	}
}

// TestSnapshotMatchesReferenceQuick holds Finalize's snapshot frame to
// the map fold, key sort and AppendCounts writer it replaced
// (refSnapshot), byte for byte, over random aggregates: deltas from a
// few hosts whose keys collide across records, zero counts, maps and
// absorbed duplicates. `-args -quickchecks=N` widens it.
func TestSnapshotMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		agg := NewAggregate()
		for n := rng.Intn(24); n > 0; n-- {
			rec := randRecord(rng)
			if rec.Kind != KindMap {
				rec.Kind, rec.Epoch = KindDelta, 0
			}
			rec.Host, rec.Seq = 1+rng.Intn(3), uint64(1+rng.Intn(8))
			agg.Apply(rec)
		}
		if got, want := agg.snapshot(), refSnapshot(agg); !bytes.Equal(got, want) {
			t.Logf("seed %d: snapshot\n%q\nreference\n%q", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecodePayloadAllocsPerRun pins what decoding a delta frame
// allocates: the record, its run (one slice, sized by the line count),
// the proc name once and each image once per change from the line
// before. A map per record, an intern map per call or a clone of the
// run would each add to it; the 20-key frame is there because a map of
// at most 8 entries that does not escape lives on the stack, where
// AllocsPerRun cannot see it.
func TestDecodePayloadAllocsPerRun(t *testing.T) {
	proc := SenderConfig{Host: 3}.ProcName()
	small := map[oprofile.Key]uint64{
		{Image: "fleet.app", Proc: proc, Off: 0x1000}:                                          2,
		{Image: "fleet.app", Proc: proc, Off: 0x1008}:                                          1,
		{Image: "libfleet.so", Proc: proc, Off: 0x1010}:                                        4,
		{Event: 1, Image: oprofile.JITImageName, Proc: proc, JIT: true, Epoch: 2, Off: 0x1040}: 3,
	}
	large := make(map[oprofile.Key]uint64)
	for i := 0; i < 20; i++ {
		large[oprofile.Key{Image: fmt.Sprintf("lib%02d.so", i/2), Proc: proc, Off: addr.Address(0x1000 + 8*i)}] = uint64(1 + i)
	}
	for _, c := range []struct {
		counts map[oprofile.Key]uint64
		// want is the record, the run, the proc and each image:
		// fleet.app, libfleet.so and JIT.App; lib00.so to lib09.so.
		want float64
	}{{small, 2 + 1 + 3}, {large, 2 + 1 + 10}} {
		rec := &Record{Kind: KindDelta, Host: 3, Seq: 41, At: 7500, Counts: runOf(c.counts)}
		recs, _ := record.Scan(rec.Encode())
		if len(recs) != 1 {
			t.Fatalf("frame holds %d records", len(recs))
		}
		var msg *Record
		n := testing.AllocsPerRun(100, func() {
			var err error
			if msg, err = DecodePayload(recs[0]); err != nil {
				t.Fatal(err)
			}
		})
		if !slices.Equal(msg.Counts, rec.Counts) {
			t.Fatalf("decoded %v, want %v", msg.Counts, rec.Counts)
		}
		if n != c.want {
			t.Errorf("DecodePayload allocates %v times per %d-key delta, want %v", n, len(c.counts), c.want)
		}
	}
}

// randHeader draws a header line from the pieces the parsers disagree
// on if either is wrong: every kind and some that are not, fields with
// and without '=', numbers that overflow or are not numbers, and
// separators mixing ASCII white space, Unicode white space, characters
// that look like it but are not, and invalid UTF-8.
func randHeader(rng *rand.Rand) []byte {
	seps := []string{" ", "\t", "\v", "\f", "\r", "\u0085", "\u00a0", "\u1680", "\u2000", "\u200a",
		"\u2028", "\u2029", "\u202f", "\u205f", "\u3000"}
	glue := []string{"\u200b", "\ufeff", "\u00e9", "\xff", "\xc2", "\xe2\x80", "x"}
	sep := func() string {
		var b strings.Builder
		for n := 1 + rng.Intn(3); n > 0; n-- {
			b.WriteString(seps[rng.Intn(len(seps))])
		}
		return b.String()
	}
	kinds := []string{"#delta", "#map", "#ack", "#restart", "#", "#bogus", "delta", "#Delta", "##delta"}
	names := []string{"host", "seq", "at", "epoch", "shard", "attempt", "junk", ""}
	values := []string{"0", "1", "7", "41", "18446744073709551615", "18446744073709551616", "-1", "+3", "x", "", "1x", "0x10"}
	var b strings.Builder
	if rng.Intn(4) == 0 {
		b.WriteString(sep())
	}
	b.WriteString(kinds[rng.Intn(len(kinds))])
	for n := rng.Intn(6); n > 0; n-- {
		b.WriteString(sep())
		field := names[rng.Intn(len(names))]
		if rng.Intn(10) != 0 {
			field += "=" + values[rng.Intn(len(values))]
		}
		if rng.Intn(8) == 0 {
			i := rng.Intn(len(field) + 1)
			field = field[:i] + glue[rng.Intn(len(glue))] + field[i:]
		}
		b.WriteString(field)
	}
	if rng.Intn(4) == 0 {
		b.WriteString(sep())
	}
	if rng.Intn(2) == 0 {
		b.WriteString("\n0\t0\t0\t1\t1\t0\tp\timg\n")
	}
	return []byte(b.String())
}

// TestParseHeaderMatchesReferenceQuick holds the in-place header walk
// to the bytes.Fields parser it replaced (refParseHeader): the same
// record or the same error text on random header lines. `-args
// -quickchecks=N` widens it.
func TestParseHeaderMatchesReferenceQuick(t *testing.T) {
	var ok, failed int
	f := func(seed int64) bool {
		payload := randHeader(rand.New(rand.NewSource(seed)))
		want, wantErr := refParseHeader(payload)
		var got Record
		err := got.parseHeader(payload)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Logf("seed %d: %q: error %v, reference %v", seed, payload, err, wantErr)
			return false
		}
		if err != nil {
			failed++
			return true
		}
		ok++
		if !reflect.DeepEqual(&got, want) {
			t.Logf("seed %d: %q: %+v, reference %+v", seed, payload, got, *want)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if ok == 0 || failed == 0 {
		t.Errorf("drew %d headers that parse and %d that fail: want some of each", ok, failed)
	}
}
