package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
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
// did.
func refEncodeRec(rec *Record) ([]byte, error) {
	if rec.Kind == KindMap {
		return refMapFrame(rec.Host, rec.Seq, rec.Epoch, rec.At, rec.Entries)
	}
	return refDeltaFrame(rec.Host, rec.Seq, rec.At, rec.Counts)
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
		// field.
		rec.Counts = make(map[oprofile.Key]uint64)
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
			rec.Counts[k] = c
		}
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
// records. `-args -quickchecks=N` widens it.
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
		counts := make(map[oprofile.Key]uint64, len(rec.Counts))
		for k, c := range rec.Counts {
			k.Proc = strings.ReplaceAll(k.Proc, "\t", "_")
			counts[k] += c
		}
		rec.Counts = counts
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
