package fleet

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"viprof/internal/addr"
	"viprof/internal/hpc"
	"viprof/internal/oprofile"
)

// refShardedAggregate is the Aggregate as it was before Counts folded
// the applied records: every fresh apply also summed each key into one
// of a fixed number of FNV-hashed maps, and Counts merged those maps.
// Kept as the reference for the record fold.
type refShardedAggregate struct {
	shards  []map[oprofile.Key]uint64
	applied map[int]map[uint64]*Record
	totals  map[int]uint64
}

func newRefShardedAggregate(shards int) *refShardedAggregate {
	r := &refShardedAggregate{
		shards:  make([]map[oprofile.Key]uint64, shards),
		applied: make(map[int]map[uint64]*Record),
		totals:  make(map[int]uint64),
	}
	for i := range r.shards {
		r.shards[i] = make(map[oprofile.Key]uint64)
	}
	return r
}

func (r *refShardedAggregate) shardOf(k oprofile.Key) int {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(k.Image)
	mix(k.Proc)
	h ^= uint64(k.Off) ^ uint64(k.Event)<<32 ^ uint64(k.Epoch)<<16
	h *= 1099511628211
	return int(h % uint64(len(r.shards)))
}

func (r *refShardedAggregate) apply(msg *Record) bool {
	set := r.applied[msg.Host]
	if set == nil {
		set = make(map[uint64]*Record)
		r.applied[msg.Host] = set
	}
	if set[msg.Seq] != nil {
		return false
	}
	set[msg.Seq] = msg
	for _, kc := range msg.Counts {
		r.shards[r.shardOf(kc.Key)][kc.Key] += kc.Count
		r.totals[msg.Host] += kc.Count
	}
	return true
}

// refMerge is MergeAggregates over references: hosts ascending, seqs
// ascending, first part wins.
func refMerge(shards int, parts ...*refShardedAggregate) *refShardedAggregate {
	out := newRefShardedAggregate(shards)
	for _, p := range parts {
		var hosts []int
		for h := range p.applied {
			hosts = append(hosts, h)
		}
		sort.Ints(hosts)
		for _, h := range hosts {
			var seqs []uint64
			for s := range p.applied[h] {
				seqs = append(seqs, s)
			}
			sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
			for _, s := range seqs {
				out.apply(p.applied[h][s])
			}
		}
	}
	return out
}

func (r *refShardedAggregate) counts() map[oprofile.Key]uint64 {
	out := make(map[oprofile.Key]uint64)
	for _, sh := range r.shards {
		for k, c := range sh {
			out[k] += c
		}
	}
	return out
}

// checkAgainstRef compares everything the reference tracks.
func checkAgainstRef(t *testing.T, label string, agg *Aggregate, ref *refShardedAggregate) {
	t.Helper()
	run, want := agg.Counts(), ref.counts()
	if !isRun(run) {
		t.Fatalf("%s: Counts is not in the wire's key order with each key once", label)
	}
	got := countsOf(run)
	if !sameCounts(got, want) {
		t.Fatalf("%s: Counts has %d keys / %d samples, sharded reference %d / %d",
			label, len(got), sumCounts(got), len(want), sumCounts(want))
	}
	if !sameCounts(agg.QueryWindow(0, ^uint64(0)), want) {
		t.Fatalf("%s: QueryWindow(0, ^0) differs from the sharded reference", label)
	}
	var total uint64
	for h, n := range ref.totals {
		total += n
		if agg.HostTotal(h) != n {
			t.Fatalf("%s: host %d total %d, reference %d", label, h, agg.HostTotal(h), n)
		}
	}
	if agg.Total() != total {
		t.Fatalf("%s: total %d, reference %d", label, agg.Total(), total)
	}
}

// TestCountsMatchesShardedReferenceQuick drives the Aggregate and the
// hash-sharded reference with the same hostile schedules — duplicates,
// out-of-order seqs, map records, zero counts, keys shared between
// hosts — and compares Apply's freshness, Counts, QueryWindow(0, ^0)
// and the totals after every apply, then merges random splits of the
// schedule as the collector merges its shards.
func TestCountsMatchesShardedReferenceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for it := 0; it < 60; it++ {
		hosts := 1 + rng.Intn(5)
		var msgs []*Record
		for h := 1; h <= hosts; h++ {
			deltas := 1 + rng.Intn(10)
			for seq := 1; seq <= deltas; seq++ {
				msg := &Record{Kind: KindDelta, Host: h, Seq: uint64(seq), At: uint64(rng.Intn(1000))}
				switch rng.Intn(6) {
				case 0:
					msg.Kind, msg.Epoch = KindMap, 1+rng.Intn(3)
				case 1:
					// Shared keys: a proc no host owns, so hosts fold into
					// the same cells.
					msg.Counts = []oprofile.KeyCount{{Key: oprofile.Key{Image: "shared.so", Proc: "shared", Off: addr.Address(rng.Intn(4))}, Count: uint64(rng.Intn(3))}}
				default:
					msg.Counts = randomCounts(rng, h, 1+rng.Intn(6))
				}
				msgs = append(msgs, msg)
			}
		}
		schedule := append([]*Record(nil), msgs...)
		for _, m := range msgs {
			for rng.Intn(3) == 0 {
				schedule = append(schedule, m)
			}
		}
		rng.Shuffle(len(schedule), func(i, j int) { schedule[i], schedule[j] = schedule[j], schedule[i] })

		shards := 1 + rng.Intn(8)
		agg, ref := NewAggregate(), newRefShardedAggregate(shards)
		parts := []*Aggregate{NewAggregate(), NewAggregate(), NewAggregate()}
		refParts := []*refShardedAggregate{newRefShardedAggregate(shards), newRefShardedAggregate(shards), newRefShardedAggregate(shards)}
		for i, msg := range schedule {
			if agg.Apply(msg) != ref.apply(msg) {
				t.Fatalf("iter %d step %d: Apply freshness differs from the reference", it, i)
			}
			checkAgainstRef(t, "single", agg, ref)
			p := rng.Intn(len(parts))
			parts[p].Apply(msg)
			refParts[p].apply(msg)
		}
		merged := MergeAggregates(parts[0], nil, parts[1], parts[2])
		checkAgainstRef(t, "merged", merged, refMerge(shards, refParts...))
		checkAgainstRef(t, "merged whole", merged, refMerge(shards, ref))
	}
}

// TestQueryWindowReusesItsResult pins QueryWindow's contract: the
// result is the Aggregate's own map, refilled by the next call, and a
// warm call allocates nothing.
func TestQueryWindowReusesItsResult(t *testing.T) {
	m := buildStore(t, 404, 3, 7, false)
	agg, _, err := LoadStore(m.Kern.Disk(), 0)
	if err != nil {
		t.Fatal(err)
	}
	min, max, ok := agg.TimeBounds()
	if !ok || max <= min {
		t.Fatalf("no time spread: [%d, %d]", min, max)
	}
	mid := min + (max-min)/2
	first := agg.QueryWindow(min, mid)
	firstTotal := sumCounts(first)
	second := agg.QueryWindow(mid, max+1)
	if reflect.ValueOf(first).Pointer() != reflect.ValueOf(second).Pointer() {
		t.Fatal("QueryWindow returned a fresh map; the result must be the Aggregate's own")
	}
	if firstTotal+sumCounts(second) != agg.Total() {
		t.Fatalf("halves %d + %d != total %d", firstTotal, sumCounts(second), agg.Total())
	}
	agg.QueryWindow(0, ^uint64(0))
	if n := testing.AllocsPerRun(50, func() { agg.QueryWindow(min, mid) }); n != 0 {
		t.Fatalf("warm QueryWindow allocated %v times per call", n)
	}
}

// TestDeltaFrameKeyOrderTotal: keys that differ only in CPU encode in
// one order whatever order their run was filled in before sortRun.
func TestDeltaFrameKeyOrderTotal(t *testing.T) {
	var keys []oprofile.Key
	for cpu := 0; cpu < 6; cpu++ {
		keys = append(keys, oprofile.Key{Event: hpc.GlobalPowerEvents, Image: "libx.so", Proc: "host01", Off: 0x40, CPU: cpu})
	}
	rng := rand.New(rand.NewSource(5))
	var want []byte
	for trial := 0; trial < 40; trial++ {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		var counts []oprofile.KeyCount
		for _, k := range keys {
			counts = append(counts, oprofile.KeyCount{Key: k, Count: uint64(1 + k.CPU)})
		}
		rec := &Record{Kind: KindDelta, Host: 1, Seq: 1, At: 100, Counts: sortRun(counts)}
		frame := rec.Encode()
		if trial == 0 {
			want = frame
		} else if !bytes.Equal(frame, want) {
			t.Fatalf("trial %d: frame bytes depend on fill order:\n%q\nfirst:\n%q", trial, frame, want)
		}
	}
}
