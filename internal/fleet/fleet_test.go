package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"viprof/internal/addr"
	"viprof/internal/cache"
	"viprof/internal/cpu"
	"viprof/internal/hpc"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
	"viprof/internal/record"
)

func newTestMachine(seed int64) *kernel.Machine {
	return kernel.NewMachine(cpu.New(hpc.NewBank(), cache.DefaultHierarchy()), seed)
}

// randomCounts draws a sender-shaped count run of up to n keys.
func randomCounts(rng *rand.Rand, host, n int) []oprofile.KeyCount {
	counts := make(map[oprofile.Key]uint64)
	images := []string{"fleet.app", "libfleet.so", "vmlinux"}
	for i := 0; i < n; i++ {
		k := oprofile.Key{
			Event: hpc.Event(rng.Intn(2)),
			Image: images[rng.Intn(len(images))],
			Proc:  SenderConfig{Host: host}.ProcName(),
			Off:   addr.Address(0x1000 + 8*rng.Intn(64)),
		}
		if rng.Intn(4) == 0 {
			k.Image = oprofile.JITImageName
			k.JIT = true
			k.Epoch = 1 + rng.Intn(3)
		}
		counts[k] += uint64(1 + rng.Intn(5))
	}
	return runOf(counts)
}

// runOf returns counts as a count run: one pair per key, in the order
// the reference key sort (refSortedKeys) gives.
func runOf(counts map[oprofile.Key]uint64) []oprofile.KeyCount {
	run := make([]oprofile.KeyCount, 0, len(counts))
	for _, k := range refSortedKeys(counts) {
		run = append(run, oprofile.KeyCount{Key: k, Count: counts[k]})
	}
	return run
}

// countsOf folds a run into a map, summing duplicate keys.
func countsOf(run []oprofile.KeyCount) map[oprofile.Key]uint64 {
	counts := make(map[oprofile.Key]uint64, len(run))
	for _, kc := range run {
		counts[kc.Key] += kc.Count
	}
	return counts
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := randomCounts(rng, 3, 6)
	rec := &Record{Kind: KindDelta, Host: 3, Seq: 41, At: 7500, Counts: counts}
	frame := rec.Encode()
	msg, err := DecodeWire(frame)
	if err != nil {
		t.Fatalf("DecodeWire: %v", err)
	}
	if msg.Kind != KindDelta || msg.Host != 3 || msg.Seq != 41 || msg.At != 7500 {
		t.Fatalf("header mismatch: %+v", msg)
	}
	if !slices.Equal(msg.Counts, counts) {
		t.Fatalf("counts: got %v, want %v", msg.Counts, counts)
	}

	ackRec := &Record{Kind: KindAck, Host: 3, Seq: 41}
	ack, err := DecodeWire(ackRec.Encode())
	if err != nil || ack.Kind != KindAck || ack.Host != 3 || ack.Seq != 41 {
		t.Fatalf("ack round trip: %+v, %v", ack, err)
	}
	marker := &Record{Kind: KindRestart, Shard: 1, Attempt: 2}
	rm, err := DecodeWire(marker.Encode())
	if err != nil || rm.Kind != KindRestart || rm.Shard != 1 || rm.Attempt != 2 {
		t.Fatalf("restart round trip: %+v, %v", rm, err)
	}

	// Determinism: the same delta must serialize to identical bytes.
	if again := rec.Encode(); !bytes.Equal(frame, again) {
		t.Fatalf("delta encoding not deterministic")
	}
}

// TestDecodePayloadAllocs bounds what decoding one 20-key delta
// allocates. Every journal frame is decoded at ingest, at each
// compaction pass, at replay and at offline compaction, so the payload
// parser's per-call cost multiplies; the Scanner-based parser zeroed a
// 1 MiB line buffer per call (about 1.06 MB). The bound is 32 KiB.
func TestDecodePayloadAllocs(t *testing.T) {
	counts := make(map[oprofile.Key]uint64)
	for i := 0; i < 20; i++ {
		k := oprofile.Key{Event: hpc.Event(i % 2), Image: "libfleet.so",
			Proc: SenderConfig{Host: 3}.ProcName(), CPU: i % 4, Off: addr.Address(0x1000 + 8*i)}
		if i%4 == 0 {
			k.Image, k.JIT, k.Epoch = oprofile.JITImageName, true, 1+i%3
		}
		counts[k] = uint64(1 + i)
	}
	rec := &Record{Kind: KindDelta, Host: 3, Seq: 41, At: 7500, Counts: runOf(counts)}
	recs, _ := record.Scan(rec.Encode())
	if len(recs) != 1 {
		t.Fatalf("frame holds %d records", len(recs))
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		msg, err := DecodePayload(recs[0])
		if err != nil || len(msg.Counts) != len(counts) {
			t.Fatalf("decode: %d keys, %v", len(msg.Counts), err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("DecodePayload: %d bytes allocated per 20-key delta", perCall)
	if perCall >= 32<<10 {
		t.Errorf("DecodePayload allocates %d bytes per 20-key delta, want < %d", perCall, 32<<10)
	}
}

func TestWireRejectsDamage(t *testing.T) {
	rec := &Record{Kind: KindDelta, Host: 1, Seq: 1, Counts: []oprofile.KeyCount{{Key: oprofile.Key{Proc: "host01", Image: "x"}, Count: 3}}}
	frame := rec.Encode()
	// Bit damage anywhere in the frame must fail the checksum.
	for _, idx := range []int{0, 8, len(frame) / 2, len(frame) - 1} {
		mangled := append([]byte(nil), frame...)
		mangled[idx] ^= 0x40
		if _, err := DecodeWire(mangled); err == nil {
			t.Errorf("mangled byte %d: decode succeeded", idx)
		}
	}
	// A torn (truncated) frame must fail too.
	for _, cut := range []int{1, len(frame) / 3, len(frame) - 1} {
		if _, err := DecodeWire(frame[:cut]); err == nil {
			t.Errorf("torn at %d: decode succeeded", cut)
		}
	}
	if _, err := DecodeWire(append(append([]byte(nil), frame...), frame...)); err == nil {
		t.Error("two concatenated records decoded as one wire datagram")
	}
}

// TestAggregateIdempotentOrderInsensitive is the idempotency quickcheck:
// any delivery schedule — shuffled, duplicated, interleaved across hosts
// — must produce exactly the oracle aggregate, with every duplicate
// absorbed and never double-counted.
func TestAggregateIdempotentOrderInsensitive(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for it := 0; it < iters; it++ {
		rng := rand.New(rand.NewSource(int64(it)*0x9E3779B9 + 5))
		hosts := 1 + rng.Intn(5)
		oracle := make(map[oprofile.Key]uint64)
		var msgs []*Record
		var oracleTotal uint64
		for h := 1; h <= hosts; h++ {
			deltas := 1 + rng.Intn(8)
			for seq := 1; seq <= deltas; seq++ {
				counts := randomCounts(rng, h, 1+rng.Intn(5))
				msgs = append(msgs, &Record{Kind: KindDelta, Host: h, Seq: uint64(seq), Counts: counts})
				for _, kc := range counts {
					oracle[kc.Key] += kc.Count
					oracleTotal += kc.Count
				}
			}
		}
		// Build a hostile delivery schedule: every message at least
		// once, many twice or more, then shuffle.
		schedule := append([]*Record(nil), msgs...)
		for _, m := range msgs {
			for rng.Intn(2) == 0 {
				schedule = append(schedule, m)
			}
		}
		rng.Shuffle(len(schedule), func(i, j int) {
			schedule[i], schedule[j] = schedule[j], schedule[i]
		})

		agg := NewAggregate()
		var absorbed int
		for _, m := range schedule {
			if !agg.Apply(m) {
				absorbed++
			}
		}
		if got := agg.Total(); got != oracleTotal {
			t.Fatalf("iter %d: total %d, oracle %d", it, got, oracleTotal)
		}
		got := countsOf(agg.Counts())
		if len(got) != len(oracle) {
			t.Fatalf("iter %d: %d keys, oracle %d", it, len(got), len(oracle))
		}
		for k, c := range oracle {
			if got[k] != c {
				t.Fatalf("iter %d: key %+v: got %d, oracle %d", it, k, got[k], c)
			}
		}
		if wantDups := len(schedule) - len(msgs); absorbed != wantDups {
			t.Fatalf("iter %d: absorbed %d duplicates, want %d", it, absorbed, wantDups)
		}
		for h := 1; h <= hosts; h++ {
			if gaps := agg.Gaps(h); len(gaps) != 0 {
				t.Fatalf("iter %d: host %d unexpected gaps %v", it, h, gaps)
			}
		}
	}
}

func TestAggregateGapsPoison(t *testing.T) {
	agg := NewAggregate()
	counts := []oprofile.KeyCount{{Key: oprofile.Key{Proc: "host01", Image: "x", Off: 8}, Count: 2}}
	for _, seq := range []uint64{1, 2, 5} {
		agg.Apply(&Record{Kind: KindDelta, Host: 1, Seq: seq, Counts: counts})
	}
	gaps := agg.Gaps(1)
	if len(gaps) != 2 || gaps[0] != 3 || gaps[1] != 4 {
		t.Fatalf("gaps = %v, want [3 4]", gaps)
	}
}

// requireConservation asserts the headline invariant on a finished run,
// against both the live aggregate and the offline journal replay.
func requireConservation(t *testing.T, res *FleetResult) {
	t.Helper()
	for name, agg := range map[string]*Aggregate{
		"live": res.Collector.Aggregate(), "replayed": res.Replayed,
	} {
		if agg == nil {
			t.Fatalf("%s aggregate missing", name)
		}
		c := CheckConservation(res.Senders, agg)
		if !c.Balanced() {
			t.Fatalf("%s conservation violated:\n%v", name, c.Mismatches)
		}
	}
}

func TestFleetCleanRun(t *testing.T) {
	m := newTestMachine(11)
	res, err := RunFleet(m, FleetConfig{Hosts: 4, DeltasPerHost: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	requireConservation(t, res)
	c := CheckConservation(res.Senders, res.Replayed)
	if c.HeldSamples != 0 {
		t.Fatalf("clean run held %d samples", c.HeldSamples)
	}
	if c.GeneratedSamples == 0 || c.AggregateSamples != c.GeneratedSamples {
		t.Fatalf("clean run: generated %d, aggregate %d", c.GeneratedSamples, c.AggregateSamples)
	}
	for _, s := range res.Senders {
		st := s.Stats()
		if !st.Clean || st.Timeouts != 0 || st.Spilled != 0 || st.Lost != 0 {
			t.Fatalf("host %d stats not clean: %+v", s.cfg.Host, st)
		}
	}
	if res.Integrity.Degraded() {
		t.Fatalf("clean run degraded:\n%s", FormatFleetIntegrity(res.Integrity))
	}
	// The committed snapshot must exist and agree with the aggregate.
	data, err := m.Kern.Disk().Read(AggregateFile)
	if err != nil {
		t.Fatalf("aggregate snapshot: %v", err)
	}
	snap, err := oprofile.ReadCounts(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("snapshot parse: %v", err)
	}
	var snapTotal uint64
	for _, cnt := range snap {
		snapTotal += cnt
	}
	if snapTotal != c.AggregateSamples {
		t.Fatalf("snapshot total %d != aggregate %d", snapTotal, c.AggregateSamples)
	}
}

// TestFleetPartitionHeal is the scripted partition e2e: a full-fleet
// partition long enough to force retries (but shorter than the retry
// budget) must heal with every delta delivered and zero degradation —
// destructive network faults fully absorbed by the protocol, with the
// timeouts as visible evidence.
func TestFleetPartitionHeal(t *testing.T) {
	m := newTestMachine(23)
	res, err := RunFleet(m, FleetConfig{
		Hosts: 4, DeltasPerHost: 6, Seed: 23,
		Net: NetFaultPlan{
			Seed:       23,
			Partitions: []Partition{{Host: PartitionAll, Start: 50_000, End: 2_200_000}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	requireConservation(t, res)
	if res.Net.PartitionDrops == 0 {
		t.Fatal("partition never dropped anything — window missed the traffic")
	}
	var timeouts, deferred uint64
	for _, s := range res.Senders {
		timeouts += s.Stats().Timeouts
		deferred += s.Stats().Deferred
	}
	if timeouts == 0 || deferred == 0 {
		t.Fatalf("partition left no retry evidence: timeouts=%d deferred=%d", timeouts, deferred)
	}
	c := CheckConservation(res.Senders, res.Replayed)
	if c.HeldSamples != 0 {
		t.Fatalf("heal incomplete: %d samples still held\n%s",
			c.HeldSamples, FormatFleetIntegrity(res.Integrity))
	}
	if res.Integrity.Degraded() {
		t.Fatalf("healed partition left degradation:\n%s", FormatFleetIntegrity(res.Integrity))
	}
}

// TestFleetPartitionSpillReingest drives a partition past the retry
// budget so hosts spill, then recovers the parked deltas offline:
// degradation is loud, per-event accounted, and fully reversible. The
// partition outlasts a record's whole retry budget (about 7.6 M cycles
// of timeouts and backoff) several times over.
func TestFleetPartitionSpillReingest(t *testing.T) {
	m := newTestMachine(31)
	res, err := RunFleet(m, FleetConfig{
		Hosts: 3, DeltasPerHost: 5, Seed: 31,
		Net: NetFaultPlan{
			Seed:       31,
			Partitions: []Partition{{Host: PartitionAll, Start: 0, End: 40_000_000}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireConservation(t, res)
	var spilled uint64
	for _, s := range res.Senders {
		spilled += s.Stats().Spilled
		for ev, n := range s.Stats().SpilledByEvent {
			if n == 0 {
				t.Errorf("host %d: zero-valued per-event spill entry %q", s.cfg.Host, ev)
			}
		}
	}
	if spilled == 0 {
		t.Fatal("permanent partition produced no spills")
	}
	if !res.Integrity.Degraded() {
		t.Fatal("spilled run not degraded")
	}
	// Offline recovery: reingest the parked deltas; with no losses the
	// aggregate must now equal everything generated.
	agg := res.Replayed
	hosts := []int{1, 2, 3}
	var reapplied int
	for _, ri := range ReingestSpills(m.Kern.Disk(), agg, hosts) {
		if ri.ReadError || ri.ParseErrors > 0 || ri.Salvage.Lossy() {
			t.Fatalf("spill reingest damaged: %+v", ri)
		}
		reapplied += ri.Applied
	}
	if reapplied == 0 {
		t.Fatal("reingest recovered nothing")
	}
	c := CheckConservation(res.Senders, agg)
	if !c.Balanced() {
		t.Fatalf("post-reingest conservation violated:\n%v", c.Mismatches)
	}
	var lost uint64
	for _, s := range res.Senders {
		lost += s.Stats().LostSamples
	}
	if want := c.GeneratedSamples - lost; c.AggregateSamples != want {
		t.Fatalf("after reingest aggregate %d, want %d (generated %d - lost %d)",
			c.AggregateSamples, want, c.GeneratedSamples, lost)
	}
}

// TestFleetCollectorCrashRecovery scripts a crash on a journal append:
// the supervisor must restart the collector through journal replay and
// the run must still conserve every sample.
func TestFleetCollectorCrashRecovery(t *testing.T) {
	m := newTestMachine(47)
	m.Kern.SetFaultInjectors(kernel.FaultPlan{
		Seed:       47,
		PathPrefix: JournalPrefix,
		Script:     []kernel.FaultPoint{{Write: 3, Kind: kernel.FaultCrash}},
	})
	res, err := RunFleet(m, FleetConfig{Hosts: 4, DeltasPerHost: 6, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	st := res.Collector.Stats()
	if st.Restarts == 0 {
		t.Fatal("scripted crash never restarted the collector")
	}
	requireConservation(t, res)
	c := CheckConservation(res.Senders, res.Replayed)
	if c.HeldSamples != 0 {
		t.Fatalf("recovered run still holds %d samples", c.HeldSamples)
	}
	if !res.Integrity.Degraded() {
		t.Fatal("crashed+recovered run reports clean")
	}
	if res.Integrity.Journal.Markers == 0 {
		t.Fatal("journal carries no restart marker evidence")
	}
}

// TestOutOfRangeEventIsWireDamage: a checksum-valid delta naming an
// event past the last defined one fails to decode, so a shard counts it
// WireDamaged and neither journals, applies nor acks it.
func TestOutOfRangeEventIsWireDamage(t *testing.T) {
	for _, line := range []string{"9\t0\t0\t256\t3\t0\tapp\tapp.bin\n", "-1\t0\t0\t256\t3\t0\tapp\tapp.bin\n"} {
		frame := record.Frame([]byte("#delta host=1 seq=1 at=0\n" + line))
		if msg, err := DecodeWire(frame); err == nil {
			t.Fatalf("%q decoded as %+v", line, msg)
		}
		m := newTestMachine(5)
		net := NewNetwork(func() uint64 { return m.CPU().Cycles() }, NetFaultPlan{})
		c, err := NewCollector(m, net, CollectorConfig{Procs: 1}, 5)
		if err != nil {
			t.Fatal(err)
		}
		sh := c.shards[0]
		sh.ingest(m, sh.proc, frame)
		if st := c.Stats(); st.WireDamaged != 1 || st.Ingested != 0 || st.AcksSent != 0 {
			t.Fatalf("%q: stats %+v", line, st)
		}
		if sh.agg.Applied(1, 1) || m.Kern.Disk().Exists(ShardJournalPath(0)) {
			t.Fatalf("%q: applied or journaled", line)
		}
	}
}

// TestConservationMismatchesInKeyOrder: keys that tie on proc, image
// and offset and differ in event, epoch, CPU or JIT flag each get a
// message of their own that names those fields, and the messages come
// out in the wire's key order on every call.
func TestConservationMismatchesInKeyOrder(t *testing.T) {
	oracle := make(map[oprofile.Key]uint64)
	applied := make(map[oprofile.Key]uint64)
	for ev := 0; ev < 2; ev++ {
		for epoch := 1; epoch <= 2; epoch++ {
			for cpu := 0; cpu < 2; cpu++ {
				for _, jit := range []bool{false, true} {
					k := oprofile.Key{Event: hpc.Event(ev), Image: oprofile.JITImageName, Proc: "host01",
						JIT: jit, Epoch: epoch, CPU: cpu, Off: 0x1010}
					oracle[k], applied[k] = 2, 1
				}
			}
		}
	}
	s := &Sender{cfg: SenderConfig{Host: 1}, Deltas: []*Delta{{Record: Record{Kind: KindDelta, Host: 1, Seq: 1, Counts: runOf(oracle)}}}}
	agg := NewAggregate()
	agg.Apply(&Record{Kind: KindDelta, Host: 1, Seq: 1, Counts: runOf(applied)})
	first := CheckConservation([]*Sender{s}, agg).Mismatches
	if want := 1 + len(oracle); len(first) != want {
		t.Fatalf("%d mismatches, want %d: %v", len(first), want, first)
	}
	seen := make(map[string]bool)
	for _, msg := range first[1:] {
		if seen[msg] {
			t.Fatalf("two keys share the message %q", msg)
		}
		seen[msg] = true
	}
	want := first[1:]
	for i, k := range refSortedKeys(oracle) {
		if !strings.Contains(want[i], fmt.Sprintf("ev=%d jit=%t epoch=%d cpu=%d", k.Event, k.JIT, k.Epoch, k.CPU)) {
			t.Fatalf("message %d %q is not key %+v", i, want[i], k)
		}
	}
	for i := 0; i < 20; i++ {
		if got := CheckConservation([]*Sender{s}, agg).Mismatches; !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d: messages differ:\n%v\nfirst:\n%v", i, got, first)
		}
	}
}

// refCheckConservation is CheckConservation as it was while records
// kept maps, kept verbatim as its reference (the per-record loops read
// runs now): the applied deltas and the aggregate folded into two maps,
// then compared over their sorted key union.
func refCheckConservation(senders []*Sender, agg *Aggregate) *Conservation {
	c := &Conservation{}
	expected := make(map[oprofile.Key]uint64)
	for _, s := range senders {
		host := s.cfg.Host
		for _, d := range s.Deltas {
			total := d.Total()
			c.GeneratedSamples += total
			if agg.Applied(host, d.Seq) {
				c.AppliedSamples += total
				for _, kc := range d.Counts {
					expected[kc.Key] += kc.Count
				}
			} else {
				c.HeldSamples += total
			}
		}
	}
	c.AggregateSamples = agg.Total()

	if c.GeneratedSamples != c.AppliedSamples+c.HeldSamples {
		c.Mismatches = append(c.Mismatches, fmt.Sprintf(
			"generated %d != applied %d + held %d",
			c.GeneratedSamples, c.AppliedSamples, c.HeldSamples))
	}
	if c.AggregateSamples != c.AppliedSamples {
		c.Mismatches = append(c.Mismatches, fmt.Sprintf(
			"aggregate total %d != applied oracle total %d",
			c.AggregateSamples, c.AppliedSamples))
	}
	got := make(map[oprofile.Key]uint64)
	for _, recs := range agg.byHost {
		for _, rec := range recs {
			for _, kc := range rec.Counts {
				got[kc.Key] += kc.Count
			}
		}
	}
	keys := make(map[oprofile.Key]bool, len(expected)+len(got))
	for k := range expected {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	ordered := make([]oprofile.Key, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	slices.SortFunc(ordered, keyCompare)
	for _, k := range ordered {
		if expected[k] != got[k] {
			c.Mismatches = append(c.Mismatches, fmt.Sprintf(
				"key %s/%s ev=%d jit=%t epoch=%d cpu=%d off=%#x: oracle %d, aggregate %d",
				k.Proc, k.Image, k.Event, k.JIT, k.Epoch, k.CPU, uint64(k.Off), expected[k], got[k]))
		}
	}
	return c
}

// TestConservationMatchesReferenceQuick holds CheckConservation to the
// map-based check it replaced (refCheckConservation): the four totals
// and every mismatch, text and order, over random senders and
// aggregates that apply some of their deltas as sent, some with a
// count changed, a key dropped or a key added, some not at all, plus
// records no sender sent and zero counts. `-args -quickchecks=N`
// widens it.
func TestConservationMatchesReferenceQuick(t *testing.T) {
	var balanced, unbalanced int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		agg := NewAggregate()
		var senders []*Sender
		for h, hosts := 1, 1+rng.Intn(3); h <= hosts; h++ {
			s := &Sender{cfg: SenderConfig{Host: h}}
			for seq, deltas := 1, rng.Intn(6); seq <= deltas; seq++ {
				d := &Delta{Record: Record{Kind: KindDelta, Host: h, Seq: uint64(seq), Counts: randomCounts(rng, h, 1+rng.Intn(4))}}
				s.Deltas = append(s.Deltas, d)
				applied := d.Record
				applied.Counts = slices.Clone(d.Counts)
				switch rng.Intn(8) {
				case 0:
					continue // held
				case 1:
					applied.Counts[rng.Intn(len(applied.Counts))].Count += uint64(rng.Intn(3))
				case 2:
					i := rng.Intn(len(applied.Counts))
					applied.Counts = slices.Delete(applied.Counts, i, i+1)
				case 3:
					applied.Counts = sortRun(append(applied.Counts, randomCounts(rng, h+rng.Intn(2), 1)...))
				}
				agg.Apply(&applied)
			}
			senders = append(senders, s)
		}
		if rng.Intn(4) == 0 {
			agg.Apply(&Record{Kind: KindDelta, Host: 9, Seq: 1, Counts: randomCounts(rng, 9, 1+rng.Intn(3))})
		}
		got, want := CheckConservation(senders, agg), refCheckConservation(senders, agg)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: %+v\nreference %+v", seed, got, want)
			return false
		}
		if got.Balanced() {
			balanced++
		} else {
			unbalanced++
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if balanced == 0 || unbalanced == 0 {
		t.Errorf("drew %d balanced and %d unbalanced cases: want some of each", balanced, unbalanced)
	}
}
