package fleet

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

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

func randomCounts(rng *rand.Rand, host, n int) map[oprofile.Key]uint64 {
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
	return counts
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := randomCounts(rng, 3, 6)
	frame, err := DeltaFrame(3, 41, 7500, counts)
	if err != nil {
		t.Fatalf("DeltaFrame: %v", err)
	}
	msg, err := DecodeWire(frame)
	if err != nil {
		t.Fatalf("DecodeWire: %v", err)
	}
	if msg.Kind != KindDelta || msg.Host != 3 || msg.Seq != 41 || msg.At != 7500 {
		t.Fatalf("header mismatch: %+v", msg)
	}
	if len(msg.Counts) != len(counts) {
		t.Fatalf("counts: got %d keys, want %d", len(msg.Counts), len(counts))
	}
	for k, c := range counts {
		if msg.Counts[k] != c {
			t.Errorf("key %+v: got %d want %d", k, msg.Counts[k], c)
		}
	}

	ack, err := DecodeWire(AckFrame(3, 41))
	if err != nil || ack.Kind != KindAck || ack.Host != 3 || ack.Seq != 41 {
		t.Fatalf("ack round trip: %+v, %v", ack, err)
	}
	rm, err := DecodeWire(RestartJournalFrame(1, 2))
	if err != nil || rm.Kind != KindRestart || rm.Shard != 1 || rm.Attempt != 2 {
		t.Fatalf("restart round trip: %+v, %v", rm, err)
	}

	// Determinism: the same delta must serialize to identical bytes.
	again, err := DeltaFrame(3, 41, 7500, counts)
	if err != nil || !bytes.Equal(frame, again) {
		t.Fatalf("DeltaFrame not deterministic")
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
	frame, err := DeltaFrame(3, 41, 7500, counts)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := record.Scan(frame)
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
	frame, err := DeltaFrame(1, 1, 0, map[oprofile.Key]uint64{{Proc: "host01", Image: "x"}: 3})
	if err != nil {
		t.Fatal(err)
	}
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
		var msgs []*WireMsg
		var oracleTotal uint64
		for h := 1; h <= hosts; h++ {
			deltas := 1 + rng.Intn(8)
			for seq := 1; seq <= deltas; seq++ {
				counts := randomCounts(rng, h, 1+rng.Intn(5))
				msgs = append(msgs, &WireMsg{Kind: KindDelta, Host: h, Seq: uint64(seq), Counts: counts})
				for k, c := range counts {
					oracle[k] += c
					oracleTotal += c
				}
			}
		}
		// Build a hostile delivery schedule: every message at least
		// once, many twice or more, then shuffle.
		schedule := append([]*WireMsg(nil), msgs...)
		for _, m := range msgs {
			for rng.Intn(2) == 0 {
				schedule = append(schedule, m)
			}
		}
		rng.Shuffle(len(schedule), func(i, j int) {
			schedule[i], schedule[j] = schedule[j], schedule[i]
		})

		agg := NewAggregate()
		for _, m := range schedule {
			agg.Apply(m)
		}
		if got := agg.Total(); got != oracleTotal {
			t.Fatalf("iter %d: total %d, oracle %d", it, got, oracleTotal)
		}
		got := agg.Counts()
		if len(got) != len(oracle) {
			t.Fatalf("iter %d: %d keys, oracle %d", it, len(got), len(oracle))
		}
		for k, c := range oracle {
			if got[k] != c {
				t.Fatalf("iter %d: key %+v: got %d, oracle %d", it, k, got[k], c)
			}
		}
		if wantDups := uint64(len(schedule) - len(msgs)); agg.Duplicates != wantDups {
			t.Fatalf("iter %d: absorbed %d duplicates, want %d", it, agg.Duplicates, wantDups)
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
	counts := map[oprofile.Key]uint64{{Proc: "host01", Image: "x", Off: 8}: 2}
	for _, seq := range []uint64{1, 2, 5} {
		agg.Apply(&WireMsg{Kind: KindDelta, Host: 1, Seq: seq, Counts: counts})
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
// degradation is loud, per-event accounted, and fully reversible.
func TestFleetPartitionSpillReingest(t *testing.T) {
	m := newTestMachine(31)
	res, err := RunFleet(m, FleetConfig{
		Hosts: 3, DeltasPerHost: 5, Seed: 31,
		Sender: SenderConfig{
			TimeoutCycles: 200_000, BackoffBaseCycles: 20_000,
			BackoffCapCycles: 80_000, MaxAttempts: 3,
		},
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
