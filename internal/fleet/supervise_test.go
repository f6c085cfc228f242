package fleet

import (
	"testing"

	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// advanceTo moves every core's clock to cycle at (a no-op for cores
// already past it).
func advanceTo(m *kernel.Machine, at uint64) {
	for _, c := range m.Cores {
		if now := c.Cycles(); now < at {
			c.AdvanceIdle(at - now)
		}
	}
}

// TestSuperviseShardFailurePaths drives the supervisor by hand through
// the paths a clean run never takes. Scripted read faults on the shard
// journals let a failover's store scan through and then fail a
// restart's: first its own-journal replay, then its handoff burn, then
// every replay of a second shard until the budget runs out.
func TestSuperviseShardFailurePaths(t *testing.T) {
	m := newTestMachine(61)
	disk := m.Kern.Disk()
	counts := []oprofile.KeyCount{{Key: oprofile.Key{Image: "a", Proc: "host01"}, Count: 2}}
	for i, host := range []int{1, 2} {
		rec := &Record{Kind: KindDelta, Host: host, Seq: 1, At: 10, Counts: counts}
		disk.Append(ShardJournalPath(i), rec.Encode())
	}
	// Matched shard-journal reads, in order: 0-1 the failover of shard
	// 0, 2 its first restart's own replay, 3-4 the second restart (own
	// replay, then the handoff burn's first journal), 5-7 the third
	// restart; 8-9 the failover of shard 1, then 10-17 its eight
	// restarts' own replays.
	script := []int{2, 4}
	for i := 10; i < 10+maxRestarts; i++ {
		script = append(script, i)
	}
	disk.SetReadFaultInjector(kernel.ReadFaultPlan{Seed: 61, PathPrefix: JournalPrefix, Script: script})
	c, err := NewCollector(m, NewNetwork(func() uint64 { return m.CPU().Cycles() }, NetFaultPlan{}),
		CollectorConfig{Procs: 2}, 61)
	if err != nil {
		t.Fatal(err)
	}
	sh := c.shards[0]
	reads := func() uint64 { return disk.ReadFaultStats().Matched }

	// A failed restart sets a jittered gate: base<<(attempt-1), capped
	// at 8x base, plus up to one base of jitter.
	checkGate := func(attempt int) {
		t.Helper()
		lo := c.now() + min(uint64(restartBackoffCycles)<<(attempt-1), 8*restartBackoffCycles)
		if sh.nextRestartAt < lo || sh.nextRestartAt >= lo+restartBackoffCycles {
			t.Fatalf("attempt %d: gate at %d, want in [%d, %d)", attempt, sh.nextRestartAt, lo, lo+restartBackoffCycles)
		}
	}

	m.Kern.Kill(sh.proc)
	c.Supervise(m)
	st := c.Stats()
	if st.Failovers != 1 || sh.serving {
		t.Fatalf("failover did not complete: %+v", st)
	}
	if st.ReplayErrors != 1 || st.HandoffErrors != 0 || sh.restarts != 1 || sh.Alive() {
		t.Fatalf("first restart should fail its replay: restarts=%d %+v", sh.restarts, st)
	}
	checkGate(1)

	// Inside the gate the supervisor waits: no attempt, no read.
	before := reads()
	advanceTo(m, sh.nextRestartAt-1)
	c.Supervise(m)
	if sh.restarts != 1 || reads() != before {
		t.Fatalf("supervisor retried inside its gate: restarts=%d, reads %d -> %d", sh.restarts, before, reads())
	}

	advanceTo(m, sh.nextRestartAt)
	c.Supervise(m)
	if st := c.Stats(); st.ReplayErrors != 1 || st.HandoffErrors != 1 || sh.restarts != 2 || sh.Alive() {
		t.Fatalf("second restart should fail its handoff burn: restarts=%d %+v", sh.restarts, st)
	}
	checkGate(2)

	advanceTo(m, sh.nextRestartAt)
	c.Supervise(m)
	st = c.Stats()
	if !sh.Alive() || !sh.serving || sh.restarts != 3 || sh.nextRestartAt != 0 || st.Restarts != 3 {
		t.Fatalf("third restart should succeed: alive=%v serving=%v restarts=%d gate=%d %+v",
			sh.Alive(), sh.serving, sh.restarts, sh.nextRestartAt, st)
	}
	if c.GaveUp() {
		t.Fatal("a shard that came back reads as given up")
	}

	// Shard 1 fails over, then every restart fails its replay.
	sh = c.shards[1]
	m.Kern.Kill(sh.proc)
	for i := 0; i < maxRestarts; i++ {
		c.Supervise(m)
		if sh.restarts != i+1 || sh.Alive() {
			t.Fatalf("restart %d: restarts=%d alive=%v", i+1, sh.restarts, sh.Alive())
		}
		checkGate(i + 1)
		advanceTo(m, sh.nextRestartAt)
	}
	if c.GaveUp() {
		t.Fatal("gave up before the budget's last attempt was refused")
	}
	c.Supervise(m)
	st = c.Stats()
	if !sh.gaveUp || !c.GaveUp() || sh.restarts != maxRestarts {
		t.Fatalf("exhausted budget: gaveUp=%v GaveUp()=%v restarts=%d", sh.gaveUp, c.GaveUp(), sh.restarts)
	}
	if st.Failovers != 2 || st.ReplayErrors != 1+maxRestarts || st.HandoffErrors != 1 || st.Restarts != 3+maxRestarts {
		t.Fatalf("counters after give-up: %+v", st)
	}
	if got := disk.ReadFaultStats().EIO; got != uint64(len(script)) {
		t.Fatalf("%d scripted read faults fired, want %d", got, len(script))
	}
}

// TestCompactorGivesUpWithoutFailingService kills the compactor at its
// first generation write on every pass: the supervisor restarts it
// maxRestarts times, then gives up on it, and the service still shuts
// down clean with every sample conserved and the journals holding the
// store.
func TestCompactorGivesUpWithoutFailingService(t *testing.T) {
	m := newTestMachine(67)
	m.Kern.SetFaultInjectors(kernel.FaultPlan{Seed: 67, PathPrefix: GenDir, PCrash: 1})
	res, err := RunFleet(m, FleetConfig{
		Hosts: 4, DeltasPerHost: 24, Seed: 67,
		Collector: CollectorConfig{CompactEveryCycles: 40_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("run error: %v", res.RunErr)
	}
	co := res.Collector.compactor
	st := res.Collector.Stats()
	if !co.gaveUp || co.Alive() || co.restarts != maxRestarts {
		t.Fatalf("compactor: gaveUp=%v alive=%v restarts=%d", co.gaveUp, co.Alive(), co.restarts)
	}
	if st.Restarts != maxRestarts || st.Compactions != 0 {
		t.Fatalf("collector counters: %+v", st)
	}
	if res.SupervisorGaveUp || res.Collector.GaveUp() || !res.Collector.Alive() {
		t.Fatal("a gave-up compactor failed the service")
	}
	requireConservation(t, res)
	if res.Integrity.Collector == nil || !res.Integrity.Collector.Clean {
		t.Fatalf("no clean collector stats record:\n%s", FormatFleetIntegrity(res.Integrity))
	}
	if res.Integrity.Journal.ManifestGen != 0 || res.Integrity.Journal.Journals == 0 {
		t.Fatalf("store: %+v, want journals and no generation", res.Integrity.Journal)
	}
}
