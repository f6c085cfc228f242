package harness

import (
	"os"
	"strconv"
	"testing"

	"viprof/internal/fleet"
)

// The fleet conservation sweep: across composed network + disk chaos,
// every run must balance the fleet ledger — sum of per-host holds ==
// collector aggregate, key for key, with zero misattribution — and
// degradation must be exactly as loud as the injected destruction.

func checkFleetInvariants(t *testing.T, r *FleetChaosResult) {
	t.Helper()
	res := r.Result
	if res.RunErr != nil {
		t.Fatalf("machine run failed: %v", res.RunErr)
	}

	// Conservation and misattribution, against the live aggregate and
	// (when the journal was readable) the offline replay. CheckConservation
	// compares key for key, so a single sample double-counted by a
	// duplicate, lost by a reorder, or attributed to the wrong host's
	// proc fails here.
	aggs := map[string]*fleet.Aggregate{"live": res.Collector.Aggregate()}
	if res.Replayed != nil {
		aggs["replayed"] = res.Replayed
	} else if !res.Integrity.JournalUnreadable {
		t.Error("no replayed aggregate but journal not marked unreadable")
	}
	for name, agg := range aggs {
		c := fleet.CheckConservation(res.Senders, agg)
		if !c.Balanced() {
			t.Errorf("%s conservation violated:\n%v", name, c.Mismatches)
		}
		if c.GeneratedSamples == 0 {
			t.Error("run generated no samples")
		}
	}

	// Compaction copies frames by header, so every stored frame whose
	// header parses must decode and re-encode to itself, faults or not.
	bad, err := fleet.CheckStoreFrames(r.Disk)
	if err != nil {
		t.Fatalf("store frames unreadable: %v", err)
	}
	if len(bad) > 0 {
		t.Errorf("store frames not canonical:\n%v", bad)
	}

	destructive := r.TotalDestructive()
	degraded := res.Integrity.Degraded()

	// A bit-perfect run must be bit-perfect everywhere: no degradation,
	// nothing held, every sample aggregated, and every code map
	// replicated byte-for-byte into every view of the store.
	if destructive == 0 {
		if degraded {
			t.Errorf("zero destructive faults but integrity degraded:\n%s",
				fleet.FormatFleetIntegrity(res.Integrity))
		}
		c := fleet.CheckConservation(res.Senders, res.Collector.Aggregate())
		if c.HeldSamples != 0 {
			t.Errorf("zero destructive faults but %d samples held", c.HeldSamples)
		}
		if res.SupervisorGaveUp {
			t.Error("zero destructive faults but supervisor gave up")
		}
		var mapsGen, mapsAcked uint64
		for _, s := range res.Senders {
			st := s.Stats()
			mapsGen += st.MapsGenerated
			mapsAcked += st.MapsAcked
		}
		if mapsGen == 0 {
			t.Error("run generated no code maps")
		}
		if mapsAcked != mapsGen {
			t.Errorf("zero destructive faults but only %d/%d maps acked", mapsAcked, mapsGen)
		}
		for name, agg := range aggs {
			if bad := fleet.CheckMapReplication(res.Senders, agg); len(bad) > 0 {
				t.Errorf("%s map replication violated:\n%v", name, bad)
			}
		}
	}

	// Windowed queries must partition the aggregate at any cut, in every
	// run — compacted or not, degraded or not.
	sumWindow := func(agg *fleet.Aggregate, from, to uint64) (n uint64) {
		for _, c := range agg.QueryWindow(from, to) {
			n += c
		}
		return n
	}
	for name, agg := range aggs {
		if min, max, ok := agg.TimeBounds(); ok && agg.Total() > 0 {
			cut := min + (max-min)/2
			lo, hi := sumWindow(agg, 0, cut), sumWindow(agg, cut, ^uint64(0))
			if lo+hi != agg.Total() {
				t.Errorf("%s window partition broken at %d: %d + %d != %d",
					name, cut, lo, hi, agg.Total())
			}
		}
	}

	// Degradation anywhere must be rooted in counted destruction —
	// no silent self-inflicted damage, no false alarms.
	if degraded && destructive == 0 {
		t.Errorf("degraded with zero destructive faults:\n%s",
			fleet.FormatFleetIntegrity(res.Integrity))
	}

	// A supervisor that gave up is the loudest degradation of all.
	if res.SupervisorGaveUp && !degraded {
		t.Error("supervisor gave up but integrity reports clean")
	}

	// Per-event spill/lost accounting must balance the sender ledgers.
	for _, s := range res.Senders {
		st := s.Stats()
		var byEv uint64
		for _, n := range st.SpilledByEvent {
			byEv += n
		}
		if byEv != st.SpilledSamples {
			t.Errorf("host stats: per-event spilled %d != spilled samples %d", byEv, st.SpilledSamples)
		}
		byEv = 0
		for _, n := range st.LostByEvent {
			byEv += n
		}
		if byEv != st.LostSamples {
			t.Errorf("host stats: per-event lost %d != lost samples %d", byEv, st.LostSamples)
		}
	}
}

func fleetSweepSeeds(t *testing.T, def int) int {
	if env := os.Getenv("VIPROF_FLEET_SEEDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad VIPROF_FLEET_SEEDS %q", env)
		}
		return n
	}
	return def
}

// TestFleetChaos is the fleet-smoke sweep: enough seeds to cover every
// scenario in isolation plus a band of compositions.
func TestFleetChaos(t *testing.T) {
	seeds := fleetSweepSeeds(t, 25)
	if seeds < int(numFleetScenarios) {
		seeds = int(numFleetScenarios)
	}
	for seed := 0; seed < seeds; seed++ {
		seed := int64(seed)
		sched := FleetScheduleOf(seed)
		t.Run(sched.String()+"/"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			r, err := RunFleetChaos(seed)
			if err != nil {
				t.Fatal(err)
			}
			checkFleetInvariants(t, r)
		})
	}
}

// TestFleetChaosNightly widens the sweep (set VIPROF_FLEET_SEEDS, e.g.
// 300 in the chaos-nightly lane); without the env var it defers to
// TestFleetChaos's coverage.
func TestFleetChaosNightly(t *testing.T) {
	if os.Getenv("VIPROF_FLEET_SEEDS") == "" {
		t.Skip("set VIPROF_FLEET_SEEDS to run the nightly fleet sweep")
	}
	if testing.Short() {
		t.Skip("nightly sweep skipped in -short mode")
	}
	seeds := fleetSweepSeeds(t, 300)
	for seed := 0; seed < seeds; seed++ {
		seed := int64(seed)
		sched := FleetScheduleOf(seed)
		t.Run(sched.String()+"/"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			t.Parallel()
			r, err := RunFleetChaos(seed)
			if err != nil {
				t.Fatal(err)
			}
			checkFleetInvariants(t, r)
		})
	}
}
