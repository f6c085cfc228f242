package viprof

import (
	"fmt"
	"strings"
	"testing"

	"viprof/internal/fleet"
	"viprof/internal/harness"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// fleetBenchDeltas is each host's delta count: large enough that store
// replay is measurably more than constant overhead, small enough that
// the 16-host cells stay quick.
const fleetBenchDeltas = 40

// fleetBenchResult carries one fleet bench cell's verified outcome.
type fleetBenchResult struct {
	Samples uint64
	// JournalFrames is what the offline replay walked (== successful
	// journal writes plus compacted frames; the recovery cost scales
	// with it).
	JournalFrames int
	// Restarts counts injected shard crashes survived (crash cell
	// only).
	Restarts uint64
}

// fleetBenchRun runs one deterministic fleet ingestion: the given
// number of hosts ship their full runs (epoch code maps first, then
// fleetBenchDeltas sample deltas each) through the simulated network
// into the collector shards' write-ahead journals on a machine with
// the given core count, and the store is then replayed offline — the
// recovery path a supervisor restart takes. With crash set, a scripted
// fault plan kills collector shards mid-append so the run includes
// failover, supervisor restarts, and an under-fire store replay. The
// in-memory per-host oracles, the live aggregate and the replayed
// aggregate must agree key by key, every replicated code map must
// match what its sender published, a fault-free run must not be
// degraded, and a crash run must have restarted.
func fleetBenchRun(hosts, cores int, crash bool) (fleetBenchResult, error) {
	var res fleetBenchResult
	m := harness.BuildMachine(cores, int64(hosts)*1000+int64(cores)*17+7)
	if crash {
		m.Kern.SetFaultInjectors(kernel.FaultPlan{
			Seed:       int64(hosts),
			PathPrefix: fleet.JournalPrefix,
			Script: []kernel.FaultPoint{
				{Write: 5, Kind: kernel.FaultCrash},
				{Write: 5 + 4*hosts, Kind: kernel.FaultCrash},
			},
		})
	}
	cfg := fleet.FleetConfig{
		Hosts:         hosts,
		DeltasPerHost: fleetBenchDeltas,
		Seed:          int64(hosts)*101 + 3,
	}
	r, err := fleet.RunFleet(m, cfg)
	if err != nil {
		return res, err
	}
	if r.RunErr != nil {
		return res, r.RunErr
	}
	cons := fleet.CheckConservation(r.Senders, r.Collector.Aggregate())
	if !cons.Balanced() {
		return res, fmt.Errorf("fleetbench: live aggregate unbalanced: %v", cons.Mismatches)
	}
	if r.Replayed != nil {
		rcons := fleet.CheckConservation(r.Senders, r.Replayed)
		if !rcons.Balanced() {
			return res, fmt.Errorf("fleetbench: replayed aggregate unbalanced: %v", rcons.Mismatches)
		}
		if bad := fleet.CheckMapReplication(r.Senders, r.Replayed); len(bad) > 0 {
			return res, fmt.Errorf("fleetbench: map replication violated: %v", bad)
		}
	}
	if !crash && r.Integrity.Degraded() {
		return res, fmt.Errorf("fleetbench: fault-free run degraded")
	}
	res = fleetBenchResult{
		Samples:       r.Collector.Aggregate().Total(),
		JournalFrames: r.Replay.Deltas + r.Replay.Maps + r.Replay.Duplicates,
		Restarts:      r.Collector.Stats().Restarts,
	}
	if crash && res.Restarts == 0 {
		return res, fmt.Errorf("fleetbench: crash cell survived without a restart")
	}
	return res, nil
}

// TestFleetBenchConserves runs every (hosts, cores, clean/crash) cell
// through fleetBenchRun's checks and pins each cell's sample and
// journal-frame counts and the crash cells' restarts. A sender draws
// its retry backoffs from the random stream that also fills its
// deltas, so a crash cell's sample count follows where the failovers
// fall and differs between one core and four; a clean cell's does
// not. The 4-host cells run in
// short mode too, so the race run covers one- and four-core
// collectors; the 8- and 16-host cells skip there.
func TestFleetBenchConserves(t *testing.T) {
	for _, cell := range []struct {
		hosts  int
		frames int
		// samples is the clean cells' count; crash is the crash
		// cells' count on one core and on four.
		samples uint64
		crash   [2]uint64
	}{
		{4, 172, 1600, [2]uint64{1583, 1597}},
		{8, 344, 3169, [2]uint64{3182, 3192}},
		{16, 688, 6351, [2]uint64{6366, 6361}},
	} {
		if cell.hosts > 4 && testing.Short() {
			continue
		}
		for i, cores := range []int{1, 4} {
			clean, err := fleetBenchRun(cell.hosts, cores, false)
			if err != nil {
				t.Fatalf("hosts=%d cores=%d clean: %v", cell.hosts, cores, err)
			}
			if clean.Samples != cell.samples || clean.JournalFrames != cell.frames {
				t.Errorf("hosts=%d cores=%d clean: %d samples, %d journal frames; want %d, %d",
					cell.hosts, cores, clean.Samples, clean.JournalFrames, cell.samples, cell.frames)
			}
			crashed, err := fleetBenchRun(cell.hosts, cores, true)
			if err != nil {
				t.Fatalf("hosts=%d cores=%d crash: %v", cell.hosts, cores, err)
			}
			if crashed.Samples != cell.crash[i] || crashed.JournalFrames != cell.frames || crashed.Restarts != 2 {
				t.Errorf("hosts=%d cores=%d crash: %d samples, %d journal frames, %d restarts; want %d, %d, 2",
					cell.hosts, cores, crashed.Samples, crashed.JournalFrames, crashed.Restarts, cell.crash[i], cell.frames)
			}
		}
	}
}

// TestFleetArchiveRoundTrip dumps a fleet run (with network dups, so
// the journal holds real duplicate absorption evidence, and a running
// compactor, so the archive holds a committed generation too) to a
// real directory and re-queries it through the offline archive path
// used by vipreport -fleet / vipdiff -fleet — including a windowed
// query, the vipreport -window path.
func TestFleetArchiveRoundTrip(t *testing.T) {
	m := harness.BuildMachine(2, 11)
	cfg := fleet.FleetConfig{
		Hosts: 3, DeltasPerHost: 8, Seed: 11,
		Net: fleet.NetFaultPlan{Seed: 12, PDup: 0.3},
	}
	cfg.Collector.CompactEveryCycles = 300_000
	res, err := fleet.RunFleet(m, cfg)
	if err != nil || res.RunErr != nil {
		t.Fatalf("run: %v / %v", err, res.RunErr)
	}
	dir := t.TempDir()
	if err := m.Kern.Disk().DumpTo(dir); err != nil {
		t.Fatal(err)
	}
	v, err := LoadFleetArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := v.Aggregate.Total(), res.Collector.Aggregate().Total(); got != want {
		t.Fatalf("archived replay total %d, live %d", got, want)
	}
	cons := fleet.CheckConservation(res.Senders, v.Aggregate)
	if !cons.Balanced() {
		t.Fatalf("archived aggregate unbalanced: %v", cons.Mismatches)
	}
	out := v.Render(10)
	if !strings.Contains(out, "status: clean") || !strings.Contains(out, "per-host:") {
		t.Fatalf("render missing sections:\n%s", out)
	}
	// The senders shipped epoch code maps before any samples, so every
	// JIT row must come out symbolized — method signatures, not the
	// anonymous JIT bucket, and nothing left unresolved.
	if strings.Contains(out, "unresolved by the replicated maps") {
		t.Fatalf("JIT samples left unsymbolized:\n%s", out)
	}
	if !strings.Contains(out, "LFleet;") {
		t.Fatalf("no symbolized JIT method rows in render:\n%s", out)
	}
	// Windowed render: an interior window must show fewer samples than
	// the full render and carry the window banner.
	min, max, ok := v.Aggregate.TimeBounds()
	if !ok || max <= min {
		t.Fatalf("no time bounds in archive: %d..%d ok=%v", min, max, ok)
	}
	mid := min + (max-min)/2
	win := v.RenderWindow(10, min, mid)
	if !strings.Contains(win, "window: [") {
		t.Fatalf("windowed render missing banner:\n%s", win)
	}
	// The view caches per-host render state on first render; no window
	// may leak through it. Re-rendering the whole aggregate on the same
	// view must repeat the first render, and a fresh view must render
	// the window exactly as the cached one did.
	if again := v.Render(10); again != out {
		t.Fatalf("second render on the cached view differs:\n%s\nfirst:\n%s", again, out)
	}
	fresh, err := LoadFleetArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fw := fresh.RenderWindow(10, min, mid); fw != win {
		t.Fatalf("fresh view window render differs from the cached view's:\n%s\ncached:\n%s", fw, win)
	}
	sum := func(counts map[oprofile.Key]uint64) (n uint64) {
		for _, c := range counts {
			n += c
		}
		return n
	}
	full := v.Aggregate.Total()
	lo := sum(v.Aggregate.QueryWindow(0, mid))
	hi := sum(v.Aggregate.QueryWindow(mid, ^uint64(0)))
	if lo+hi != full {
		t.Fatalf("window partition broken: %d + %d != %d", lo, hi, full)
	}
	diff, err := DiffFleetArchives(dir, dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(diff, "+0.00%") && !strings.Contains(diff, "0.00%") {
		t.Fatalf("self-diff should be all zeros:\n%s", diff)
	}
}
