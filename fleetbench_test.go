package viprof

import (
	"strings"
	"testing"

	"viprof/internal/fleet"
	"viprof/internal/harness"
	"viprof/internal/oprofile"
)

// TestFleetBenchConserves pins the bench harness's own verification:
// both cells (clean and crash) run conserved at a small host count, on
// one core and on four (the new SMP axis — shards pinned across
// cores).
func TestFleetBenchConserves(t *testing.T) {
	for _, cores := range []int{1, 4} {
		for _, crash := range []bool{false, true} {
			r, err := FleetBenchRun(4, cores, crash)
			if err != nil {
				t.Fatalf("cores=%d crash=%v: %v", cores, crash, err)
			}
			if r.Samples == 0 || r.JournalFrames == 0 {
				t.Fatalf("cores=%d crash=%v: empty run: %+v", cores, crash, r)
			}
			if crash && r.Restarts == 0 {
				t.Fatalf("cores=%d: crash cell did not restart: %+v", cores, r)
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

// BenchmarkFleetIngest is the bench-smoke entry: one full fleet
// ingestion (8 hosts on 2 cores) per iteration, conservation-checked.
func BenchmarkFleetIngest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := FleetBenchRun(8, 2, false)
		if err != nil {
			b.Fatal(err)
		}
		if r.Samples == 0 {
			b.Fatal("empty run")
		}
	}
}
