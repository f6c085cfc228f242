package viprof

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"viprof/internal/core"
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
	// disk is the collector machine's disk: the fleet store an archive
	// dump holds.
	disk *kernel.Disk
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
		disk:          m.Kern.Disk(),
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

// refFleetRows is the scan-based fleetRows that the view's fold
// replaced, kept as the reference: every call walks each host's
// records in seq order and resolves every in-window JIT key through a
// chain built from the host's maps.
func refFleetRows(v *FleetView, from, to uint64) (rows []fleetRow, unresolved uint64) {
	cells := make(map[[2]string]uint64)
	for _, h := range v.Aggregate.Hosts() {
		var chain *core.MapChain
		if maps := v.Aggregate.Maps(h); maps != nil {
			chain = core.NewMapChain(maps)
		}
		for _, rec := range v.Aggregate.Records(h) {
			if rec.Kind != fleet.KindDelta || rec.At < from || rec.At >= to {
				continue
			}
			for k, c := range rec.Counts {
				label := k.Image
				if k.JIT {
					label = oprofile.JITImageName
					if chain != nil {
						if entry, _, ok := chain.Resolve(k.Epoch, k.Off); ok {
							label = entry.Sig
						} else {
							unresolved += c
						}
					} else {
						unresolved += c
					}
				}
				cells[[2]string{k.Event.String(), label}] += c
			}
		}
	}
	rows = make([]fleetRow, 0, len(cells))
	for cell, c := range cells {
		rows = append(rows, fleetRow{event: cell[0], image: cell[1], samples: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].samples != rows[j].samples {
			return rows[i].samples > rows[j].samples
		}
		if rows[i].event != rows[j].event {
			return rows[i].event < rows[j].event
		}
		return rows[i].image < rows[j].image
	})
	return rows, unresolved
}

// refTimeBounds is the scan-based Aggregate.TimeBounds.
func refTimeBounds(agg *fleet.Aggregate) (min, max uint64, ok bool) {
	for _, h := range agg.Hosts() {
		for _, rec := range agg.Records(h) {
			if !ok || rec.At < min {
				min = rec.At
			}
			if !ok || rec.At > max {
				max = rec.At
			}
			ok = true
		}
	}
	return min, max, ok
}

// refRenderWindow is RenderWindow as it was before the fold: every
// call rescans the records and formats every block again.
func refRenderWindow(v *FleetView, maxRows int, from, to uint64) string {
	var sb strings.Builder
	windowed := from != 0 || to != ^uint64(0)
	rows, unresolved := refFleetRows(v, from, to)
	var total uint64
	for _, r := range rows {
		total += r.samples
	}
	hosts := v.Aggregate.Hosts()
	fmt.Fprintf(&sb, "fleet aggregate: %d samples from %d host(s), %d store frame(s)",
		total, len(hosts), v.Replay.Deltas+v.Replay.Maps+v.Replay.Duplicates)
	if v.Replay.ManifestGen > 0 {
		fmt.Fprintf(&sb, ", generation %d", v.Replay.ManifestGen)
	}
	if windowed {
		fmt.Fprintf(&sb, "\nwindow: [%d, %d) cycles", from, to)
		if min, max, ok := refTimeBounds(v.Aggregate); ok {
			fmt.Fprintf(&sb, " of [%d, %d]", min, max)
		}
	}
	sb.WriteString("\n\n")
	fmt.Fprintf(&sb, "%-10s %7s  %-24s %s\n", "samples", "%", "image/method", "event")
	for i, r := range rows {
		if maxRows > 0 && i >= maxRows {
			fmt.Fprintf(&sb, "  ... %d more row(s)\n", len(rows)-i)
			break
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.samples) / float64(total)
		}
		fmt.Fprintf(&sb, "%-10d %6.2f%%  %-24s %s\n", r.samples, share, r.image, r.event)
	}
	if unresolved > 0 {
		fmt.Fprintf(&sb, "  (%d JIT samples unresolved by the replicated maps)\n", unresolved)
	}
	sb.WriteString("\nper-host:\n")
	for _, h := range hosts {
		fmt.Fprintf(&sb, "  host%02d  %8d samples  (max seq %d, %d map epoch(s))\n",
			h, v.Aggregate.HostTotal(h), v.Aggregate.MaxSeq(h), v.Aggregate.MapEpochs(h))
	}
	sb.WriteString("\n")
	sb.WriteString(fleet.FormatFleetIntegrity(v.Integrity))
	return sb.String()
}

// refDiffFleetViews is DiffFleetArchives' output as it was computed
// from refFleetRows.
func refDiffFleetViews(before, after *FleetView, maxRows int) string {
	share := func(v *FleetView) map[[2]string]float64 {
		total := v.Aggregate.Total()
		out := make(map[[2]string]float64)
		if total == 0 {
			return out
		}
		rows, _ := refFleetRows(v, 0, ^uint64(0))
		for _, r := range rows {
			out[[2]string{r.event, r.image}] = 100 * float64(r.samples) / float64(total)
		}
		return out
	}
	bs, as := share(before), share(after)
	type move struct {
		event, image string
		before, af   float64
	}
	var moves []move
	seen := make(map[[2]string]bool)
	for cell := range bs {
		seen[cell] = true
	}
	for cell := range as {
		seen[cell] = true
	}
	for cell := range seen {
		moves = append(moves, move{event: cell[0], image: cell[1], before: bs[cell], af: as[cell]})
	}
	abs := func(f float64) float64 {
		if f < 0 {
			return -f
		}
		return f
	}
	sort.Slice(moves, func(i, j int) bool {
		di, dj := abs(moves[i].af-moves[i].before), abs(moves[j].af-moves[j].before)
		if di != dj {
			return di > dj
		}
		if moves[i].event != moves[j].event {
			return moves[i].event < moves[j].event
		}
		return moves[i].image < moves[j].image
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet diff: %d -> %d samples\n\n", before.Aggregate.Total(), after.Aggregate.Total())
	fmt.Fprintf(&sb, "%8s  %8s  %8s  %-24s %s\n", "before", "after", "delta", "image", "event")
	for i, mv := range moves {
		if maxRows > 0 && i >= maxRows {
			fmt.Fprintf(&sb, "  ... %d more row(s)\n", len(moves)-i)
			break
		}
		fmt.Fprintf(&sb, "%7.2f%%  %7.2f%%  %+7.2f%%  %-24s %s\n",
			mv.before, mv.af, mv.af-mv.before, mv.image, mv.event)
	}
	degraded := func(v *FleetView) string {
		if v.Integrity.Degraded() {
			return "DEGRADED"
		}
		return "clean"
	}
	fmt.Fprintf(&sb, "\nintegrity: before %s, after %s\n", degraded(before), degraded(after))
	return sb.String()
}

// TestFleetRenderMatchesScan pins the view's fold and the aggregate's
// At index against the scans they replaced. On the 16-host, 4-core
// crash cell, 200 seeded windows and the edge windows (everything,
// before the first record, past the last, bounds on record
// timestamps, one-cycle and empty windows) render byte-identically
// through RenderWindow, Render and DiffFleetArchives, and the order a
// view renders windows in changes none of them.
func TestFleetRenderMatchesScan(t *testing.T) {
	archive := func(crash bool) string {
		res, err := fleetBenchRun(16, 4, crash)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := res.disk.DumpTo(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	load := func(dir string) *FleetView {
		v, err := LoadFleetArchive(dir)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	crashDir, cleanDir := archive(true), archive(false)
	v := load(crashDir)
	min, max, ok := refTimeBounds(v.Aggregate)
	if !ok || max <= min+1 {
		t.Fatalf("no time spread in the crash cell: [%d, %d] ok=%v", min, max, ok)
	}
	var ats []uint64
	for _, h := range v.Aggregate.Hosts() {
		for _, rec := range v.Aggregate.Records(h) {
			ats = append(ats, rec.At)
		}
	}
	// The crash cell resolves every JIT sample and holds no zero
	// counts, so records added before the first render cover the
	// rest: a JIT key no chain entry covers, a host with no maps, and
	// a key at 0 samples, whose cell must still be a row.
	mid := ats[len(ats)/2]
	for i, counts := range []map[oprofile.Key]uint64{
		{{Image: oprofile.JITImageName, Proc: "fleet", JIT: true, Epoch: 1, Off: 1}: 7},
		{{Image: oprofile.JITImageName, Proc: "fleet", JIT: true, Epoch: 1, Off: 0x6000_0000}: 5, {Image: "zero.so", Proc: "fleet"}: 0},
	} {
		host := []int{v.Aggregate.Hosts()[0], 99}[i]
		msg := &fleet.WireMsg{Kind: fleet.KindDelta, Host: host, Seq: 1_000_000, At: mid + uint64(i), Counts: counts}
		if !v.Aggregate.Apply(msg) {
			t.Fatalf("extra record for host %d not applied", host)
		}
		ats = append(ats, msg.At)
	}
	if !strings.Contains(v.Render(0), "zero.so") || !strings.Contains(v.Render(0), "12 JIT samples unresolved") {
		t.Fatalf("extra records missing from the render:\n%s", v.Render(0))
	}
	rng := rand.New(rand.NewSource(19))
	windows := [][2]uint64{
		{0, ^uint64(0)}, {0, min}, {0, min + 1}, {min - 1, min}, {max + 1, ^uint64(0)},
		{max, ^uint64(0)}, {min, max}, {min, max + 1}, {max, max + 1}, {min, min}, {max, min},
	}
	for i := 0; i < 40; i++ {
		a, b := ats[rng.Intn(len(ats))], ats[rng.Intn(len(ats))]
		windows = append(windows, [2]uint64{a, b}, [2]uint64{a, a + 1}, [2]uint64{a - 1, a}, [2]uint64{a, a})
	}
	width := (max - min + 1) / 10
	for i := 0; i < 200; i++ {
		from := min + uint64(rng.Int63n(int64(max-min+1-width)+1))
		windows = append(windows, [2]uint64{from, from + width})
	}
	for _, w := range windows {
		for _, rows := range []int{20, 0} {
			if got, want := v.RenderWindow(rows, w[0], w[1]), refRenderWindow(v, rows, w[0], w[1]); got != want {
				t.Fatalf("window [%d, %d) rows %d:\n%s\nscan renders:\n%s", w[0], w[1], rows, got, want)
			}
		}
	}
	for _, rows := range []int{10, 0} {
		if got, want := v.Render(rows), refRenderWindow(v, rows, 0, ^uint64(0)); got != want {
			t.Fatalf("Render(%d):\n%s\nscan renders:\n%s", rows, got, want)
		}
	}
	// A fresh view that renders the windows in reverse order must
	// render each as the scan does.
	fresh := load(crashDir)
	for i := len(windows) - 1; i >= 0; i -= 7 {
		w := windows[i]
		if got, want := fresh.RenderWindow(20, w[0], w[1]), refRenderWindow(fresh, 20, w[0], w[1]); got != want {
			t.Fatalf("window [%d, %d) after later windows:\n%s\nscan renders:\n%s", w[0], w[1], got, want)
		}
	}
	for _, dirs := range [][2]string{{cleanDir, crashDir}, {crashDir, cleanDir}, {crashDir, crashDir}} {
		for _, rows := range []int{10, 0} {
			got, err := DiffFleetArchives(dirs[0], dirs[1], rows)
			if err != nil {
				t.Fatal(err)
			}
			if want := refDiffFleetViews(load(dirs[0]), load(dirs[1]), rows); got != want {
				t.Fatalf("diff rows %d:\n%s\nscan diff:\n%s", rows, got, want)
			}
		}
	}
}

// TestFleetRowsWarmAllocsNothing: fleetRows keeps its per-cell sums,
// touched list and rows in the view's fold, so once a view has folded
// its widest window, a window's rows cost no allocation.
func TestFleetRowsWarmAllocsNothing(t *testing.T) {
	res, err := fleetBenchRun(4, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.disk.DumpTo(dir); err != nil {
		t.Fatal(err)
	}
	v, err := LoadFleetArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	min, max, ok := v.Aggregate.TimeBounds()
	if !ok || max <= min {
		t.Fatalf("no time spread: [%d, %d]", min, max)
	}
	all, _ := v.fleetRows(0, ^uint64(0))
	if len(all) == 0 {
		t.Fatal("no rows")
	}
	mid := min + (max-min)/2
	if n := testing.AllocsPerRun(50, func() { v.fleetRows(min, mid) }); n != 0 {
		t.Fatalf("warm fleetRows allocated %v times per call", n)
	}
	// The scratch must come back clean: a window after others renders
	// as the scan does.
	for _, w := range [][2]uint64{{mid, max + 1}, {min, mid}, {0, ^uint64(0)}} {
		got, _ := v.fleetRows(w[0], w[1])
		want, _ := refFleetRows(v, w[0], w[1])
		if !slices.Equal(got, want) {
			t.Fatalf("window [%d, %d): rows %v, scan %v", w[0], w[1], got, want)
		}
	}
}
