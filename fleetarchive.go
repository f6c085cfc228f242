package viprof

// Fleet archives: a fleet run dumped to a real directory (the
// collector journal, aggregate snapshot, per-host stats and spill
// files) can be re-queried offline by vipreport -fleet and compared by
// vipdiff -fleet, with no simulation state — the same
// archive-then-post-process shape the per-host profile tools use. The
// authoritative source is always the write-ahead journal: loading an
// archive replays it through the same idempotent path the collector's
// own crash recovery uses, then cross-checks the snapshot against the
// replay.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"viprof/internal/core"
	"viprof/internal/fleet"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// FleetView is a loaded fleet archive, ready for rendering or diffing.
// It is a read-only snapshot: the first render folds every record and
// formats the text no window changes, so neither the Aggregate nor the
// Integrity may change after that, and a view is not safe for
// concurrent use.
type FleetView struct {
	Aggregate *fleet.Aggregate
	Replay    fleet.JournalReplay
	Integrity *fleet.FleetIntegrity

	// fold is the render state, built on first render (callers build
	// views as literals).
	fold *fleetFold
}

// fleetFold is a view's delta records read once: each record's samples
// summed per (event, label) cell, records in (At, host, seq) order, so
// that a window is a contiguous run of items; and the text that is the
// same for every window.
type fleetFold struct {
	recs  []foldRec
	items []foldItem
	// cells names each cell id; their samples stay 0.
	cells []fleetRow
	hosts int
	// bounds is " of [min, max]" over every applied record ("" when
	// there is none); tail is the per-host block and the integrity
	// block.
	bounds, tail string

	// fleetRows' scratch, reused across windows: sums and seen are
	// indexed by cell and zero between calls (only the touched cells
	// are reset); rows backs the returned slice.
	sums    []uint64
	seen    []bool
	touched []int
	rows    []fleetRow
}

// foldRec is one delta record: its generation cycle, the end of its
// items (they start where the previous record's end), and the samples
// of its JIT keys that the host's replicated maps do not resolve.
type foldRec struct {
	at         uint64
	end        int
	unresolved uint64
}

// foldItem is one record's samples in one cell.
type foldItem struct {
	cell    int
	samples uint64
}

// folded returns the view's render state, building it on first use.
// JIT keys are symbolized through the host's replicated epoch code-map
// chain — the whole point of shipping maps over the wire: a fleet
// report names the compiled method, not an anonymous JIT bucket. Keys
// no chain resolves fold under the JIT image name and count as
// unresolved, and so do keys a lost map epoch leaves in doubt: an
// epoch past the host's replicated chain, or a hit a missing epoch's
// map could have shadowed (ResolveDurable).
func (v *FleetView) folded() *fleetFold {
	if v.fold != nil {
		return v.fold
	}
	agg := v.Aggregate
	f := &fleetFold{}
	hosts := agg.Hosts()
	chains := make(map[int]*core.MapChain, len(hosts))
	var tail strings.Builder
	tail.WriteString("\nper-host:\n")
	for _, h := range hosts {
		chains[h] = agg.MapChain(h)
		fmt.Fprintf(&tail, "  host%02d  %8d samples  (max seq %d, %d map epoch(s))\n",
			h, agg.HostTotal(h), agg.MaxSeq(h), agg.MapEpochs(h))
	}
	tail.WriteString("\n")
	tail.WriteString(fleet.FormatFleetIntegrity(v.Integrity))
	f.hosts, f.tail = len(hosts), tail.String()
	if min, max, ok := agg.TimeBounds(); ok {
		f.bounds = fmt.Sprintf(" of [%d, %d]", min, max)
	}

	ids := make(map[[2]string]int)
	// slot[cell] is the cell's item in the record being folded, when it
	// is at or past that record's first item.
	var slot []int
	for _, rec := range agg.Window(0, ^uint64(0)) {
		if rec.Kind != fleet.KindDelta {
			continue
		}
		first := len(f.items)
		fr := foldRec{at: rec.At}
		chain := chains[rec.Host]
		for _, kc := range rec.Counts {
			k, c := kc.Key, kc.Count
			label := k.Image
			if k.JIT {
				label = oprofile.JITImageName
				if chain == nil {
					fr.unresolved += c
				} else if entry, _, ok := chain.ResolveDurable(k.Epoch, k.Off); ok {
					label = entry.Sig
				} else {
					fr.unresolved += c
				}
			}
			name := [2]string{k.Event.String(), label}
			id, ok := ids[name]
			if !ok {
				id = len(f.cells)
				ids[name] = id
				f.cells = append(f.cells, fleetRow{event: name[0], image: name[1]})
				slot = append(slot, -1)
			}
			if slot[id] < first {
				slot[id] = len(f.items)
				f.items = append(f.items, foldItem{cell: id})
			}
			f.items[slot[id]].samples += c
		}
		fr.end = len(f.items)
		f.recs = append(f.recs, fr)
	}
	f.sums = make([]uint64, len(f.cells))
	f.seen = make([]bool, len(f.cells))
	v.fold = f
	return f
}

// LoadFleetArchive replays the durable fleet store (the compacted
// generation plus every shard journal) from an archive directory and
// assembles the fleet integrity block. Network counters are not
// persisted (they die with the run), so the offline integrity judges
// only the durable evidence.
func LoadFleetArchive(dir string) (*FleetView, error) {
	disk, err := kernel.LoadDiskFrom(dir)
	if err != nil {
		return nil, err
	}
	agg, rep, err := fleet.LoadStore(disk, 0)
	if err != nil {
		return nil, fmt.Errorf("viprof: replaying fleet store: %v", err)
	}
	fi := fleet.AssembleIntegrity(disk, agg, rep, agg.Hosts(), fleet.NetFaultStats{})
	return &FleetView{Aggregate: agg, Replay: rep, Integrity: fi}, nil
}

// fleetRow is one (event, image-or-method) cell of the fleet aggregate.
type fleetRow struct {
	event, image string
	samples      uint64
}

// fleetRows folds the aggregate per (event, label) over the sample
// deltas generated in [from, to) on the sender cycle clock
// (0, ^uint64(0) = everything): a binary search for the window's
// records and a sum over their items. A cell any in-window key touched
// is a row, even at 0 samples. The rows live in the view's scratch and
// are valid until the next fleetRows on the same view.
func (v *FleetView) fleetRows(from, to uint64) (rows []fleetRow, unresolved uint64) {
	f := v.folded()
	lo := sort.Search(len(f.recs), func(i int) bool { return f.recs[i].at >= from })
	hi := lo + sort.Search(len(f.recs)-lo, func(i int) bool { return f.recs[lo+i].at >= to })
	start := func(r int) int {
		if r == 0 {
			return 0
		}
		return f.recs[r-1].end
	}
	for _, r := range f.recs[lo:hi] {
		unresolved += r.unresolved
	}
	touched := f.touched[:0]
	for _, it := range f.items[start(lo):start(hi)] {
		if !f.seen[it.cell] {
			f.seen[it.cell] = true
			touched = append(touched, it.cell)
		}
		f.sums[it.cell] += it.samples
	}
	rows = f.rows[:0]
	for _, id := range touched {
		row := f.cells[id]
		row.samples = f.sums[id]
		rows = append(rows, row)
		f.sums[id], f.seen[id] = 0, false
	}
	f.touched, f.rows = touched, rows
	slices.SortFunc(rows, func(a, b fleetRow) int {
		if a.samples != b.samples {
			return cmp.Compare(b.samples, a.samples)
		}
		if a.event != b.event {
			return strings.Compare(a.event, b.event)
		}
		return strings.Compare(a.image, b.image)
	})
	return rows, unresolved
}

// Render prints the whole fleet aggregate (see RenderWindow).
func (v *FleetView) Render(maxRows int) string {
	return v.RenderWindow(maxRows, 0, ^uint64(0))
}

// RenderWindow prints the fleet aggregate the way vipreport -fleet
// shows it — per-image (and per-JIT-method, via the replicated code
// maps) totals with shares, per-host totals, the integrity block —
// restricted to sample deltas generated in [from, to) cycles.
func (v *FleetView) RenderWindow(maxRows int, from, to uint64) string {
	f := v.folded()
	rows, unresolved := v.fleetRows(from, to)
	var sb strings.Builder
	shown := len(rows)
	if maxRows > 0 && shown > maxRows {
		shown = maxRows + 1
	}
	// About 64 bytes per row line, 200 for the banner and header lines.
	sb.Grow(200 + 64*shown + len(f.tail))
	var total uint64
	for _, r := range rows {
		total += r.samples
	}
	fmt.Fprintf(&sb, "fleet aggregate: %d samples from %d host(s), %d store frame(s)",
		total, f.hosts, v.Replay.Deltas+v.Replay.Maps+v.Replay.Duplicates)
	if v.Replay.ManifestGen > 0 {
		fmt.Fprintf(&sb, ", generation %d", v.Replay.ManifestGen)
	}
	if from != 0 || to != ^uint64(0) {
		fmt.Fprintf(&sb, "\nwindow: [%d, %d) cycles%s", from, to, f.bounds)
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
	sb.WriteString(f.tail)
	return sb.String()
}

// DiffFleetArchives compares two fleet archives and prints the
// (event, image) cells whose share of the fleet-wide total moved the
// most — the fleet-level analogue of vipdiff's symbol view.
func DiffFleetArchives(beforeDir, afterDir string, maxRows int) (string, error) {
	before, err := LoadFleetArchive(beforeDir)
	if err != nil {
		return "", fmt.Errorf("before: %w", err)
	}
	after, err := LoadFleetArchive(afterDir)
	if err != nil {
		return "", fmt.Errorf("after: %w", err)
	}
	share := func(v *FleetView) map[[2]string]float64 {
		total := v.Aggregate.Total()
		out := make(map[[2]string]float64)
		if total == 0 {
			return out
		}
		rows, _ := v.fleetRows(0, ^uint64(0))
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
	return sb.String(), nil
}
