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
	"fmt"
	"sort"
	"strings"

	"viprof/internal/core"
	"viprof/internal/fleet"
	"viprof/internal/kernel"
	"viprof/internal/oprofile"
)

// FleetView is a loaded fleet archive, ready for rendering or diffing.
// It is a read-only snapshot: the first render caches every host's
// code-map chain and seq-sorted records, so the Aggregate must not
// change after that, and a view is not safe for concurrent use.
type FleetView struct {
	Aggregate *fleet.Aggregate
	Replay    fleet.JournalReplay
	Integrity *fleet.FleetIntegrity

	// hosts is the per-host render state, filled on first render
	// (callers build views as literals).
	hosts []fleetHost
}

// fleetHost is one host's render state: its applied records in seq
// order and the chain over its replicated code maps (nil if it
// replicated none).
type fleetHost struct {
	id    int
	recs  []*fleet.DeltaRec
	chain *core.MapChain
}

// hostState returns the per-host render state, building it on first
// use.
func (v *FleetView) hostState() []fleetHost {
	if v.hosts == nil {
		for _, h := range v.Aggregate.Hosts() {
			fh := fleetHost{id: h, recs: v.Aggregate.Records(h)}
			if maps := v.Aggregate.Maps(h); maps != nil {
				fh.chain = core.NewMapChain(maps)
			}
			v.hosts = append(v.hosts, fh)
		}
	}
	return v.hosts
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
// (0, ^uint64(0) = everything). JIT keys are symbolized through the
// host's replicated epoch code-map chain — the whole point of shipping
// maps over the wire: a fleet report names the compiled method, not an
// anonymous JIT bucket. Keys no chain resolves fold under the JIT
// image name and are counted in unresolved.
func (v *FleetView) fleetRows(from, to uint64) (rows []fleetRow, unresolved uint64) {
	cells := make(map[[2]string]uint64)
	for _, host := range v.hostState() {
		for _, rec := range host.recs {
			if rec.Kind != fleet.KindDelta || rec.At < from || rec.At >= to {
				continue
			}
			for k, c := range rec.Counts {
				label := k.Image
				if k.JIT {
					label = oprofile.JITImageName
					if host.chain != nil {
						if entry, _, ok := host.chain.Resolve(k.Epoch, k.Off); ok {
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

// Render prints the whole fleet aggregate (see RenderWindow).
func (v *FleetView) Render(maxRows int) string {
	return v.RenderWindow(maxRows, 0, ^uint64(0))
}

// RenderWindow prints the fleet aggregate the way vipreport -fleet
// shows it — per-image (and per-JIT-method, via the replicated code
// maps) totals with shares, per-host totals, the integrity block —
// restricted to sample deltas generated in [from, to) cycles.
func (v *FleetView) RenderWindow(maxRows int, from, to uint64) string {
	var sb strings.Builder
	windowed := from != 0 || to != ^uint64(0)
	rows, unresolved := v.fleetRows(from, to)
	var total uint64
	for _, r := range rows {
		total += r.samples
	}
	fmt.Fprintf(&sb, "fleet aggregate: %d samples from %d host(s), %d store frame(s)",
		total, len(v.hostState()), v.Replay.Deltas+v.Replay.Maps+v.Replay.Duplicates)
	if v.Replay.ManifestGen > 0 {
		fmt.Fprintf(&sb, ", generation %d", v.Replay.ManifestGen)
	}
	if windowed {
		fmt.Fprintf(&sb, "\nwindow: [%d, %d) cycles", from, to)
		if min, max, ok := v.Aggregate.TimeBounds(); ok {
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
	for _, h := range v.hostState() {
		fmt.Fprintf(&sb, "  host%02d  %8d samples  (max seq %d, %d map epoch(s))\n",
			h.id, v.Aggregate.HostTotal(h.id), v.Aggregate.MaxSeq(h.id), v.Aggregate.MapEpochs(h.id))
	}
	sb.WriteString("\n")
	sb.WriteString(fleet.FormatFleetIntegrity(v.Integrity))
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
