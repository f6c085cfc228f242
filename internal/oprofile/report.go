package oprofile

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"viprof/internal/hpc"
	"viprof/internal/image"
	"viprof/internal/kernel"
)

// Post-processing ("OProfile also includes postprocessing utilities to
// enable flexible reporting", §3). Post-processing is offline: it reads
// the sample files from the simulated disk and costs no simulated time.

// Row is one report line: counts per event for an (image, symbol) pair.
type Row struct {
	Image  string
	Symbol string
	Counts [hpc.NumEvents]uint64
}

// CPUTotals is one CPU's per-event sample totals — the report's
// per-CPU breakdown on SMP machines.
type CPUTotals struct {
	CPU    int
	Counts [hpc.NumEvents]uint64
}

// Report is an opreport-style symbol report.
type Report struct {
	Events []hpc.Event // column order
	Totals [hpc.NumEvents]uint64
	Rows   []Row // sorted descending by the first event's count

	// PerCPU splits Totals by the CPU each sample was taken on,
	// ascending by CPU id. The per-CPU entries always sum to Totals;
	// single-core runs have exactly one entry.
	PerCPU []CPUTotals

	// Integrity, when set, summarizes what was lost or damaged on the
	// way to this report (nil for purely in-memory reports).
	Integrity *Integrity
}

// Percent returns the row's share of the report total for an event.
func (r *Report) Percent(row Row, ev hpc.Event) float64 {
	if r.Totals[ev] == 0 {
		return 0
	}
	return 100 * float64(row.Counts[ev]) / float64(r.Totals[ev])
}

// Find returns the first row, in the primary sort order, whose symbol
// matches exactly.
func (r *Report) Find(symbol string) (Row, bool) {
	for _, row := range r.Rows {
		if row.Symbol == symbol {
			return row, true
		}
	}
	return Row{}, false
}

// FindImage returns the total counts of all rows under an image name,
// as one row whose symbol is "*".
func (r *Report) FindImage(img string) (Row, bool) {
	sum, found := Row{Image: img, Symbol: "*"}, false
	for _, row := range r.Rows {
		if row.Image == img {
			found = true
			for ev := range row.Counts {
				sum.Counts[ev] += row.Counts[ev]
			}
		}
	}
	if !found {
		return Row{}, false
	}
	return sum, true
}

// NoSymbols is the placeholder opreport prints for images without
// symbol tables.
const NoSymbols = "(no symbols)"

// Resolver maps an aggregation key to display (image, symbol) names.
// The baseline resolver knows only object-file symbol tables; the
// VIProf post-processor (internal/core) layers RVM.map and epoch code
// maps on top by wrapping one of these.
type Resolver interface {
	Resolve(k Key) (img, symbol string)
}

// ELFResolver resolves keys against ordinary symbol tables, exactly
// like opreport: file-backed samples resolve to a symbol when the image
// has one; anonymous, JIT, and symbol-less images come out as
// "(no symbols)".
type ELFResolver struct {
	// Images maps image name to its symbol table. Entries may be
	// missing (stripped binaries, the RVM boot image's internal
	// format).
	Images map[string]*image.Image
}

// Resolve implements Resolver.
func (r *ELFResolver) Resolve(k Key) (string, string) {
	if k.JIT {
		// Plain OProfile has no JIT keys; if the extended driver logged
		// them but the baseline post-processor is used, they are opaque.
		return JITImageName, NoSymbols
	}
	im, ok := r.Images[k.Image]
	if !ok || im == nil || im.NumSymbols() == 0 {
		return k.Image, NoSymbols
	}
	if s, found := im.Resolve(k.Off); found {
		return k.Image, s.Name
	}
	return k.Image, NoSymbols
}

// BuildReport aggregates raw counts into a symbol report using the
// given resolver and event column order.
func BuildReport(counts map[Key]uint64, res Resolver, events []hpc.Event) *Report {
	type rowKey struct{ img, sym string }
	agg := make(map[rowKey]*Row)
	cpuAgg := make(map[int]*CPUTotals)
	rep := &Report{Events: events}
	for k, c := range counts {
		img, sym := res.Resolve(k)
		rk := rowKey{img, sym}
		row, ok := agg[rk]
		if !ok {
			row = &Row{Image: img, Symbol: sym}
			agg[rk] = row
		}
		row.Counts[k.Event] += c
		rep.Totals[k.Event] += c
		ct, ok := cpuAgg[k.CPU]
		if !ok {
			ct = &CPUTotals{CPU: k.CPU}
			cpuAgg[k.CPU] = ct
		}
		ct.Counts[k.Event] += c
	}
	for _, ct := range cpuAgg {
		rep.PerCPU = append(rep.PerCPU, *ct)
	}
	sort.Slice(rep.PerCPU, func(i, j int) bool { return rep.PerCPU[i].CPU < rep.PerCPU[j].CPU })
	rep.Rows = make([]Row, 0, len(agg))
	for _, row := range agg {
		rep.Rows = append(rep.Rows, *row)
	}
	primary := hpc.GlobalPowerEvents
	if len(events) > 0 {
		primary = events[0]
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.Counts[primary] != b.Counts[primary] {
			return a.Counts[primary] > b.Counts[primary]
		}
		if a.Image != b.Image {
			return a.Image < b.Image
		}
		return a.Symbol < b.Symbol
	})
	return rep
}

// Opreport reads the sample file from disk and builds the baseline
// (JIT-blind) report — the lower half of the paper's Figure 1.
func Opreport(disk *kernel.Disk, images map[string]*image.Image, events []hpc.Event) (*Report, error) {
	data, err := disk.Read(SampleFile)
	if err != nil {
		return nil, fmt.Errorf("opreport: %v", err)
	}
	counts, err := ReadCounts(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return BuildReport(counts, &ELFResolver{Images: images}, events), nil
}

// eventLabel returns the percentage-column header for an event, as the
// paper's Figure 1 captions them.
func eventLabel(ev hpc.Event) string {
	switch ev {
	case hpc.GlobalPowerEvents:
		return "Time %"
	case hpc.BSQCacheReference:
		return "Dmiss %"
	default:
		return ev.String() + " %"
	}
}

// Format renders the report in Figure 1's layout: one percentage column
// per event, then image and symbol names. maxRows <= 0 prints all rows.
func Format(w io.Writer, r *Report, maxRows int) error {
	for _, ev := range r.Events {
		if _, err := fmt.Fprintf(w, "%-9s", eventLabel(ev)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-28s %s\n", "Image name", "Symbol name"); err != nil {
		return err
	}
	n := len(r.Rows)
	if maxRows > 0 && maxRows < n {
		n = maxRows
	}
	for _, row := range r.Rows[:n] {
		for _, ev := range r.Events {
			if _, err := fmt.Fprintf(w, "%-9.4f", r.Percent(row, ev)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%-28s %s\n", row.Image, row.Symbol); err != nil {
			return err
		}
	}
	// Per-CPU breakdown, SMP runs only: single-core reports stay
	// byte-identical to pre-SMP output.
	if len(r.PerCPU) > 1 {
		if _, err := fmt.Fprintf(w, "\nSamples by CPU:\n"); err != nil {
			return err
		}
		for _, ct := range r.PerCPU {
			if _, err := fmt.Fprintf(w, "  cpu%-3d", ct.CPU); err != nil {
				return err
			}
			for _, ev := range r.Events {
				pct := 0.0
				if r.Totals[ev] > 0 {
					pct = 100 * float64(ct.Counts[ev]) / float64(r.Totals[ev])
				}
				if _, err := fmt.Fprintf(w, " %s=%d (%.1f%%)", ev, ct.Counts[ev], pct); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}
