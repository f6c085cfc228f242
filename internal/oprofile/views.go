package oprofile

import (
	"fmt"
	"io"
	"sort"

	"viprof/internal/addr"
	"viprof/internal/hpc"
)

// Additional report views mirroring opreport's:
//
//   - the image summary (opreport with no arguments): one row per
//     binary image, sorted by the primary event;
//   - the details view (opreport -d): per-offset sample counts within
//     one image, the finest granularity the sample files hold.

// ImageSummary aggregates the report's rows by image, one row per
// image with symbol "*", sorted by the primary event's count (ties by
// image name).
func (r *Report) ImageSummary() []Row {
	var out []Row
	at := make(map[string]int)
	for _, row := range r.Rows {
		j, ok := at[row.Image]
		if !ok {
			j = len(out)
			at[row.Image] = j
			out = append(out, Row{Image: row.Image, Symbol: "*"})
		}
		for ev := range row.Counts {
			out[j].Counts[ev] += row.Counts[ev]
		}
	}
	primary := hpc.GlobalPowerEvents
	if len(r.Events) > 0 {
		primary = r.Events[0]
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Counts[primary] != out[j].Counts[primary] {
			return out[i].Counts[primary] > out[j].Counts[primary]
		}
		return out[i].Image < out[j].Image
	})
	return out
}

// FormatImageSummary renders the image summary (opreport's default
// output shape).
func FormatImageSummary(w io.Writer, r *Report, maxRows int) error {
	for _, ev := range r.Events {
		if _, err := fmt.Fprintf(w, "%-9s", eventLabel(ev)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "Image name"); err != nil {
		return err
	}
	rows := r.ImageSummary()
	if maxRows > 0 && maxRows < len(rows) {
		rows = rows[:maxRows]
	}
	for _, row := range rows {
		for _, ev := range r.Events {
			if _, err := fmt.Fprintf(w, "%-9.4f", r.Percent(row, ev)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, row.Image); err != nil {
			return err
		}
	}
	return nil
}

// Detail is one offset's sample count inside an image (opreport -d).
type Detail struct {
	Off    addr.Address
	Symbol string
	Counts [hpc.NumEvents]uint64
}

// DetailsFor extracts per-offset counts for every key whose resolved
// display image matches imageName. Offsets within a symbol show where
// inside the function the samples landed — the "pinpoint the method"
// granularity §3 describes, one level finer.
func DetailsFor(counts map[Key]uint64, res Resolver, imageName string) []Detail {
	agg := make(map[addr.Address]*Detail)
	for k, c := range counts {
		img, sym := res.Resolve(k)
		if img != imageName {
			continue
		}
		d, ok := agg[k.Off]
		if !ok {
			d = &Detail{Off: k.Off, Symbol: sym}
			agg[k.Off] = d
		}
		d.Counts[k.Event] += c
	}
	out := make([]Detail, 0, len(agg))
	for _, d := range agg {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// FormatDetails renders the details view.
func FormatDetails(w io.Writer, details []Detail, events []hpc.Event, maxRows int) error {
	if _, err := fmt.Fprintf(w, "%-12s", "offset"); err != nil {
		return err
	}
	for _, ev := range events {
		if _, err := fmt.Fprintf(w, "%-10s", ev.String()[:min(9, len(ev.String()))]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "symbol"); err != nil {
		return err
	}
	if maxRows > 0 && maxRows < len(details) {
		details = details[:maxRows]
	}
	for _, d := range details {
		if _, err := fmt.Fprintf(w, "%-12s", d.Off); err != nil {
			return err
		}
		for _, ev := range events {
			if _, err := fmt.Fprintf(w, "%-10d", d.Counts[ev]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, d.Symbol); err != nil {
			return err
		}
	}
	return nil
}
