// vipbench regenerates the paper's evaluation — Figure 1 (the case
// study report pair), Figure 2 (profiling overhead) and Figure 3 (base
// execution times), plus the activity table behind the overhead
// explanations — end to end on the simulated machine.
//
//	vipbench -fig all                 # everything at paper scale, 10 runs
//	vipbench -fig 2 -scale 0.2 -runs 3  # a quick look
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"viprof"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run regenerates the figures args select and returns the exit status:
// 2 for a bad flag or -fig value, 1 when a figure fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vipbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig   = fs.String("fig", "all", "which figure: 1, 2, 3, activity or all")
		scale = fs.Float64("scale", 1.0, "workload scale (1.0 = paper length)")
		runs  = fs.Int("runs", 10, "repetitions per cell (paper uses 10)")
		seed  = fs.Int64("seed", 1, "noise seed")
		rows  = fs.Int("rows", 14, "Figure 1 report rows")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	// In -fig all order.
	figures := []struct {
		key, name string
		run       func() (string, error)
	}{
		{"1", "Figure 1", func() (string, error) { return viprof.RunFigure1(*scale, *seed, *rows) }},
		{"3", "Figure 3", func() (string, error) { return viprof.RunFigure3(*scale, *runs, *seed) }},
		{"2", "Figure 2", func() (string, error) { return viprof.RunFigure2(*scale, *runs, *seed) }},
		{"activity", "Activity table", func() (string, error) { return viprof.RunActivityTable(*scale, *seed) }},
	}
	known := *fig == "all"
	for _, f := range figures {
		known = known || f.key == *fig
	}
	if !known {
		fmt.Fprintf(stderr, "vipbench: unknown -fig %q (want 1, 2, 3, activity or all)\n", *fig)
		return 2
	}
	for _, f := range figures {
		if *fig != "all" && *fig != f.key {
			continue
		}
		start := time.Now()
		text, err := f.run()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", f.name, err)
			return 1
		}
		fmt.Fprintln(stdout, text)
		fmt.Fprintf(stdout, "[%s regenerated in %.0fs]\n\n", f.name, time.Since(start).Seconds())
	}
	return 0
}
