// viplint is the repository's invariant checker: a multichecker running
// the internal/lint pass suite (detrand, maporder, epoch-resolve,
// record-frame, errflow) over the module. It prints
// every unsuppressed diagnostic and exits 1 when any exist, 2 on
// operational errors — so `make lint` gates exactly like `go vet`.
//
// Usage:
//
//	viplint [-json] [-stats] [-waiver-audit=on|off] [packages]
//
// Package patterns are module-root-relative directories, with the go
// tool's "..." wildcard (default "./..."). -json emits the findings
// and per-pass stats as one JSON document; -stats appends a per-pass
// finding-count/wall-time table to the text output; -waiver-audit=off
// disables the stale //viplint:allow detection while bisecting.
package main

import (
	"flag"
	"fmt"
	"os"

	"viprof/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings and stats as JSON")
	stats := flag.Bool("stats", false, "print per-pass finding counts and wall time")
	audit := flag.String("waiver-audit", "on", "flag stale //viplint:allow directives (on|off)")
	flag.Parse()

	res, err := lint.RunOpts(flag.Args(), lint.Options{WaiverAudit: *audit != "off"})
	if err != nil {
		fmt.Fprintln(os.Stderr, "viplint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "viplint:", err)
			os.Exit(2)
		}
	} else {
		res.WriteText(os.Stdout)
		if *stats {
			res.WriteStats(os.Stdout)
		}
	}
	if len(res.Findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "viplint: %d finding(s)\n", len(res.Findings))
		}
		os.Exit(1)
	}
}
