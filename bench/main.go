// Command bench is VIProf's benchmark. Four workloads cover the
// profiled path (workload start to rendered report) and the fleet path
// (sender to queryable store). Each public call is timed from outside
// on the host clock; each layer's exact work comes from its stats
// accessors on the simulated clock. See README.md.
//
// Run from the repository root:
//
//	bash bench/run.sh [-seed N] [-trace 1] [-out FILE]   all workloads, fixed reps
//	bash bench/run.sh -workload NAME -seed N -seconds S -trace 0|1
//	bash bench/run.sh -compare A.json B.json
//
// With -workload the last line of standard output is one JSON object
// with keys correct, attempted, failed and metrics: the end-to-end
// metrics, or with -trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, for -seconds (default: all workloads, fixed reps)")
	seed := fs.Int64("seed", 1, "seed for every machine, noise process and fleet")
	seconds := fs.Int("seconds", 0, "with -workload: measure for this many seconds instead of the fixed reps")
	trace := fs.Int("trace", 0, "1: traced run (spans, CPU profile folded by package, per-layer metrics)")
	out := fs.String("out", "", "write the results JSON to this file")
	compare := fs.Bool("compare", false, "compare two results files given as arguments: -compare A.json B.json (exit 1 if any row is worse, unresolved or changed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		a, errA := readResults(fs.Arg(0))
		b, errB := readResults(fs.Arg(1))
		if err := errors.Join(errA, errB); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if compareResults(stdout, a, b) > 0 {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; -trace takes 0 or 1, -seconds a non-negative count")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	} else if *seconds != 0 {
		fmt.Fprintln(stderr, "bench: -seconds needs -workload")
		return 2
	}

	res := &Results{
		Schema:     schemaName,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       *seed,
		Trace:      *trace == 1,
	}
	failed := 0
	for _, w := range selected {
		wr := runWorkload(w, *seed, res.Trace, time.Duration(*seconds)*time.Second)
		res.Workloads = append(res.Workloads, wr)
		printTable(stdout, wr)
		fmt.Fprintln(stdout)
		failed += wr.Failed
	}
	if *out != "" {
		res.Commit = commit()
		if err := writeResults(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *name != "" {
		line, err := json.Marshal(resultLine(res.Workloads[0], res.Trace))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func readResults(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaName {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schemaName)
	}
	return &r, nil
}

func writeResults(path string, r *Results) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit names the checked-out revision, or "unknown" outside a git
// work tree. The ceiling keeps git from finding an enclosing
// repository above the working directory.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty", "--exclude", "*")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
