// Package lint is viplint: a suite of static-analysis passes that
// mechanically enforce the repository's determinism, durability, and
// attribution invariants (see DESIGN.md §11). The passes are written
// against a vendored, API-compatible subset of
// golang.org/x/tools/go/analysis (internal/lint/analysis) so the suite
// builds with the standard library alone; the interprocedural passes
// additionally consult the SSA-lite IR in internal/lint/ir.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"viprof/internal/lint/analysis"
	"viprof/internal/lint/ir"
)

// Analyzers returns the full viplint pass suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{DetRand, MapOrder, EpochResolve, RecordFrame, ErrFlow}
}

// Finding is one unsuppressed diagnostic, positioned for printing.
type Finding struct {
	Pos      string `json:"pos"` // file:line:col, file relative to the module root
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// PassStat is one pass's share of a run: how many findings it kept
// and how long its Run calls took across all packages.
type PassStat struct {
	Name     string        `json:"name"`
	Findings int           `json:"findings"`
	Wall     time.Duration `json:"-"`
	WallMS   float64       `json:"wall_ms"`
}

// Result is everything one driver run produced.
type Result struct {
	Findings []Finding  `json:"findings"`
	Stats    []PassStat `json:"stats"`
	Packages int        `json:"packages"`
}

// Options configures a driver run.
type Options struct {
	// WaiverAudit, when true (the default path), reports every
	// well-formed //viplint:allow directive that suppressed nothing —
	// a stale waiver is a silenced pass nobody is reviewing. The
	// -waiver-audit=off flag turns it off while bisecting.
	WaiverAudit bool
}

// irPackage adapts a loaded package to the IR's package shape.
func irPackage(p *Package) *ir.Package {
	return &ir.Package{Path: p.Path, Fset: p.Fset, Files: p.Files, Types: p.Types, Info: p.Info}
}

// buildProgram builds the whole-program IR over every package the
// loader has seen, plus any extra (augmented/external test) packages.
func buildProgram(l *Loader, extra ...*Package) *ir.Program {
	pkgs := l.Loaded()
	out := make([]*ir.Package, 0, len(pkgs)+len(extra))
	for _, p := range pkgs {
		out = append(out, irPackage(p))
	}
	for _, p := range extra {
		if p != nil {
			out = append(out, irPackage(p))
		}
	}
	return ir.Build(out)
}

// runAnalyzers applies the analyzers to one package against the given
// program, accumulating per-pass wall time into timings.
func runAnalyzers(prog *ir.Program, pkg *Package, analyzers []*analysis.Analyzer, timings map[string]time.Duration) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			IR:        prog,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		start := time.Now()
		_, err := a.Run(pass)
		if timings != nil {
			timings[a.Name] += time.Since(start)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.Path, a.Name, err)
		}
	}
	return diags, nil
}

// RunPackage applies the given analyzers to one loaded package and
// returns its unsuppressed findings sorted by position. The program IR
// is built over everything the loader has loaded so far, so fixture
// packages see their own helpers interprocedurally.
func RunPackage(l *Loader, pkg *Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	prog := buildProgram(l)
	diags, err := runAnalyzers(prog, pkg, analyzers, nil)
	if err != nil {
		return nil, err
	}
	diags, _, _ = suppressDiags(pkg, diags)
	return renderFindings(pkg, diags, ""), nil
}

// renderFindings positions, sorts, and formats diagnostics. root, when
// non-empty, relativizes file paths against the module root.
func renderFindings(pkg *Package, diags []analysis.Diagnostic, root string) []Finding {
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	findings := make([]Finding, 0, len(diags))
	for _, d := range diags {
		p := pkg.Fset.Position(d.Pos)
		file := p.Filename
		if root != "" {
			if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
		}
		findings = append(findings, Finding{
			Pos:      fmt.Sprintf("%s:%d:%d", file, p.Line, p.Column),
			Analyzer: d.Category,
			Message:  d.Message,
		})
	}
	return findings
}

// RunOpts is the full multichecker driver: it locates the enclosing
// module from the working directory, expands the package patterns
// ("./..." style, relative to the module root), loads every matched
// package, builds the whole-program IR once, runs every pass over
// every package — plus detrand over the simulation packages' _test.go
// files — and returns the unsuppressed findings with per-pass stats.
func RunOpts(patterns []string, opts Options) (*Result, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, modPath, err := moduleRoot(cwd)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := expandPatterns(root, modPath, patterns)
	if err != nil {
		return nil, err
	}
	loader := NewLoader(modPath, root)
	var pkgs []*Package
	for _, path := range paths {
		pkg, lerr := loader.Load(path)
		if lerr != nil {
			return nil, lerr
		}
		pkgs = append(pkgs, pkg)
	}
	prog := buildProgram(loader)
	analyzers := Analyzers()
	timings := make(map[string]time.Duration)
	res := &Result{Packages: len(pkgs)}

	for _, pkg := range pkgs {
		diags, rerr := runAnalyzers(prog, pkg, analyzers, timings)
		if rerr != nil {
			return nil, rerr
		}
		kept, allows, used := suppressDiags(pkg, diags)
		if opts.WaiverAudit {
			kept = append(kept, auditWaivers(pkg, allows, used, false)...)
		}
		res.Findings = append(res.Findings, renderFindings(pkg, kept, root)...)
	}

	// Test-file sweep: _test.go files in the simulation packages are
	// inside the determinism scope (a wall-clock read in a chaos test
	// breaks replay just as surely), but only detrand applies — test
	// files do not persist artifacts.
	for _, pkg := range pkgs {
		if !isSimPackage(pkg.Path) {
			continue
		}
		aug, ext, terr := loader.LoadWithTests(pkg.Path)
		if terr != nil {
			return nil, terr
		}
		for _, tp := range []*Package{aug, ext} {
			if tp == nil {
				continue
			}
			tprog := buildProgram(loader, tp)
			diags, rerr := runAnalyzers(tprog, tp, []*analysis.Analyzer{DetRand}, timings)
			if rerr != nil {
				return nil, rerr
			}
			kept, allows, used := suppressDiags(tp, diags)
			kept = keepTestFileDiags(tp, kept)
			if opts.WaiverAudit {
				kept = append(kept, auditWaivers(tp, allows, used, true)...)
			}
			res.Findings = append(res.Findings, renderFindings(tp, kept, root)...)
		}
	}

	for _, a := range analyzers {
		res.Stats = append(res.Stats, PassStat{Name: a.Name, Wall: timings[a.Name]})
	}
	res.Stats = append(res.Stats, PassStat{Name: "viplint"})
	counts := make(map[string]int)
	for _, f := range res.Findings {
		counts[f.Analyzer]++
	}
	for i := range res.Stats {
		res.Stats[i].Findings = counts[res.Stats[i].Name]
		res.Stats[i].WallMS = float64(res.Stats[i].Wall.Microseconds()) / 1000
	}
	return res, nil
}

// keepTestFileDiags drops diagnostics positioned outside _test.go
// files: an augmented package re-checks the non-test sources too, and
// those already ran through the canonical sweep.
func keepTestFileDiags(pkg *Package, diags []analysis.Diagnostic) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range diags {
		if strings.HasSuffix(pkg.Fset.Position(d.Pos).Filename, "_test.go") {
			out = append(out, d)
		}
	}
	return out
}

// WriteText prints findings one per line in the classic vet-ish shape.
func (r *Result) WriteText(w io.Writer) {
	for _, f := range r.Findings {
		fmt.Fprintf(w, "%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
	}
}

// WriteStats prints the per-pass finding counts and wall time.
func (r *Result) WriteStats(w io.Writer) {
	var total time.Duration
	for _, s := range r.Stats {
		fmt.Fprintf(w, "viplint: pass %-13s %3d finding(s) %8.1fms\n", s.Name, s.Findings, s.WallMS)
		total += s.Wall
	}
	fmt.Fprintf(w, "viplint: %d package(s), %d finding(s), %.1fms analysis time\n",
		r.Packages, len(r.Findings), float64(total.Microseconds())/1000)
}

// WriteJSON emits the whole result as one JSON document.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Run is the classic text driver: run everything (waiver audit on),
// print findings to w, return how many were printed. The viplint
// binary and the tree-clean test pin sit on this.
func Run(w io.Writer, patterns []string) (int, error) {
	res, err := RunOpts(patterns, Options{WaiverAudit: true})
	if err != nil {
		return 0, err
	}
	res.WriteText(w)
	return len(res.Findings), nil
}

// moduleRoot walks up from dir to the enclosing go.mod and returns the
// module directory and module path.
func moduleRoot(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s: go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves package patterns relative to the module root
// into import paths. "dir/..." walks recursively; a plain directory
// names one package. testdata, hidden, and Go-file-free directories are
// skipped during walks (matching the go tool), but an explicit
// non-wildcard pattern may name a testdata package directly — that is
// how the lint tests point the driver at fixture packages.
func expandPatterns(root, modPath string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(dir string) error {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		p := modPath
		if rel != "." {
			p = modPath + "/" + filepath.ToSlash(rel)
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
		return nil
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		recursive := false
		if pat == "..." {
			pat, recursive = ".", true
		} else if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, recursive = rest, true
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		if !recursive {
			names, err := goSources(base)
			if err != nil {
				return nil, fmt.Errorf("pattern %q: %v", pat, err)
			}
			if len(names) == 0 {
				return nil, fmt.Errorf("pattern %q: no Go files in %s", pat, base)
			}
			if err := add(base); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if names, serr := goSources(path); serr == nil && len(names) > 0 {
				return add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}
