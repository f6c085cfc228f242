package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"viprof/internal/lint/analysis"
)

// The fixture tests mirror golang.org/x/tools/go/analysis/analysistest:
// each fixture package under testdata/src carries `// want `regex``
// comments on the lines where a pass must report, and the runner
// asserts an exact match — every want satisfied, no finding
// unaccounted for. Fixtures are real packages inside the module (the
// go tool ignores testdata, the lint loader does not), so they may
// import viprof/internal/kernel and viprof/internal/core and exercise
// the type-sensitive matching for real.

const fixturePrefix = "viprof/internal/lint/testdata/src/"

func loadFixture(t *testing.T, name string) (*Loader, *Package) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader("viprof", root)
	pkg, err := loader.Load(fixturePrefix + name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	return loader, pkg
}

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// fixtureWants parses the `// want` expectations out of a loaded
// fixture package.
type fixtureWant struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

func fixtureWants(t *testing.T, pkg *Package) []*fixtureWant {
	t.Helper()
	var wants []*fixtureWant
	for _, f := range pkg.Files {
		for _, grp := range f.Comments {
			for _, c := range grp.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				wants = append(wants, &fixtureWant{line: pkg.Fset.Position(c.Pos()).Line, re: re})
			}
		}
	}
	return wants
}

func findingLine(t *testing.T, pos string) int {
	t.Helper()
	parts := strings.Split(pos, ":")
	if len(parts) < 3 {
		t.Fatalf("malformed finding position %q", pos)
	}
	line, err := strconv.Atoi(parts[len(parts)-2])
	if err != nil {
		t.Fatalf("malformed finding position %q: %v", pos, err)
	}
	return line
}

// checkFixture runs one analyzer over one fixture and asserts its
// findings match the fixture's want comments exactly.
func checkFixture(t *testing.T, fixture string, a *analysis.Analyzer) {
	t.Helper()
	loader, pkg := loadFixture(t, fixture)
	findings, err := RunPackage(loader, pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("%s: %v", fixture, err)
	}
	wants := fixtureWants(t, pkg)
	for _, f := range findings {
		line := findingLine(t, f.Pos)
		satisfied := false
		for _, w := range wants {
			if w.line == line && !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				satisfied = true
				break
			}
		}
		if !satisfied {
			t.Errorf("%s: unexpected finding at %s: [%s] %s", fixture, f.Pos, f.Analyzer, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no finding at line %d matching %q", fixture, w.line, w.re)
		}
	}
}

func TestDetRand(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "detrand_bad", DetRand) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "detrand_ok", DetRand) })
	// A package that is neither a simulation package nor marked
	// //viplint:simpackage is out of scope even when it reads the wall
	// clock.
	t.Run("scope", func(t *testing.T) { checkFixture(t, "detrand_scope", DetRand) })
}

func TestMapOrder(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "maporder_bad", MapOrder) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "maporder_ok", MapOrder) })
}

// The interprocedural fixtures: each pass must catch violations buried
// one and two helper levels deep, and stay silent when a sort, frame,
// salvage, or check discharges the obligation anywhere on the path.
func TestMapOrderInterprocedural(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "maporder_ipr_bad", MapOrder) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "maporder_ipr_ok", MapOrder) })
}

// The SMP shard-drain fixtures: map order escaping through worker
// goroutines (captured-map ranges feeding sinks, range-ordered
// collection crossing the goroutine join) must be flagged, while the
// daemon's actual protocol — shard-local folds, commutative merges,
// sort-before-write — must stay silent.
func TestMapOrderShardDrain(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "maporder_drain_bad", MapOrder) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "maporder_drain_ok", MapOrder) })
}

// The per-CPU flush fixtures: a group's write fault dropped or
// overwritten while the merge walks the groups must be flagged; the
// stop-on-first-fault and errors.Join shapes must stay silent.
func TestErrFlowShardDrain(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "errflow_drain_bad", ErrFlow) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "errflow_drain_ok", ErrFlow) })
}

func TestRecordFrameInterprocedural(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "recordframe_ipr_bad", RecordFrame) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "recordframe_ipr_ok", RecordFrame) })
}

func TestDetRandInterprocedural(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "detrand_ipr_bad", DetRand) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "detrand_ipr_ok", DetRand) })
	// The helper package itself is outside the simulation scope: the
	// local sweep must not flag its direct wall-clock reads.
	t.Run("help", func(t *testing.T) { checkFixture(t, "detrand_ipr_help", DetRand) })
}

func TestErrFlow(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "errflow_bad", ErrFlow) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "errflow_ok", ErrFlow) })
}

// TestSysWriteErr checks errflow's direct kernel-write rule on its own
// fixtures: bare, blank, go and defer drops of SysWrite, SysWriteSync
// and SysRename.
func TestSysWriteErr(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "syswriteerr_bad", ErrFlow) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "syswriteerr_ok", ErrFlow) })
}

func TestRecordFrame(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "recordframe_bad", RecordFrame) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "recordframe_ok", RecordFrame) })
}

func TestEpochResolve(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "epochresolve_bad", EpochResolve) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "epochresolve_ok", EpochResolve) })
}

// The compaction commit fixtures: a write or rename fault dropped
// between building a generation and pruning the journals must be
// flagged (an aborted pass mistaken for a committed one destroys the
// only copy); the abort-before-prune and counted-fault shapes must
// stay silent.
func TestErrFlowCompact(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "errflow_compact_bad", ErrFlow) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "errflow_compact_ok", ErrFlow) })
}

// The map-wire fixtures: a code-map record's body is itself a framed
// stream, so journaling or compacting it without the outer frame (or
// reading the store without the salvage scanner) must be flagged; the
// outer-framed write and scanned read must stay silent.
func TestRecordFrameMapWire(t *testing.T) {
	t.Run("bad", func(t *testing.T) { checkFixture(t, "recordframe_mapwire_bad", RecordFrame) })
	t.Run("ok", func(t *testing.T) { checkFixture(t, "recordframe_mapwire_ok", RecordFrame) })
}

// TestSuppressionDropsWaivedDiagnostic proves the waiver machinery does
// real work: the raw detrand pass DOES flag the rand.Int call under the
// //viplint:allow directive in detrand_bad, and applySuppressions is
// what removes it. Without this, a fixture's "waived" function would
// pass vacuously if the analyzer simply never fired there.
func TestSuppressionDropsWaivedDiagnostic(t *testing.T) {
	_, pkg := loadFixture(t, "detrand_bad")

	// Locate the well-formed allow directive; the waived call sits on
	// the next line.
	allowLine := 0
	for _, d := range scanAllows(pkg) {
		if d.pass == "detrand" && d.reason != "" {
			allowLine = d.line
		}
	}
	if allowLine == 0 {
		t.Fatal("detrand_bad fixture has no well-formed detrand allow directive")
	}
	waivedLine := allowLine + 1

	var raw []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  DetRand,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { raw = append(raw, d) },
	}
	if _, err := DetRand.Run(pass); err != nil {
		t.Fatal(err)
	}
	rawAt := func(diags []analysis.Diagnostic, line int) int {
		n := 0
		for _, d := range diags {
			if pkg.Fset.Position(d.Pos).Line == line {
				n++
			}
		}
		return n
	}
	if got := rawAt(raw, waivedLine); got != 1 {
		t.Fatalf("raw detrand diagnostics at waived line %d: got %d, want 1", waivedLine, got)
	}
	kept, _, _ := suppressDiags(pkg, raw)
	if got := rawAt(kept, waivedLine); got != 0 {
		t.Errorf("suppressed diagnostic at line %d survived suppressDiags", waivedLine)
	}
	if len(kept) != len(raw)-1 {
		t.Errorf("suppressDiags kept %d of %d diagnostics, want exactly one dropped", len(kept), len(raw))
	}
}

// TestAllowBadform: a directive that names no pass, or gives no reason,
// is itself a finding — a suppression is a reviewed waiver, not an off
// switch.
func TestAllowBadform(t *testing.T) {
	loader, pkg := loadFixture(t, "allow_badform")
	findings, err := RunPackage(loader, pkg, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %+v", len(findings), findings)
	}
	var sawNoPass, sawNoReason bool
	for _, f := range findings {
		if f.Analyzer != "viplint" {
			t.Errorf("malformed-directive finding has analyzer %q, want viplint", f.Analyzer)
		}
		if strings.Contains(f.Message, "names no pass") {
			sawNoPass = true
		}
		if strings.Contains(f.Message, "has no reason") {
			sawNoReason = true
		}
	}
	if !sawNoPass || !sawNoReason {
		t.Errorf("missing malformed-directive findings: noPass=%v noReason=%v", sawNoPass, sawNoReason)
	}
}

// TestSuppressEdges drives the waiver matcher's corner cases through
// the full driver: wrong-pass directives don't suppress, a directive
// covers a multi-line statement only via its first line, and duplicate
// directives credit first-match-only. checkFixture (audit off) asserts
// the kept findings; the audit tests below assert the stale set.
func TestSuppressEdges(t *testing.T) {
	checkFixture(t, "suppress_edge", DetRand)
}

const suppressEdgePath = "internal/lint/testdata/src/suppress_edge"

// TestWaiverAuditFindsStale: with the audit on, every well-formed
// directive that suppressed nothing is itself a finding — the
// wrong-pass waiver, the too-late waiver below a multi-line statement,
// and the duplicate on an already-covered line.
func TestWaiverAuditFindsStale(t *testing.T) {
	res, err := RunOpts([]string{suppressEdgePath}, Options{WaiverAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	stale, detrand := 0, 0
	for _, f := range res.Findings {
		switch {
		case strings.Contains(f.Message, "stale viplint:allow"):
			stale++
		case f.Analyzer == "detrand":
			detrand++
		}
	}
	if stale != 3 {
		t.Errorf("stale-waiver findings: got %d, want 3\n%+v", stale, res.Findings)
	}
	if detrand != 2 {
		t.Errorf("unsuppressed detrand findings: got %d, want 2\n%+v", detrand, res.Findings)
	}
}

// TestWaiverAuditOff: -waiver-audit=off is the bisecting escape hatch —
// the same run must keep the real findings and drop every stale-waiver
// diagnostic.
func TestWaiverAuditOff(t *testing.T) {
	res, err := RunOpts([]string{suppressEdgePath}, Options{WaiverAudit: false})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		if strings.Contains(f.Message, "stale viplint:allow") {
			t.Errorf("audit off still reported: %+v", f)
		}
	}
	if len(res.Findings) != 2 {
		t.Errorf("findings with audit off: got %d, want 2\n%+v", len(res.Findings), res.Findings)
	}
}

// TestTestFileSweepSeesSimTests proves the _test.go sweep does real
// work: detrand over the augmented fleet package DOES flag the
// intentional wall-clock reads in perf_test.go, and only their
// reviewed waivers keep the tree clean.
func TestTestFileSweepSeesSimTests(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader("viprof", root)
	aug, _, err := loader.LoadWithTests("viprof/internal/fleet")
	if err != nil {
		t.Fatal(err)
	}
	if aug == nil {
		t.Fatal("fleet has test files; augmented package missing")
	}
	var raw []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  DetRand,
		Fset:      aug.Fset,
		Files:     aug.Files,
		Pkg:       aug.Types,
		TypesInfo: aug.Info,
		Report:    func(d analysis.Diagnostic) { raw = append(raw, d) },
	}
	if _, err := DetRand.Run(pass); err != nil {
		t.Fatal(err)
	}
	inPerfTest := 0
	for _, d := range raw {
		if strings.HasSuffix(aug.Fset.Position(d.Pos).Filename, "perf_test.go") {
			inPerfTest++
		}
	}
	if inPerfTest != 2 {
		t.Fatalf("raw detrand diagnostics in perf_test.go: got %d, want 2 (time.Now + time.Since)", inPerfTest)
	}
	kept, _, _ := suppressDiags(aug, raw)
	for _, d := range kept {
		if strings.HasSuffix(aug.Fset.Position(d.Pos).Filename, "perf_test.go") {
			t.Errorf("waived diagnostic survived suppression: %s", d.Message)
		}
	}
}

// TestErrFlowFleetClean pins the acceptance bar for the error-flow
// pass: zero unwaivered drops across the fleet subsystem.
func TestErrFlowFleetClean(t *testing.T) {
	res, err := RunOpts([]string{"internal/fleet"}, Options{WaiverAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		if f.Analyzer == ErrFlow.Name {
			t.Errorf("errflow finding on internal/fleet: %s: %s", f.Pos, f.Message)
		}
	}
}

// TestAnalyzerMetadata: every pass has a stable name (the suppression
// key) and documentation.
func TestAnalyzerMetadata(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	want := []string{"detrand", "maporder", "epoch-resolve", "record-frame", "errflow"}
	for _, name := range want {
		if !names[name] {
			t.Errorf("missing analyzer %q", name)
		}
	}
	if len(names) != len(want) {
		t.Errorf("got %d analyzers, want exactly %v", len(names), want)
	}
}
