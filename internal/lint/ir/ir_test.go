package ir

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// buildSrc type-checks one source file and builds a program from it.
func buildSrc(t *testing.T, src string) *Program {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return Build([]*Package{{Path: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}})
}

func funcNamed(t *testing.T, p *Program, name string) *Func {
	t.Helper()
	for _, f := range p.Funcs {
		if f.Obj != nil && f.Obj.Name() == name {
			return f
		}
	}
	t.Fatalf("no function %q in program", name)
	return nil
}

const src = `package p

type box struct{ v int }

func helper(n int) int { return n + 1 }

func chain(a int) int {
	x := helper(a)
	x = helper(x)
	return x
}

// selfAssign is the evaluation-order pin: err = wrap(err) must read
// use-then-def, not textual LHS-first order.
func selfAssign(err error, wrap func(error) error) error {
	err = wrap(err)
	return err
}

func lits() int {
	f := func(n int) int { return helper(n) }
	return f(1)
}

func fields(b *box) int {
	b.v = helper(2)
	return b.v
}
`

func TestCallGraph(t *testing.T) {
	p := buildSrc(t, src)
	chain := funcNamed(t, p, "chain")
	if len(chain.Calls) != 2 {
		t.Fatalf("chain has %d call sites, want 2", len(chain.Calls))
	}
	helper := funcNamed(t, p, "helper")
	for _, cs := range chain.Calls {
		if cs.Callee != helper.Obj {
			t.Errorf("chain call resolves to %v, want helper", cs.Callee)
		}
	}
	// helper is called from chain (twice), the literal in lits, and
	// fields: four edges total.
	if got := len(p.CallersOf(helper.Obj)); got != 4 {
		t.Errorf("helper has %d recorded callers, want 4", got)
	}
}

func TestDefUseEvaluationOrder(t *testing.T) {
	p := buildSrc(t, src)
	f := funcNamed(t, p, "selfAssign")
	var errObj types.Object
	for obj := range f.Refs {
		if obj.Name() == "err" {
			errObj = obj
		}
	}
	if errObj == nil {
		t.Fatal("no refs recorded for err")
	}
	refs := f.Refs[errObj]
	// err = wrap(err): use (RHS) precedes def (LHS); then the return
	// reads it. The parameter's implicit def is not a body ref.
	want := []bool{false, true, false}
	if len(refs) != len(want) {
		t.Fatalf("err has %d refs, want %d: %+v", len(refs), len(want), refs)
	}
	for i, r := range refs {
		if r.Def != want[i] {
			t.Errorf("ref %d: Def=%v, want %v", i, r.Def, want[i])
		}
	}
}

func TestLiteralsAreSeparateFuncs(t *testing.T) {
	p := buildSrc(t, src)
	lits := funcNamed(t, p, "lits")
	// The enclosing function's call sites are f(1) only — the
	// literal's call to helper belongs to the literal's Func.
	if len(lits.Calls) != 1 {
		t.Fatalf("lits has %d call sites, want 1 (literal body excluded)", len(lits.Calls))
	}
	var lit *Func
	for _, f := range p.Funcs {
		if f.Lit != nil {
			lit = f
		}
	}
	if lit == nil {
		t.Fatal("no Func recorded for the function literal")
	}
	if lit.Parent != lits {
		t.Errorf("literal's parent is %v, want lits", lit.Parent)
	}
	if len(lit.Calls) != 1 || lit.Calls[0].Callee == nil || lit.Calls[0].Callee.Name() != "helper" {
		t.Errorf("literal call sites: %+v, want one call to helper", lit.Calls)
	}
}

// TestCaptures pins the capture record: a variable referenced two
// literals deep is captured by every body it is declared outside of,
// while a literal's own parameters and locals are captured by no one.
func TestCaptures(t *testing.T) {
	p := buildSrc(t, `package p
func outer() int {
	x, y := 1, 2
	func() {
		z := y
		func(w int) {
			x = w + z
		}(3)
	}()
	return x
}
`)
	f := funcNamed(t, p, "outer")
	names := func(caps map[types.Object]bool) map[string]bool {
		out := make(map[string]bool)
		for obj := range caps {
			out[obj.Name()] = true
		}
		return out
	}
	if got := names(f.Captures); len(got) != 2 || !got["x"] || !got["y"] {
		t.Errorf("outer captures %v, want exactly x (two literals deep) and y", got)
	}
	var mid *Func
	for _, g := range p.Funcs {
		if g.Lit != nil && g.Parent == f {
			mid = g
		}
	}
	if mid == nil {
		t.Fatal("no literal nested in outer")
	}
	// The inner literal captures x from outer and z from mid; its
	// parameter w is its own.
	if got := names(mid.Captures); len(got) != 2 || !got["x"] || !got["z"] {
		t.Errorf("middle literal captures %v, want exactly x and z", got)
	}
	// lits' literal reads only its own parameter n.
	if lits := funcNamed(t, buildSrc(t, src), "lits"); lits.Captures != nil {
		t.Errorf("lits captures %v, want nothing", names(lits.Captures))
	}
}

func TestFieldRefs(t *testing.T) {
	p := buildSrc(t, src)
	f := funcNamed(t, p, "fields")
	var fieldObj types.Object
	for obj := range f.Refs {
		if obj.Name() == "v" {
			fieldObj = obj
		}
	}
	if fieldObj == nil {
		t.Fatal("no refs recorded for field v")
	}
	refs := f.Refs[fieldObj]
	if len(refs) != 2 || !refs[0].Def || refs[1].Def {
		t.Fatalf("field v refs = %+v, want def then use", refs)
	}
	if f.ParamIndex(fieldObj) != -1 {
		t.Error("field object misclassified as a parameter")
	}
}

func TestParamsIncludeReceiver(t *testing.T) {
	p := buildSrc(t, `package p
type T struct{}
func (t *T) m(a, b int) (int, error) { return a + b, nil }
`)
	f := funcNamed(t, p, "m")
	if len(f.Params) != 3 {
		t.Fatalf("m has %d params, want 3 (receiver + 2)", len(f.Params))
	}
	if f.Params[0].Name() != "t" {
		t.Errorf("param 0 is %q, want receiver t", f.Params[0].Name())
	}
	if len(f.Results) != 2 {
		t.Errorf("m has %d results, want 2", len(f.Results))
	}
}
