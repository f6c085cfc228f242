// Package ir is viplint's SSA-lite intermediate representation: the
// minimal program shape the interprocedural passes (maporder,
// record-frame, detrand, errflow) need, built on nothing but
// go/ast + go/types. It deliberately stops far short of real SSA —
// there is no phi placement and no control-flow graph — and instead
// provides the four things a summary-based taint walk actually
// consumes:
//
//   - per-function def-use chains in *evaluation* order (an
//     assignment's RHS references precede its LHS definitions, so
//     `err = wrap(err)` reads as use-then-def, not textual order);
//   - per-function capture records: which variables the function's
//     nested literals capture, so a walk that treats each literal as
//     its own body still sees what crosses the literal boundary;
//   - a repo-wide static call graph (callee resolved through
//     go/types; dynamic calls through function values stay opaque);
//   - a memoized slot per program for pass summaries, plus a
//     fixpoint driver so summary computation is linear in call edges
//     times the (small) height of the summary lattice.
//
// The passes in internal/lint walk statements themselves when they
// need flow semantics; ir gives them the cross-function skeleton.
package ir

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Package is one type-checked package the program was built from. It
// mirrors the loader's package shape so internal/lint can hand its
// loaded packages over without an import cycle.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Func is the IR for one function or method body (function literals
// get their own Func: their statements are excluded from the
// enclosing function's chains, matching the per-body scoping the
// syntactic passes always had).
type Func struct {
	// Obj is the declared function object; nil for a function literal.
	Obj *types.Func
	// Decl/Lit: exactly one is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	Pkg  *Package
	// Parent is the enclosing Func for literals, nil for declarations.
	Parent *Func

	// Params lists the receiver (if any) followed by the signature
	// parameters, so summary bitmasks have one stable index space.
	Params []*types.Var
	// Results lists the declared results.
	Results []*types.Var

	// Calls are the call sites in this body (literal bodies excluded),
	// in evaluation order.
	Calls []*CallSite
	// Refs are the def-use chains: for each object referenced in this
	// body, its references in evaluation order.
	Refs map[types.Object][]Ref
	// Captures holds the variables that function literals nested in
	// this body, at any depth, reference but do not declare: what the
	// literals capture from here or from further out. A literal's own
	// parameters and locals are not captures. Nil when no literal
	// captures anything.
	Captures map[types.Object]bool
}

// Name returns a printable name for diagnostics.
func (f *Func) Name() string {
	if f.Obj != nil {
		return f.Obj.Name()
	}
	return "func literal"
}

// ParamIndex returns the index of obj in f.Params, or -1.
func (f *Func) ParamIndex(obj types.Object) int {
	for i, p := range f.Params {
		if p == obj {
			return i
		}
	}
	return -1
}

// Ref is one reference to an object inside a function body.
type Ref struct {
	Obj types.Object
	Pos token.Pos
	// Def reports a write (assignment LHS, :=, range variable,
	// IncDec); otherwise the reference is a read.
	Def bool
}

// CallSite is one static call site.
type CallSite struct {
	Caller *Func
	Call   *ast.CallExpr
	// Callee is the statically resolved target, nil for dynamic calls
	// (function values, method values) and builtins.
	Callee *types.Func
}

// Program is the whole-module IR: every function with a body across
// the loaded packages, plus the call graph over them.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs []*Func // deterministic order: package path, then position

	// ByObj maps a declared function object to its IR.
	ByObj map[*types.Func]*Func
	// ByNode maps a FuncDecl/FuncLit node to its IR.
	ByNode map[ast.Node]*Func

	callers map[*types.Func][]*CallSite
	memo    map[string]any
}

// Build constructs the program IR for the given packages.
func Build(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:    pkgs,
		ByObj:   make(map[*types.Func]*Func),
		ByNode:  make(map[ast.Node]*Func),
		callers: make(map[*types.Func][]*CallSite),
		memo:    make(map[string]any),
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				f := p.newFunc(pkg, obj, fd, nil, fd.Body)
				p.collect(f)
			}
		}
	}
	sort.SliceStable(p.Funcs, func(i, j int) bool {
		if p.Funcs[i].Pkg.Path != p.Funcs[j].Pkg.Path {
			return p.Funcs[i].Pkg.Path < p.Funcs[j].Pkg.Path
		}
		return p.Funcs[i].Body.Pos() < p.Funcs[j].Body.Pos()
	})
	return p
}

func (p *Program) newFunc(pkg *Package, obj *types.Func, decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) *Func {
	f := &Func{
		Obj:  obj,
		Decl: decl,
		Lit:  lit,
		Body: body,
		Pkg:  pkg,
		Refs: make(map[types.Object][]Ref),
	}
	var sig *types.Signature
	if obj != nil {
		sig, _ = obj.Type().(*types.Signature)
	} else if lit != nil {
		if tv, ok := pkg.Info.Types[lit]; ok {
			sig, _ = tv.Type.(*types.Signature)
		}
	}
	if sig != nil {
		if recv := sig.Recv(); recv != nil {
			f.Params = append(f.Params, recv)
		}
		for i := 0; i < sig.Params().Len(); i++ {
			f.Params = append(f.Params, sig.Params().At(i))
		}
		for i := 0; i < sig.Results().Len(); i++ {
			f.Results = append(f.Results, sig.Results().At(i))
		}
	}
	p.Funcs = append(p.Funcs, f)
	if obj != nil {
		p.ByObj[obj] = f
	}
	if decl != nil {
		p.ByNode[decl] = f
	} else if lit != nil {
		p.ByNode[lit] = f
	}
	return f
}

// FuncsOf returns the functions whose bodies live in the given
// type-checked package (matched by pointer, so an augmented
// with-tests package never aliases its canonical twin).
func (p *Program) FuncsOf(tp *types.Package) []*Func {
	var out []*Func
	for _, f := range p.Funcs {
		if f.Pkg.Types == tp {
			out = append(out, f)
		}
	}
	return out
}

// CallersOf returns the recorded call sites targeting fn.
func (p *Program) CallersOf(fn *types.Func) []*CallSite {
	return p.callers[fn]
}

// Memo returns the cached product for key, building it on first use.
// Passes use it to compute their summary tables once per program.
func (p *Program) Memo(key string, build func() any) any {
	if v, ok := p.memo[key]; ok {
		return v
	}
	// Reserve the slot first so a re-entrant lookup during build is an
	// obvious bug (nil) rather than infinite recursion.
	p.memo[key] = nil
	v := build()
	p.memo[key] = v
	return v
}

// Fixpoint sweeps step over every function until a full sweep reports
// no change. Summaries must grow monotonically for this to terminate;
// the sweep count is bounded by the call-graph-deep chains the
// summaries propagate along, so total work stays linear in call edges
// times that (small) height.
func (p *Program) Fixpoint(step func(*Func) bool) {
	for changed := true; changed; {
		changed = false
		for _, f := range p.Funcs {
			if step(f) {
				changed = true
			}
		}
	}
}

// StaticCallee resolves call's target through the type info: a
// package-level function, a method (including embedded promotions),
// or nil for builtins, conversions, and dynamic calls.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok {
			fn, _ := s.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}
