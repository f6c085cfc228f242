package ir

import (
	"go/ast"
	"go/types"
)

// collect walks f's body in evaluation order, recording call sites and
// def-use references, and registering nested function literals as
// their own Funcs. Evaluation order matters: an assignment's RHS is
// walked before its LHS, so `err = wrap(err)` produces use-then-def —
// the property the errflow reassignment check depends on.
func (p *Program) collect(f *Func) {
	w := &refWalker{p: p, f: f}
	w.stmt(f.Body)
}

type refWalker struct {
	p *Program
	f *Func
}

func (w *refWalker) info() *types.Info { return w.f.Pkg.Info }

// ref records one reference to the object e names (identifiers and
// struct-field selections; anything else is not an addressable name).
func (w *refWalker) ref(id *ast.Ident, def bool) {
	obj := w.info().Defs[id]
	if obj == nil {
		obj = w.info().Uses[id]
	}
	if obj == nil || id.Name == "_" {
		return
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return // functions, types, packages: not data objects
	}
	w.f.Refs[obj] = append(w.f.Refs[obj], Ref{Obj: obj, Pos: id.Pos(), Def: def})
}

func (w *refWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *refWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt, *ast.BranchStmt:
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r)
		}
		for _, l := range s.Lhs {
			w.lhs(l)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				w.expr(v)
			}
			for _, name := range vs.Names {
				w.ref(name, true)
			}
		}
	case *ast.IncDecStmt:
		w.lhs(s.X)
	case *ast.IfStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Else)
	case *ast.ForStmt:
		w.stmt(s.Init)
		w.expr(s.Cond)
		w.stmt(s.Body)
		w.stmt(s.Post)
	case *ast.RangeStmt:
		w.expr(s.X)
		if s.Key != nil {
			w.lhs(s.Key)
		}
		if s.Value != nil {
			w.lhs(s.Value)
		}
		w.stmt(s.Body)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		w.expr(s.Tag)
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init)
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		w.stmts(s.Body)
	case *ast.CommClause:
		w.stmt(s.Comm)
		w.stmts(s.Body)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.DeferStmt:
		w.expr(s.Call)
	}
}

// lhs walks an assignment target: the base of a selector or index is
// read, the named leaf (identifier or struct field) is written.
func (w *refWalker) lhs(e ast.Expr) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		w.ref(x, true)
	case *ast.SelectorExpr:
		w.expr(x.X)
		if s, ok := w.info().Selections[x]; ok && s.Kind() == types.FieldVal {
			w.ref(x.Sel, true)
		}
	case *ast.IndexExpr:
		// a[i] = v mutates a's contents, not its binding: element order
		// is unchanged, so the container reads as a use.
		w.expr(x.X)
		w.expr(x.Index)
	case *ast.StarExpr:
		w.expr(x.X)
	default:
		w.expr(e)
	}
}

func (w *refWalker) expr(e ast.Expr) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		w.ref(x, false)
	case *ast.SelectorExpr:
		w.expr(x.X)
		if s, ok := w.info().Selections[x]; ok && s.Kind() == types.FieldVal {
			w.ref(x.Sel, false)
		}
	case *ast.CallExpr:
		// Arguments evaluate before the call happens.
		w.expr(x.Fun)
		for _, a := range x.Args {
			w.expr(a)
		}
		w.f.Calls = append(w.f.Calls, w.p.addCall(w.f, x))
	case *ast.FuncLit:
		// A literal is its own body with its own chains; references to
		// captured variables inside it do not participate in the
		// enclosing function's source-order reasoning, which sees them
		// only through its capture record.
		lit := w.p.newFunc(w.f.Pkg, nil, nil, x, x.Body)
		lit.Parent = w.f
		w.p.collect(lit)
		w.capture(lit)
	case *ast.BinaryExpr:
		w.expr(x.X)
		w.expr(x.Y)
	case *ast.UnaryExpr:
		w.expr(x.X)
	case *ast.StarExpr:
		w.expr(x.X)
	case *ast.ParenExpr:
		w.expr(x.X)
	case *ast.IndexExpr:
		w.expr(x.X)
		w.expr(x.Index)
	case *ast.IndexListExpr:
		w.expr(x.X)
	case *ast.SliceExpr:
		w.expr(x.X)
		w.expr(x.Low)
		w.expr(x.High)
		w.expr(x.Max)
	case *ast.TypeAssertExpr:
		w.expr(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(x.Key)
		w.expr(x.Value)
	}
	// Type expressions (ArrayType, MapType, ...) reference no data
	// objects and are skipped.
}

// capture adds to f.Captures what the nested literal lit captures:
// every variable lit, or a literal inside it, references but lit does
// not declare. lit.Captures is complete here (collect has walked lit),
// so a capture two literals deep reaches every enclosing body.
func (w *refWalker) capture(lit *Func) {
	add := func(obj types.Object) {
		if lit.Lit.Pos() <= obj.Pos() && obj.Pos() < lit.Lit.End() {
			return // lit's own parameter or local
		}
		if w.f.Captures == nil {
			w.f.Captures = make(map[types.Object]bool)
		}
		w.f.Captures[obj] = true
	}
	for obj := range lit.Refs {
		add(obj)
	}
	for obj := range lit.Captures {
		add(obj)
	}
}

// addCall records one call site and its caller edge.
func (p *Program) addCall(f *Func, call *ast.CallExpr) *CallSite {
	cs := &CallSite{Caller: f, Call: call, Callee: StaticCallee(f.Pkg.Info, call)}
	if cs.Callee != nil {
		p.callers[cs.Callee] = append(p.callers[cs.Callee], cs)
	}
	return cs
}
