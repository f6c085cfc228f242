package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"viprof/internal/lint/analysis"
	"viprof/internal/lint/ir"
)

// MapOrder enforces the persistence-determinism invariant: bytes that
// reach disk or a report writer must not depend on Go's randomized map
// iteration order. Since PR 8 the analysis is interprocedural: it runs
// on the SSA-lite IR (internal/lint/ir) and tracks map-range-derived
// values through helper returns, parameters, struct fields, and slice
// appends into the sinks, using per-function taint summaries so the
// walk stays linear in call edges. It flags:
//
//  1. a sink — or a call that transitively reaches a sink — executed
//     inside a range over a map (each write lands in map order);
//  2. a slice populated in map order (locally, via a helper's return,
//     through a struct field, or by a `go`, `defer` or immediately
//     called literal into a variable it captures) that reaches a sink
//     with no intervening sort.* call, including sinks buried one or
//     more helper calls deep.
//
// Within one function the walk is still linear in source order (no
// branch joins) — precise enough for this codebase, and
// //viplint:allow maporder covers the rest.
var MapOrder = &analysis.Analyzer{
	Name: "maporder",
	Doc: "forbid map-iteration order from reaching persistence or report output " +
		"without an intervening sort (interprocedural: flows through helpers, " +
		"struct fields, and returns are tracked)",
	Run: runMapOrder,
}

// persistSinks names the calls whose argument bytes (or call sequence)
// become durable or user-visible output.
var persistSinks = map[string]bool{
	"SysWrite": true, "SysWriteSync": true, "SysRename": true,
	"AppendMapFile": true, "AppendCounts": true, "AppendRun": true, "Frame": true, "AppendFrame": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true, "WriteString": true,
}

// moTaint is one taint value: whether the value carries real map
// iteration order (src, with the position where the order entered),
// and which of the current function's slice parameters it derives
// from (a bitmask, used only while computing summaries).
type moTaint struct {
	src    bool
	origin token.Pos
	params uint64
}

func (t moTaint) empty() bool { return !t.src && t.params == 0 }

func (t moTaint) merge(o moTaint) moTaint {
	out := t
	if !out.src && o.src {
		out.src, out.origin = true, o.origin
	}
	out.params |= o.params
	return out
}

// moSum is one function's taint summary.
type moSum struct {
	// paramSink maps a parameter index to the name of the sink its
	// contents (transitively) reach.
	paramSink map[int]string
	// paramRes maps a parameter index to the bitmask of results it
	// flows into.
	paramRes map[int]uint64
	// resSource is the bitmask of results that carry map order created
	// inside this function (or its callees).
	resSource uint64
	// callsSink names a sink this function (or a callee) invokes —
	// calling it inside a map range emits in map order.
	callsSink string
}

// moFacts is the program-wide maporder state: summaries per function
// plus the set of struct fields, and of variables a running literal
// writes for its enclosing function, that carry map order.
type moFacts struct {
	sums   map[*ir.Func]*moSum
	fields map[types.Object]token.Pos
}

func moFactsOf(prog *ir.Program) *moFacts {
	return prog.Memo("maporder", func() any {
		facts := &moFacts{
			sums:   make(map[*ir.Func]*moSum),
			fields: make(map[types.Object]token.Pos),
		}
		for _, f := range prog.Funcs {
			facts.sums[f] = &moSum{paramSink: make(map[int]string), paramRes: make(map[int]uint64)}
		}
		prog.Fixpoint(func(f *ir.Func) bool {
			st := &moState{prog: prog, facts: facts, f: f, sum: facts.sums[f]}
			st.walk()
			return st.changed
		})
		return facts
	}).(*moFacts)
}

func runMapOrder(pass *analysis.Pass) (interface{}, error) {
	prog := pass.IR
	facts := moFactsOf(prog)
	for _, f := range prog.FuncsOf(pass.Pkg) {
		st := &moState{prog: prog, facts: facts, f: f, pass: pass}
		st.walk()
	}
	return nil, nil
}

// moState is one walk over one function body, in source order. With
// sum set it records the function's summary (parameters seeded with
// their own colors, reports suppressed); with pass set it reports
// violations (no parameter seeding — a caller passing tainted values
// is reported at the caller).
type moState struct {
	prog  *ir.Program
	facts *moFacts
	f     *ir.Func
	sum   *moSum         // summary mode
	pass  *analysis.Pass // report mode

	tainted   map[types.Object]moTaint
	sanitized map[types.Object]bool // sort.*-cleared during this walk
	region    moTaint               // taint of the enclosing ordered-range region
	inRange   int                   // > 0 while inside an ordered range
	changed   bool

	// pendingFields holds struct fields (and captured variables, see
	// writesCapture) assigned map order during this walk. They are
	// published to facts.fields only at the end of the walk, so a later
	// sort.* over the field in the same function (populate-then-sort,
	// the idiomatic shape) retracts the taint before any other function
	// can observe it.
	pendingFields map[types.Object]token.Pos
}

func (st *moState) info() *types.Info { return st.f.Pkg.Info }

func (st *moState) walk() {
	st.tainted = make(map[types.Object]moTaint)
	st.sanitized = make(map[types.Object]bool)
	st.pendingFields = make(map[types.Object]token.Pos)
	if st.sum != nil {
		for i, p := range st.f.Params {
			if i < 64 && isSliceLike(p.Type()) {
				st.tainted[p] = moTaint{params: 1 << i}
			}
		}
	}
	st.walkStmts(st.f.Body.List)
	for obj, pos := range st.pendingFields {
		if _, ok := st.facts.fields[obj]; !ok {
			st.facts.fields[obj] = pos
			st.changed = true
		}
	}
}

func (st *moState) reportf(pos token.Pos, format string, args ...interface{}) {
	if st.pass != nil {
		st.pass.Reportf(pos, format, args...)
	}
}

// recordParamSink notes that the given parameter colors reach a sink,
// growing the summary.
func (st *moState) recordParamSink(params uint64, sink string) {
	if st.sum == nil || params == 0 {
		return
	}
	for i := range st.f.Params {
		if params&(1<<i) != 0 && st.sum.paramSink[i] == "" {
			st.sum.paramSink[i] = sink
			st.changed = true
		}
	}
}

func (st *moState) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		st.walkStmt(s)
	}
}

func (st *moState) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		st.walkStmts(s.List)
	case *ast.IfStmt:
		st.walkStmt(s.Init)
		st.exprTaint(s.Cond)
		st.walkStmt(s.Body)
		st.walkStmt(s.Else)
	case *ast.ForStmt:
		st.walkStmt(s.Init)
		st.exprTaint(s.Cond)
		st.walkStmt(s.Body)
		st.walkStmt(s.Post)
	case *ast.SwitchStmt:
		st.walkStmt(s.Init)
		st.exprTaint(s.Tag)
		st.walkStmt(s.Body)
	case *ast.TypeSwitchStmt:
		st.walkStmt(s.Init)
		st.walkStmt(s.Assign)
		st.walkStmt(s.Body)
	case *ast.SelectStmt:
		st.walkStmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			st.exprTaint(e)
		}
		st.walkStmts(s.Body)
	case *ast.CommClause:
		st.walkStmt(s.Comm)
		st.walkStmts(s.Body)
	case *ast.LabeledStmt:
		st.walkStmt(s.Stmt)
	case *ast.RangeStmt:
		st.walkRange(s)
	case *ast.AssignStmt:
		st.walkAssign(s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					st.walkAssign(lhs, vs.Values)
				}
			}
		}
	case *ast.ExprStmt:
		st.exprTaint(s.X)
	case *ast.ReturnStmt:
		st.walkReturn(s)
	case *ast.GoStmt:
		st.exprTaint(s.Call)
	case *ast.DeferStmt:
		st.exprTaint(s.Call)
	case *ast.SendStmt:
		st.exprTaint(s.Chan)
		st.exprTaint(s.Value)
	case *ast.IncDecStmt:
		st.exprTaint(s.X)
	}
}

// walkRange handles the taint source: iterating a map — or a slice
// that carries map order (locally tainted, a tainted struct field, or
// a tainted parameter during summary walks) — taints the loop
// variables and makes the body an ordered region.
func (st *moState) walkRange(s *ast.RangeStmt) {
	region := st.exprTaint(s.X)
	if tv, ok := st.info().Types[s.X]; ok && tv.Type != nil {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			region = region.merge(moTaint{src: true, origin: s.Pos()})
		}
	}
	if region.empty() {
		st.walkStmt(s.Body)
		return
	}
	loopVar := region
	if loopVar.src {
		loopVar.origin = s.Pos() // order entered this function here
	}
	for _, v := range []ast.Expr{s.Key, s.Value} {
		if v == nil {
			continue
		}
		if obj := objectOf(st.info(), v); obj != nil {
			st.tainted[obj] = loopVar
			delete(st.sanitized, obj)
		}
	}
	savedRegion, savedDepth := st.region, st.inRange
	st.region = st.region.merge(loopVar)
	st.inRange++
	st.walkStmt(s.Body)
	st.region, st.inRange = savedRegion, savedDepth
}

// walkAssign propagates taint across an assignment: slice-like targets
// inherit the taint of their right-hand side; a clean right-hand side
// clears a previously tainted target; tainted stores into struct
// fields, or into captured variables a running literal hands back to
// its enclosing function, publish the target program-wide.
func (st *moState) walkAssign(lhs, rhs []ast.Expr) {
	var taints []moTaint
	if len(rhs) == 1 && len(lhs) > 1 {
		// x, y := f(m): one call, per-result taint.
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
			taints = st.callTaints(call, len(lhs))
		} else {
			t := st.exprTaint(rhs[0])
			taints = make([]moTaint, len(lhs))
			for i := range taints {
				taints[i] = t
			}
		}
	} else {
		taints = make([]moTaint, len(lhs))
		for i, r := range rhs {
			if i < len(taints) {
				taints[i] = st.exprTaint(r)
			}
		}
	}
	for i, l := range lhs {
		obj := objectOf(st.info(), l)
		if obj == nil || !isSliceLike(obj.Type()) {
			continue
		}
		t := taints[i]
		if t.empty() {
			delete(st.tainted, obj)
			continue
		}
		st.tainted[obj] = t.merge(st.tainted[obj])
		delete(st.sanitized, obj)
		if st.sum != nil && t.src && (isFieldVar(st.info(), l) || st.writesCapture(obj)) {
			if _, ok := st.pendingFields[obj]; !ok {
				st.pendingFields[obj] = t.origin
			}
		}
	}
}

// writesCapture reports whether a write to obj here is one the
// enclosing function sees once this literal has run: the body is a
// literal started by `go`, `defer` or an immediate call, and obj is a
// variable it captures. A literal stored or passed as a callback runs
// at no point the walk can place, so its writes stay local.
func (st *moState) writesCapture(obj types.Object) bool {
	if st.f.Lit == nil || !st.f.Parent.Captures[obj] {
		return false
	}
	for _, cs := range st.f.Parent.Calls {
		if ast.Unparen(cs.Call.Fun) == st.f.Lit {
			return true
		}
	}
	return false
}

// walkReturn records which results carry map order or parameter taint.
func (st *moState) walkReturn(s *ast.ReturnStmt) {
	var taints []moTaint
	if len(s.Results) == 1 && len(st.f.Results) > 1 {
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			taints = st.callTaints(call, len(st.f.Results))
		}
	}
	if taints == nil {
		taints = make([]moTaint, 0, len(s.Results))
		for _, e := range s.Results {
			taints = append(taints, st.exprTaint(e))
		}
	}
	if st.sum == nil {
		return
	}
	for i, t := range taints {
		if i >= len(st.f.Results) || i >= 64 || t.empty() || !isSliceLike(st.f.Results[i].Type()) {
			continue
		}
		if t.src && st.sum.resSource&(1<<i) == 0 {
			st.sum.resSource |= 1 << i
			st.changed = true
		}
		if t.params != 0 {
			for j := range st.f.Params {
				if t.params&(1<<j) != 0 && st.sum.paramRes[j]&(1<<i) == 0 {
					st.sum.paramRes[j] |= 1 << i
					st.changed = true
				}
			}
		}
	}
}

// exprTaint walks an expression in evaluation order, processing any
// calls it contains (sort sanitizers, sinks, summarized helpers) and
// returning the expression's taint.
func (st *moState) exprTaint(e ast.Expr) moTaint {
	var t moTaint
	switch x := e.(type) {
	case nil:
	case *ast.Ident, *ast.SelectorExpr:
		if sel, ok := e.(*ast.SelectorExpr); ok {
			st.exprTaint(sel.X)
		}
		if obj := objectOf(st.info(), e); obj != nil {
			t = t.merge(st.objTaint(obj))
		}
	case *ast.CallExpr:
		ts := st.callTaints(x, 1)
		t = ts[0]
	case *ast.FuncLit:
		// Separate body, separate walk (FuncsOf covers it).
	case *ast.BinaryExpr:
		t = st.exprTaint(x.X).merge(st.exprTaint(x.Y))
	case *ast.UnaryExpr:
		t = st.exprTaint(x.X)
	case *ast.StarExpr:
		t = st.exprTaint(x.X)
	case *ast.ParenExpr:
		t = st.exprTaint(x.X)
	case *ast.IndexExpr:
		st.exprTaint(x.Index)
		// One element of an ordered slice is a value, not an ordering.
		st.exprTaint(x.X)
	case *ast.IndexListExpr:
		t = st.exprTaint(x.X)
	case *ast.SliceExpr:
		t = st.exprTaint(x.X)
		st.exprTaint(x.Low)
		st.exprTaint(x.High)
		st.exprTaint(x.Max)
	case *ast.TypeAssertExpr:
		t = st.exprTaint(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			t = t.merge(st.exprTaint(el))
		}
	case *ast.KeyValueExpr:
		t = t.merge(st.exprTaint(x.Key)).merge(st.exprTaint(x.Value))
	}
	return t
}

// objTaint looks up one object's taint: local state first, then the
// program-wide tainted-field set.
func (st *moState) objTaint(obj types.Object) moTaint {
	if t, ok := st.tainted[obj]; ok {
		return t
	}
	if st.sanitized[obj] {
		return moTaint{}
	}
	if pos, ok := st.facts.fields[obj]; ok {
		return moTaint{src: true, origin: pos}
	}
	return moTaint{}
}

// callTaints processes one call site — sanitizers, sinks, summarized
// helpers — and returns the taint of its first n results.
func (st *moState) callTaints(call *ast.CallExpr, n int) []moTaint {
	out := make([]moTaint, n)

	// Receiver and argument taints, in evaluation order.
	var recvTaint moTaint
	hasRecv := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := st.info().Selections[sel]; isSel {
			recvTaint = st.exprTaint(sel.X)
			hasRecv = true
		}
	}
	argTaints := make([]moTaint, len(call.Args))
	for i, a := range call.Args {
		argTaints[i] = st.exprTaint(a)
	}

	if st.isSortCall(call) {
		if len(call.Args) > 0 {
			if obj := objectOf(st.info(), call.Args[0]); obj != nil {
				delete(st.tainted, obj)
				delete(st.pendingFields, obj)
				st.sanitized[obj] = true
			}
		}
		return out
	}

	name := calleeName(call)
	callee := ir.StaticCallee(st.info(), call)
	var sum *moSum
	if callee != nil {
		if cf, ok := st.prog.ByObj[callee]; ok {
			sum = st.facts.sums[cf]
		}
	}

	if persistSinks[name] {
		st.handleSink(call, name)
		if st.sum != nil && st.sum.callsSink == "" {
			st.sum.callsSink = name
			st.changed = true
		}
		return out
	}

	if sum != nil {
		offset := 0
		if hasRecv {
			offset = 1
		}
		argTaintFor := func(paramIdx int) moTaint {
			if hasRecv && paramIdx == 0 {
				return recvTaint
			}
			ai := paramIdx - offset
			if ai < 0 || ai >= len(argTaints) {
				return moTaint{}
			}
			return argTaints[ai]
		}
		// A call that transitively writes to a sink, made inside an
		// ordered region: the callee's writes land in map order.
		inRangeSrc := false
		if sum.callsSink != "" {
			if st.inRange > 0 && st.region.src {
				inRangeSrc = true
				st.reportf(call.Pos(), "call to %s inside iteration over a map reaches %s: map order leaks into persisted/reported bytes; collect and sort first", name, sum.callsSink)
			}
			if st.inRange > 0 {
				st.recordParamSink(st.region.params, sum.callsSink)
			}
			if st.sum != nil && st.sum.callsSink == "" {
				st.sum.callsSink = sum.callsSink
				st.changed = true
			}
		}
		// Tainted arguments reaching a sink inside the callee.
		for pi, sink := range sum.paramSink {
			at := argTaintFor(pi)
			if at.empty() {
				continue
			}
			if at.src {
				argExpr := call.Fun
				if !hasRecv || pi > 0 {
					if ai := pi - offset; ai >= 0 && ai < len(call.Args) {
						argExpr = call.Args[ai]
					}
				}
				st.reportTaintedIn(argExpr, sink, name, !inRangeSrc)
			}
			st.recordParamSink(at.params, sink)
		}
		// Result taints via the summary.
		for i := 0; i < n && i < 64; i++ {
			if sum.resSource&(1<<i) != 0 {
				out[i] = out[i].merge(moTaint{src: true, origin: call.Pos()})
			}
			for pi, mask := range sum.paramRes {
				if mask&(1<<i) != 0 {
					out[i] = out[i].merge(argTaintFor(pi))
				}
			}
		}
		return out
	}

	// Unknown callee (builtin, stdlib, dynamic): results carry the
	// union of input taints — the append/copy/transform conservative
	// default the intra-function pass always used.
	all := recvTaint
	for _, at := range argTaints {
		all = all.merge(at)
	}
	for i := range out {
		out[i] = all
	}
	return out
}

// handleSink reports (or summarizes) a persistence/output sink call.
func (st *moState) handleSink(call *ast.CallExpr, name string) {
	inRangeSrc := st.inRange > 0 && st.region.src
	if inRangeSrc {
		// One finding covers the whole call; the loop variables it
		// mentions are the same leak, not additional ones.
		st.reportf(call.Pos(), "%s called inside iteration over a map: map order leaks into persisted/reported bytes; collect and sort first", name)
	}
	if st.inRange > 0 {
		st.recordParamSink(st.region.params, name)
	}
	for _, arg := range call.Args {
		st.reportTaintedIn(arg, name, "", !inRangeSrc)
	}
}

// reportTaintedIn reports every source-tainted object referenced in
// arg (and records parameter taint in summary mode). via names the
// helper the sink sits behind, "" for a direct sink call. reportSrc
// false keeps the parameter bookkeeping but skips the src reports
// (used when a broader in-range finding already covers the call).
func (st *moState) reportTaintedIn(arg ast.Expr, sink, via string, reportSrc bool) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		var obj types.Object
		switch x := n.(type) {
		case *ast.Ident:
			obj = objectOf(st.info(), x)
		case *ast.SelectorExpr:
			obj = objectOf(st.info(), x)
		default:
			return true
		}
		if obj == nil {
			return true
		}
		t := st.objTaint(obj)
		if t.empty() {
			return true
		}
		if t.src && reportSrc {
			if via != "" {
				st.reportf(t.origin, "%s is ordered by map iteration and reaches %s via %s without an intervening sort", obj.Name(), sink, via)
			} else {
				st.reportf(t.origin, "%s is ordered by map iteration and reaches %s without an intervening sort", obj.Name(), sink)
			}
			// One report per (object, sink encounter) is enough.
			delete(st.tainted, obj)
			st.sanitized[obj] = true
		}
		st.recordParamSink(t.params, sink)
		return true
	})
}

// sortFuncs are the sanitizers: the package functions that reorder
// their first argument in place. sort.Search*, sort.Find and the
// IsSorted checks only read it.
var sortFuncs = map[[2]string]bool{
	{"sort", "Sort"}: true, {"sort", "Stable"}: true,
	{"sort", "Slice"}: true, {"sort", "SliceStable"}: true,
	{"sort", "Strings"}: true, {"sort", "Ints"}: true, {"sort", "Float64s"}: true,
	{"slices", "Sort"}: true, {"slices", "SortFunc"}: true, {"slices", "SortStableFunc"}: true,
}

// isSortCall reports a call to one of sortFuncs.
func (st *moState) isSortCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, name, ok := importedRef(st.info(), sel)
	return ok && sortFuncs[[2]string{pkg, name}]
}

// isFieldVar reports whether e names a struct field.
func isFieldVar(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}
