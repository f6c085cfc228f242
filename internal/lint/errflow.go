package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"viprof/internal/lint/analysis"
	"viprof/internal/lint/ir"
)

// ErrFlow tracks fault-injected error values — the errors the chaos
// schedules deliberately produce from kernel.SysWrite, SysWriteSync,
// SysRename, and Disk.Read — through helper returns, and flags flows
// where such an error is dropped, shadowed, or silently merged before
// it can reach accounting:
//
//   - discarded: a call to a fault source (or to a helper whose
//     summary says its error derives from one) is a bare statement,
//     runs under `go` or `defer`, or has its error assigned to the
//     blank identifier — a dropped kernel write is a flush that
//     silently never happened;
//   - unused: the error is bound to a variable that is never read
//     afterwards;
//   - shadowed: the variable is overwritten by a later assignment
//     before any read — the classic `n, err := a(); m, err := b()`
//     merge that loses the first fault.
//
// The def-use chains come from the SSA-lite IR, whose evaluation-order
// guarantee makes `err = wrap(err)` read as use-then-def — wrapping a
// fault is a use, not a shadow.
var ErrFlow = &analysis.Analyzer{
	Name: "errflow",
	Doc: "fault-injected errors (kernel writes, renames, disk reads) must reach a " +
		"check: no bare, go, defer or blank discard, no unread bindings, no shadowing " +
		"reassignment before the first read — transitively through helpers",
	Run: runErrFlow,
}

// efSum marks which of a function's error results can carry a
// fault-injected error.
type efSum struct {
	faultRes uint64
}

type efFacts struct {
	sums map[*ir.Func]*efSum
}

func efFactsOf(prog *ir.Program) *efFacts {
	return prog.Memo("errflow", func() any {
		facts := &efFacts{sums: make(map[*ir.Func]*efSum)}
		for _, f := range prog.Funcs {
			facts.sums[f] = &efSum{}
		}
		prog.Fixpoint(func(f *ir.Func) bool {
			if efSkip(f) {
				return false
			}
			st := &efState{prog: prog, facts: facts, f: f, sum: facts.sums[f]}
			st.walk()
			return st.changed
		})
		return facts
	}).(*efFacts)
}

// efSkip: kernel functions get no summary. The kernel produces the
// faults, and faultSource names its sources directly; below them there
// is no accounting to reach. Report mode still walks the kernel, whose
// own calls to its write methods must not drop their errors either.
func efSkip(f *ir.Func) bool { return f.Pkg.Types.Path() == kernelPkgPath }

func runErrFlow(pass *analysis.Pass) (interface{}, error) {
	prog := pass.IR
	facts := efFactsOf(prog)
	for _, f := range prog.FuncsOf(pass.Pkg) {
		st := &efState{prog: prog, facts: facts, f: f, pass: pass}
		st.walk()
	}
	return nil, nil
}

// efState walks one function body. Summary mode (sum set) records
// which results carry faults; report mode (pass set) checks each
// fault-error binding against the def-use chain.
type efState struct {
	prog  *ir.Program
	facts *efFacts
	f     *ir.Func
	sum   *efSum
	pass  *analysis.Pass

	// faulty tracks variables currently holding a fault-injected error.
	faulty map[types.Object]bool

	loopDepth int
	changed   bool
}

func (st *efState) info() *types.Info { return st.f.Pkg.Info }

func (st *efState) walk() {
	st.faulty = make(map[types.Object]bool)
	st.walkStmts(st.f.Body.List)
}

func (st *efState) reportf(pos token.Pos, format string, args ...interface{}) {
	if st.pass != nil {
		st.pass.Reportf(pos, format, args...)
	}
}

func (st *efState) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		st.walkStmt(s)
	}
}

func (st *efState) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		st.walkStmts(s.List)
	case *ast.IfStmt:
		st.walkStmt(s.Init)
		st.walkStmt(s.Body)
		st.walkStmt(s.Else)
	case *ast.ForStmt:
		st.walkStmt(s.Init)
		st.loopDepth++
		st.walkStmt(s.Body)
		st.loopDepth--
		st.walkStmt(s.Post)
	case *ast.RangeStmt:
		st.loopDepth++
		st.walkStmt(s.Body)
		st.loopDepth--
	case *ast.SwitchStmt:
		st.walkStmt(s.Init)
		st.walkStmt(s.Body)
	case *ast.TypeSwitchStmt:
		st.walkStmt(s.Init)
		st.walkStmt(s.Body)
	case *ast.SelectStmt:
		st.walkStmt(s.Body)
	case *ast.CaseClause:
		st.walkStmts(s.Body)
	case *ast.CommClause:
		st.walkStmt(s.Comm)
		st.walkStmts(s.Body)
	case *ast.LabeledStmt:
		st.walkStmt(s.Stmt)
	case *ast.AssignStmt:
		st.walkAssign(s)
	case *ast.ExprStmt:
		st.scanDiscard(s.X)
	case *ast.ReturnStmt:
		st.walkReturn(s)
	case *ast.GoStmt:
		st.scanDiscard(s.Call)
	case *ast.DeferStmt:
		st.scanDiscard(s.Call)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == 1 {
					if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, id := range vs.Names {
							lhs[i] = id
						}
						st.bindCall(lhs, call)
					}
				}
			}
		}
	}
}

// scanDiscard: a bare, `go` or `defer` call discards every result, so
// a call to a fault source loses the fault.
func (st *efState) scanDiscard(e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if src, _ := st.faultSource(call); src != "" {
		st.reportf(call.Pos(), "fault-injected error from %s is discarded: its fault must reach accounting — check it or waive with //viplint:allow errflow <reason>", src)
	}
}

func (st *efState) walkAssign(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			st.bindCall(s.Lhs, call)
			return
		}
	}
	// Non-call assignments clear any stale fault classification.
	for i, l := range s.Lhs {
		obj := objectOf(st.info(), l)
		if obj == nil {
			continue
		}
		faulty := false
		if i < len(s.Rhs) {
			if robj := objectOf(st.info(), s.Rhs[i]); robj != nil && st.faulty[robj] {
				faulty = true // err2 := err keeps the classification
			}
		}
		st.faulty[obj] = faulty
	}
}

// bindCall classifies one call-result binding: fault-carrying error
// results must be bound to a variable that is subsequently read.
func (st *efState) bindCall(lhs []ast.Expr, call *ast.CallExpr) {
	src, errMask := st.faultSource(call)
	if src == "" {
		for _, l := range lhs {
			if obj := objectOf(st.info(), l); obj != nil {
				delete(st.faulty, obj)
			}
		}
		return
	}
	for i, l := range lhs {
		if errMask&(1<<i) == 0 {
			if obj := objectOf(st.info(), l); obj != nil {
				delete(st.faulty, obj)
			}
			continue
		}
		obj := objectOf(st.info(), l)
		if obj == nil {
			// Blank: the fault is discarded.
			st.reportf(l.Pos(), "fault-injected error from %s is discarded: its fault must reach accounting — check it or waive with //viplint:allow errflow <reason>", src)
			continue
		}
		st.faulty[obj] = true
		st.checkBinding(obj, l.Pos(), src)
	}
}

// checkBinding inspects the def-use chain after the binding at pos:
// the next reference must be a read. A following write shadows the
// fault; no reference at all drops it (unless an earlier read exists
// inside a loop — the check-at-top-of-next-iteration shape — or the
// variable is captured by a literal).
func (st *efState) checkBinding(obj types.Object, pos token.Pos, src string) {
	if st.pass == nil {
		return
	}
	if st.f.Captures[obj] {
		return // captured: the closure may read it later
	}
	refs := st.f.Refs[obj]
	idx := -1
	for i, r := range refs {
		if r.Def && r.Pos == pos {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	usedBefore := false
	for _, r := range refs[:idx] {
		if !r.Def {
			usedBefore = true
			break
		}
	}
	rest := refs[idx+1:]
	if len(rest) == 0 {
		if st.loopDepth > 0 && usedBefore {
			return // read at the top of the next iteration
		}
		st.reportf(pos, "fault-injected error from %s is bound to %s but never checked: its fault must reach accounting — check it or waive with //viplint:allow errflow <reason>", src, obj.Name())
		return
	}
	if rest[0].Def {
		st.reportf(pos, "fault-injected error from %s is overwritten before it is checked: the first fault is lost — check it before reassigning or waive with //viplint:allow errflow <reason>", src)
	}
}

// walkReturn records fault-carrying error results in the summary.
func (st *efState) walkReturn(s *ast.ReturnStmt) {
	if st.sum == nil {
		return
	}
	if len(s.Results) == 1 && len(st.f.Results) > 0 {
		// return helper(...): the callee's fault mask carries over.
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			if src, mask := st.faultSource(call); src != "" {
				st.addFaultRes(mask)
				return
			}
		}
	}
	for i, e := range s.Results {
		if i >= len(st.f.Results) || i >= 64 || !isErrorType(st.f.Results[i].Type()) {
			continue
		}
		if obj := objectOf(st.info(), e); obj != nil && st.faulty[obj] {
			st.addFaultRes(1 << i)
			continue
		}
		// return ..., k.SysWrite(...): a single-result fault call in
		// result position i.
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if src, mask := st.faultSource(call); src != "" && mask&1 != 0 {
				st.addFaultRes(1 << i)
			}
		}
	}
}

func (st *efState) addFaultRes(mask uint64) {
	if mask&^st.sum.faultRes != 0 {
		st.sum.faultRes |= mask
		st.changed = true
	}
}

// faultSource classifies a call: a kernel fault source (SysWrite,
// SysWriteSync, SysRename, Disk.Read), or a module helper whose
// summary marks fault-carrying error results. Returns the source name
// for diagnostics and the result-index mask of its fault-carrying
// error results.
func (st *efState) faultSource(call *ast.CallExpr) (src string, errMask uint64) {
	fn := ir.StaticCallee(st.info(), call)
	if fn == nil {
		return "", 0
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == kernelPkgPath {
		switch {
		case kernelWriteMethods[fn.Name()]:
			return fn.Name(), 1
		case fn.Name() == "Read" && receiverIs(fn, "Disk"):
			return "Disk.Read", 1 << 1
		}
		return "", 0
	}
	cf, ok := st.prog.ByObj[fn]
	if !ok {
		return "", 0
	}
	sum := st.facts.sums[cf]
	if sum.faultRes == 0 {
		return "", 0
	}
	return fn.Name(), sum.faultRes
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }
