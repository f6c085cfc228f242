package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"viprof/internal/lint/analysis"
	"viprof/internal/lint/ir"
)

// RecordFrame enforces the durable-artifact framing invariant behind
// the crash-recovery protocol: every persisted artifact is written
// through record.Frame (so a torn write fails its checksum instead of
// misparsing) and read back through the salvage layer (record.Scan or
// a helper that routes the bytes there, so damage degrades loudly
// instead of erroring or lying).
//
// Since PR 8 the pass classifies helpers by *result type analysis*
// over the SSA-lite IR instead of by callee name: a function whose
// byte-slice results are produced by record.Frame on every non-nil
// return path is frame-producing; a function whose byte-slice
// parameters flow into record.* is salvage-aware; a function whose
// byte-slice parameter becomes a kernel write payload transfers the
// framing obligation to its callers; a function returning Disk.Read
// bytes unsalvaged transfers the salvage obligation to its callers.
// The old "name contains frame/journal/read/salvage" heuristic is
// gone — what a helper is called no longer matters, only what its
// data flow does.
var RecordFrame = &analysis.Analyzer{
	Name: "record-frame",
	Doc: "persisted artifacts must be written through record.Frame and read back " +
		"through the salvage layer (classified by data flow, not callee name), " +
		"or carry an annotated waiver",
	Run: runRecordFrame,
}

const recordPkgPath = "viprof/internal/record"

// rfSum is one function's framing summary.
type rfSum struct {
	// framedRes marks byte-slice results that carry record.Frame-framed
	// bytes on every non-nil return path.
	framedRes uint64
	// rawRes marks byte-slice results that carry raw Disk.Read bytes the
	// function itself never salvaged — the obligation moves to callers.
	rawRes uint64
	// salvageParams marks byte-slice parameters the function routes into
	// the salvage layer (record.*, or transitively).
	salvageParams uint64
	// writesParam maps a parameter index to the kernel write method the
	// parameter's bytes reach as payload: callers must pass framed bytes.
	writesParam map[int]string
}

type rfFacts struct {
	sums map[*ir.Func]*rfSum
}

func rfFactsOf(prog *ir.Program) *rfFacts {
	return prog.Memo("record-frame", func() any {
		facts := &rfFacts{sums: make(map[*ir.Func]*rfSum)}
		for _, f := range prog.Funcs {
			sum := &rfSum{writesParam: make(map[int]string)}
			// Intrinsic seeds: the record package *is* the framing and
			// salvage layer. Its byte-slice parameters are salvage
			// sinks by definition, and Frame's result is framed.
			if f.Pkg.Types.Path() == recordPkgPath {
				for i, p := range f.Params {
					if i < 64 && (isByteSlice(p.Type()) || isReaderish(p.Type())) {
						sum.salvageParams |= 1 << i
					}
				}
				if f.Obj != nil && f.Obj.Name() == "Frame" {
					sum.framedRes = 1
				}
			}
			facts.sums[f] = sum
		}
		prog.Fixpoint(func(f *ir.Func) bool {
			if rfSkip(f) {
				return false
			}
			st := &rfState{prog: prog, facts: facts, f: f, sum: facts.sums[f]}
			st.walk()
			return st.changed
		})
		return facts
	}).(*rfFacts)
}

// rfSkip: the kernel implements the disk; its internals are below the
// framing protocol.
func rfSkip(f *ir.Func) bool { return f.Pkg.Types.Path() == kernelPkgPath }

// hasCallers reports whether some static call site targets this
// function — the transferred write/salvage obligations land there.
// Literals are invoked dynamically, so they always count as called.
func (st *rfState) hasCallers() bool {
	if st.f.Obj == nil {
		return true
	}
	return len(st.prog.CallersOf(st.f.Obj)) > 0
}

func runRecordFrame(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == kernelPkgPath {
		return nil, nil
	}
	prog := pass.IR
	facts := rfFactsOf(prog)
	for _, f := range prog.FuncsOf(pass.Pkg) {
		if rfSkip(f) {
			continue
		}
		st := &rfState{prog: prog, facts: facts, f: f, pass: pass}
		st.walk()
	}
	return nil, nil
}

// rawVal tracks one binding of raw (unsalvaged) disk bytes.
type rawVal struct {
	pos token.Pos // the originating read or helper call
	via string    // helper name; "" when bound straight from Disk.Read
	ok  bool      // salvaged, or escaped to the caller
}

// rfState is one in-order walk over a function body; like moState it
// runs in summary mode (sum set: parameters tracked, reports off) or
// report mode (pass set).
type rfState struct {
	prog  *ir.Program
	facts *rfFacts
	f     *ir.Func
	sum   *rfSum
	pass  *analysis.Pass

	framed   map[types.Object]bool
	raw      map[types.Object]*rawVal
	bufClean map[types.Object]bool // bytes.Buffer vars holding only framed writes
	paramIdx map[types.Object]int  // byte-slice / reader parameter positions

	// derived maps a local to the parameter bits its value was computed
	// from through calls with no summary (io.ReadAll(r), bytes wrappers):
	// when such a local reaches the salvage layer, the originating
	// reader/byte-slice parameters earn the salvage fact too.
	derived map[types.Object]uint64

	framedSeen, unframedSeen uint64 // per-result return evidence
	changed                  bool
}

func (st *rfState) info() *types.Info { return st.f.Pkg.Info }

func (st *rfState) walk() {
	st.framed = make(map[types.Object]bool)
	st.raw = make(map[types.Object]*rawVal)
	st.bufClean = make(map[types.Object]bool)
	st.paramIdx = make(map[types.Object]int)
	st.derived = make(map[types.Object]uint64)
	for i, p := range st.f.Params {
		if i < 64 && (isByteSlice(p.Type()) || isReaderish(p.Type())) {
			st.paramIdx[p] = i
		}
	}
	st.walkStmts(st.f.Body.List)
	if st.sum != nil {
		add := st.framedSeen &^ st.unframedSeen
		if add&^st.sum.framedRes != 0 {
			st.sum.framedRes |= add
			st.changed = true
		}
	}
	if st.pass != nil {
		for _, rv := range st.raw {
			st.reportRaw(rv)
		}
	}
}

func (st *rfState) reportRaw(rv *rawVal) {
	if rv.ok {
		return
	}
	rv.ok = true
	if rv.via == "" {
		st.pass.Reportf(rv.pos, "Disk.Read bytes never reach a salvage-aware reader: route them through record.Scan or a helper that does so damage degrades instead of misparsing, or waive with //viplint:allow record-frame <reason>")
	} else {
		st.pass.Reportf(rv.pos, "raw Disk.Read bytes returned by %s never reach a salvage-aware reader: route them through record.Scan or a helper that does so damage degrades instead of misparsing, or waive with //viplint:allow record-frame <reason>", rv.via)
	}
}

func (st *rfState) reportf(pos token.Pos, format string, args ...interface{}) {
	if st.pass != nil {
		st.pass.Reportf(pos, format, args...)
	}
}

func (st *rfState) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		st.walkStmt(s)
	}
}

func (st *rfState) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		st.walkStmts(s.List)
	case *ast.IfStmt:
		st.walkStmt(s.Init)
		st.scanExpr(s.Cond)
		st.walkStmt(s.Body)
		st.walkStmt(s.Else)
	case *ast.ForStmt:
		st.walkStmt(s.Init)
		st.scanExpr(s.Cond)
		st.walkStmt(s.Body)
		st.walkStmt(s.Post)
	case *ast.RangeStmt:
		st.scanExpr(s.X)
		st.walkStmt(s.Body)
	case *ast.SwitchStmt:
		st.walkStmt(s.Init)
		st.scanExpr(s.Tag)
		st.walkStmt(s.Body)
	case *ast.TypeSwitchStmt:
		st.walkStmt(s.Init)
		st.walkStmt(s.Assign)
		st.walkStmt(s.Body)
	case *ast.SelectStmt:
		st.walkStmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			st.scanExpr(e)
		}
		st.walkStmts(s.Body)
	case *ast.CommClause:
		st.walkStmt(s.Comm)
		st.walkStmts(s.Body)
	case *ast.LabeledStmt:
		st.walkStmt(s.Stmt)
	case *ast.AssignStmt:
		st.walkAssign(s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					st.walkAssign(lhs, vs.Values)
					continue
				}
				// var out bytes.Buffer — a candidate framed accumulator.
				for _, id := range vs.Names {
					if obj := objectOf(st.info(), id); obj != nil && isBytesBuffer(obj.Type()) {
						st.bufClean[obj] = true
					}
				}
			}
		}
	case *ast.ExprStmt:
		st.scanExpr(s.X)
	case *ast.ReturnStmt:
		st.walkReturn(s)
	case *ast.GoStmt:
		st.scanExpr(s.Call)
	case *ast.DeferStmt:
		st.scanExpr(s.Call)
	case *ast.SendStmt:
		st.scanExpr(s.Chan)
		st.scanExpr(s.Value)
	}
}

// walkAssign: process the right-hand side (checks + call semantics),
// then classify the bindings as framed, raw, or neither.
func (st *rfState) walkAssign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 {
		call, isCall := ast.Unparen(rhs[0]).(*ast.CallExpr)
		if isCall {
			st.scanCall(call, true)
			st.bindCall(lhs, call)
			return
		}
	}
	for i, r := range rhs {
		st.scanExpr(r)
		if i >= len(lhs) {
			continue
		}
		obj := objectOf(st.info(), lhs[i])
		if obj == nil {
			continue
		}
		if st.isFramed(r) {
			st.framed[obj] = true
		} else {
			delete(st.framed, obj)
		}
		delete(st.raw, obj)
		if mask := st.deriveMask(r); mask != 0 {
			st.derived[obj] = mask
		} else {
			delete(st.derived, obj)
		}
	}
}

// deriveMask returns the parameter bits the expression's value derives
// from: parameters referenced directly, plus locals previously bound
// from them through summary-less calls.
func (st *rfState) deriveMask(e ast.Expr) uint64 {
	var mask uint64
	ast.Inspect(e, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		obj := objectOfNode(st.info(), n)
		if obj == nil {
			return true
		}
		if i, isParam := st.paramIdx[obj]; isParam {
			mask |= 1 << i
		}
		mask |= st.derived[obj]
		return true
	})
	return mask
}

// bindCall classifies the bindings of a single-call assignment.
func (st *rfState) bindCall(lhs []ast.Expr, call *ast.CallExpr) {
	framedBit, rawBit := st.callResultBits(call)
	diskRead := isDiskRead(st.info(), call)
	mask := st.deriveMask(call)
	for i, l := range lhs {
		obj := objectOf(st.info(), l)
		if obj == nil {
			continue
		}
		delete(st.framed, obj)
		delete(st.raw, obj)
		delete(st.derived, obj)
		switch {
		case diskRead && i == 0:
			st.raw[obj] = &rawVal{pos: call.Pos()}
		case rawBit&(1<<i) != 0:
			st.raw[obj] = &rawVal{pos: call.Pos(), via: calleeName(call)}
		case framedBit&(1<<i) != 0, i == 0 && len(lhs) == 1 && st.isFramed(call):
			st.framed[obj] = true
		case mask != 0:
			// io.ReadAll(r) and friends: the binding still carries the
			// parameter's bytes for salvage-fact purposes.
			st.derived[obj] = mask
		}
	}
}

// callResultBits returns the callee summary's framed/raw result masks.
func (st *rfState) callResultBits(call *ast.CallExpr) (framed, raw uint64) {
	fn := ir.StaticCallee(st.info(), call)
	if fn == nil {
		return 0, 0
	}
	cf, ok := st.prog.ByObj[fn]
	if !ok {
		return 0, 0
	}
	sum := st.facts.sums[cf]
	return sum.framedRes, sum.rawRes
}

// walkReturn: returned raw bytes escape to the caller (rawRes);
// returned byte-slice results accumulate framed/unframed evidence.
func (st *rfState) walkReturn(s *ast.ReturnStmt) {
	// return readBlob(...): a callee's whole result tuple passes
	// through, raw bits included.
	if len(s.Results) == 1 && len(st.f.Results) > 1 {
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			st.scanExpr(s.Results[0])
			framedBit, rawBit := st.callResultBits(call)
			for i := range st.f.Results {
				if i >= 64 || !isByteSlice(st.f.Results[i].Type()) {
					continue
				}
				switch {
				case rawBit&(1<<i) != 0:
					st.passRaw(i, call)
				case framedBit&(1<<i) != 0:
					st.framedSeen |= 1 << i
				default:
					st.unframedSeen |= 1 << i
				}
			}
			return
		}
	}
	for i, e := range s.Results {
		st.scanExpr(e)
		if i >= len(st.f.Results) || i >= 64 || !isByteSlice(st.f.Results[i].Type()) {
			continue
		}
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if _, rawBit := st.callResultBits(call); rawBit&1 != 0 {
				st.passRaw(i, call)
				continue
			}
		}
		if obj := objectOf(st.info(), e); obj != nil {
			if rv, isRaw := st.raw[obj]; isRaw {
				if st.sum != nil {
					rv.ok = true
					if st.sum.rawRes&(1<<i) == 0 {
						st.sum.rawRes |= 1 << i
						st.changed = true
					}
				} else if st.hasCallers() {
					// Escapes to a caller, whose binding inherits the
					// salvage obligation via rawRes.
					rv.ok = true
				}
				continue
			}
		}
		if isNilExpr(st.info(), e) {
			continue
		}
		if st.isFramed(e) {
			st.framedSeen |= 1 << i
		} else {
			st.unframedSeen |= 1 << i
		}
	}
}

// passRaw: result i of a returned call carries raw bytes straight
// through to this function's callers — record it in the summary, or,
// when nobody calls this function, report the dead end here.
func (st *rfState) passRaw(i int, call *ast.CallExpr) {
	if st.sum != nil {
		if st.sum.rawRes&(1<<i) == 0 {
			st.sum.rawRes |= 1 << i
			st.changed = true
		}
		return
	}
	if !st.hasCallers() {
		st.reportRaw(&rawVal{pos: call.Pos(), via: calleeName(call)})
	}
}

// scanExpr walks an expression for call sites.
func (st *rfState) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // its body is its own Func
		case *ast.CallExpr:
			st.scanCall(x, false)
			return false // scanCall descends into arguments itself
		}
		return true
	})
}

// scanCall enforces the write-side and read-side obligations at one
// call site. bound reports whether the call's results are being bound
// by the enclosing assignment.
func (st *rfState) scanCall(call *ast.CallExpr, bound bool) {
	// Arguments first (nested calls evaluate before the outer call).
	for _, a := range call.Args {
		st.scanExpr(a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		st.scanExpr(sel.X)
	}

	info := st.info()
	fn := ir.StaticCallee(info, call)

	// bytes.Buffer accumulator protocol.
	if st.bufferMethod(call) {
		return
	}

	// A tracked buffer passed to any other call — io.Copy(&buf, …),
	// fmt.Fprintf(&buf, …) — takes on bytes this pass cannot see; it is
	// no longer a clean framed accumulator.
	for _, a := range call.Args {
		x := ast.Unparen(a)
		if u, isAddr := x.(*ast.UnaryExpr); isAddr && u.Op == token.AND {
			x = ast.Unparen(u.X)
		}
		if obj := objectOf(info, x); obj != nil {
			if _, tracked := st.bufClean[obj]; tracked {
				st.bufClean[obj] = false
			}
		}
	}

	// Read side: a Disk.Read whose bytes are never bound is a read the
	// function cannot be salvaging.
	if isDiskRead(info, call) {
		if !bound {
			st.reportf(call.Pos(), "Disk.Read bytes never reach a salvage-aware reader: route them through record.Scan or a helper that does so damage degrades instead of misparsing, or waive with //viplint:allow record-frame <reason>")
		}
		return
	}

	// Write side: kernel write payloads must be framed.
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == kernelPkgPath &&
		kernelWriteMethods[fn.Name()] && fn.Name() != "SysRename" && len(call.Args) > 0 {
		st.checkPayload(call.Args[len(call.Args)-1], fn.Name(), "")
		return
	}

	// Calls into summarized module functions: transferred obligations.
	var sum *rfSum
	var cf *ir.Func
	if fn != nil {
		if f, ok := st.prog.ByObj[fn]; ok {
			cf = f
			sum = st.facts.sums[f]
		}
	}
	if sum == nil {
		return
	}
	recvOffset := 0
	if len(cf.Params) > 0 && cf.Obj != nil {
		if sig, ok := cf.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recvOffset = 1
		}
	}
	argFor := func(pi int) ast.Expr {
		ai := pi - recvOffset
		if ai < 0 || ai >= len(call.Args) {
			return nil
		}
		return call.Args[ai]
	}
	// Framing obligation transferred from the callee's kernel write.
	for pi, method := range sum.writesParam {
		if arg := argFor(pi); arg != nil {
			st.checkPayload(arg, method, cf.Name())
		}
	}
	// Salvage credit: raw bytes reaching a salvage-aware callee (the
	// record package, or a parameter the callee routes there).
	isRecord := fn.Pkg() != nil && fn.Pkg().Path() == recordPkgPath
	for pi := range cf.Params {
		arg := argFor(pi)
		if arg == nil {
			continue
		}
		salvaging := isRecord || sum.salvageParams&(1<<pi) != 0
		if !salvaging {
			continue
		}
		st.creditSalvage(arg, pi)
	}
}

// creditSalvage marks every raw value mentioned in arg as salvaged,
// and records the salvage fact for parameters in summary mode.
func (st *rfState) creditSalvage(arg ast.Expr, calleeParam int) {
	ast.Inspect(arg, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		obj := objectOfNode(st.info(), n)
		if obj == nil {
			return true
		}
		if rv, ok := st.raw[obj]; ok {
			rv.ok = true
		}
		if st.sum != nil {
			mask := st.derived[obj]
			if i, isParam := st.paramIdx[obj]; isParam {
				mask |= 1 << i
			}
			if mask&^st.sum.salvageParams != 0 {
				st.sum.salvageParams |= mask
				st.changed = true
			}
		}
		return true
	})
}

// checkPayload enforces framing on one kernel write payload: framed
// expressions pass, parameter payloads transfer the obligation to
// callers, anything else is a violation. via names the helper the
// write sits behind ("" for a direct kernel call).
func (st *rfState) checkPayload(payload ast.Expr, method, via string) {
	if st.isFramed(payload) {
		return
	}
	if obj := objectOf(st.info(), payload); obj != nil {
		if i, isParam := st.paramIdx[obj]; isParam && isByteSlice(obj.Type()) && !st.allowedHere(payload.Pos()) {
			// A waiver at the write site pins the obligation here: the
			// summary transfers nothing, the local report stands (and is
			// suppressed by — and credits — that directive). Otherwise
			// the callers would be flagged instead and the reviewed
			// waiver would audit as stale.
			if st.sum != nil {
				if st.sum.writesParam[i] == "" {
					st.sum.writesParam[i] = method
					st.changed = true
				}
				return
			}
			// Report mode: the obligation moves to the callers — unless
			// nobody calls this function, in which case no caller will
			// ever frame the payload and the write itself is the finding.
			if st.hasCallers() {
				return
			}
		}
	}
	if via == "" {
		st.reportf(payload.Pos(), "unframed %s payload: persisted artifacts go through record.Frame so a torn write fails its checksum — frame it or waive with //viplint:allow record-frame <reason>", method)
	} else {
		st.reportf(payload.Pos(), "unframed %s payload passed to %s: persisted artifacts go through record.Frame so a torn write fails its checksum — frame it or waive with //viplint:allow record-frame <reason>", method, via)
	}
}

// bufferMethod handles a method call on a tracked bytes.Buffer: Write
// of framed bytes keeps the accumulator clean, anything else dirties
// it. Returns true when the call was a tracked-buffer method.
func (st *rfState) bufferMethod(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := objectOf(st.info(), sel.X)
	if obj == nil {
		return false
	}
	if _, tracked := st.bufClean[obj]; !tracked {
		return false
	}
	switch sel.Sel.Name {
	case "Write":
		if !(len(call.Args) == 1 && st.isFramed(call.Args[0])) {
			st.bufClean[obj] = false
		}
	case "Bytes", "Len", "Cap", "String":
		// Reads don't change what the buffer holds.
	default:
		st.bufClean[obj] = false
	}
	return true
}

// isFramed reports whether e evaluates to record.Frame-framed bytes:
// a record.Frame call, a call whose summary marks the result framed, a
// local already classified framed, a clean accumulator's Bytes(), or
// an append stitching framed pieces together.
func (st *rfState) isFramed(e ast.Expr) bool {
	e = ast.Unparen(e)
	info := st.info()
	switch x := e.(type) {
	case *ast.CallExpr:
		if id, isIdent := ast.Unparen(x.Fun).(*ast.Ident); isIdent && id.Name == "append" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				for _, a := range x.Args {
					if !st.isFramed(a) {
						return false
					}
				}
				return len(x.Args) > 0
			}
		}
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Bytes" {
			if obj := objectOf(info, sel.X); obj != nil && st.bufClean[obj] {
				return true
			}
		}
		framedBits, _ := st.callResultBits(x)
		return framedBits&1 != 0
	case *ast.Ident, *ast.SelectorExpr:
		if obj := objectOf(info, e); obj != nil {
			return st.framed[obj]
		}
	}
	return false
}

// objectOfNode: objectOf lifted to ast.Node for Inspect callbacks.
func objectOfNode(info *types.Info, n ast.Node) types.Object {
	e, ok := n.(ast.Expr)
	if !ok {
		return nil
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return objectOf(info, e)
	}
	return nil
}

// allowedHere reports a well-formed //viplint:allow record-frame
// directive on pos's line or the line above — the writer pinned the
// waiver to the write site, so obligations must not outrun it.
func (st *rfState) allowedHere(pos token.Pos) bool {
	line := st.f.Pkg.Fset.Position(pos).Line
	for _, file := range st.f.Pkg.Files {
		for _, grp := range file.Comments {
			for _, c := range grp.List {
				text, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) < 2 || fields[0] != "record-frame" {
					continue
				}
				cl := st.f.Pkg.Fset.Position(c.Pos()).Line
				if cl == line || cl == line-1 {
					return true
				}
			}
		}
	}
	return false
}

// isReaderish reports an interface type with a Read method (io.Reader
// and supersets): bytes flowing in through such a parameter are the
// read-side analogue of a byte-slice parameter.
func isReaderish(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == "Read" {
			return true
		}
	}
	return false
}

// isDiskRead matches kernel Disk.Read — the raw-bytes source.
func isDiskRead(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == kernelPkgPath &&
		fn.Name() == "Read" && receiverIs(fn, "Disk")
}

// isByteSlice reports []byte (or a named type over it).
func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isBytesBuffer reports bytes.Buffer or *bytes.Buffer.
func isBytesBuffer(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "bytes" && obj.Name() == "Buffer"
}

// isNilExpr reports the untyped nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
