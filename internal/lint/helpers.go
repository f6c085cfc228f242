package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"viprof/internal/lint/analysis"
)

// Shared resolution helpers for the viplint passes.

const kernelPkgPath = "viprof/internal/kernel"

// kernelWriteMethods are the kernel's write-path syscalls: each returns
// only an error, the durability signal errflow tracks and whose payload
// record-frame checks.
var kernelWriteMethods = map[string]bool{
	"SysWrite": true, "SysWriteSync": true, "SysRename": true,
}

// importedRef resolves a qualified identifier (pkg.Name) to the
// imported package path and selected name. ok is false for field and
// method selections.
func importedRef(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// selectedFunc resolves the function or method a selector names, via
// the selection (methods, incl. embedded) or the use map (qualified
// package functions).
func selectedFunc(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	if s, ok := info.Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok {
			return fn
		}
		return nil
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		return fn
	}
	return nil
}

// calleeFunc resolves a call's callee when it is a selector-named
// function or method.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return selectedFunc(info, fun)
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleeName is the syntactic name a call is made under (the selector's
// last component or the bare identifier), for name-keyed sink sets.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// hasFileDirective reports whether any comment in the pass's files is
// exactly the given //-directive (fixture packages opt into scoped
// passes this way).
func hasFileDirective(pass *analysis.Pass, directive string) bool {
	for _, f := range pass.Files {
		for _, grp := range f.Comments {
			for _, c := range grp.List {
				if strings.TrimSpace(c.Text) == "//"+directive {
					return true
				}
			}
		}
	}
	return false
}

// objectOf resolves the object an expression names: identifiers and
// field selections. nil for anything else (calls, literals, indexes).
func objectOf(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return nil
		}
		if obj := info.Defs[x]; obj != nil {
			return obj
		}
		return info.Uses[x]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
	}
	return nil
}

// isSliceLike reports whether t's underlying type is a slice or array —
// the only shapes whose element order persists.
func isSliceLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	}
	return false
}
