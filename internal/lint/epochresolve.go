package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"viprof/internal/lint/analysis"
)

// EpochResolve enforces the attribution-soundness boundary: outside
// internal/core, PC→method lookup must go through MapChain.Resolve or
// MapChain.ResolveDurable. Direct indexing or scanning of code-map
// entry slices — or calling the raw Entries accessor — bypasses the
// poison-ceiling degradation semantics that keep a damaged chain from
// misattributing samples (degrade, don't lie). Core itself implements
// the chain and is exempt.
var EpochResolve = &analysis.Analyzer{
	Name: "epoch-resolve",
	Doc: "outside internal/core, code-map lookups must use MapChain.Resolve/ResolveDurable, " +
		"never raw entry access",
	Run: runEpochResolve,
}

const corePkgPath = "viprof/internal/core"

// forbiddenChainMethods bypass the durable resolution path.
var forbiddenChainMethods = map[string]string{
	"Entries": "raw entry access bypasses durable resolution entirely",
}

func runEpochResolve(pass *analysis.Pass) (interface{}, error) {
	if path := pass.Pkg.Path(); path == corePkgPath || strings.HasPrefix(path, corePkgPath+"/") {
		return nil, nil
	}
	info := pass.TypesInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				fn := selectedFunc(info, x)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != corePkgPath {
					return true
				}
				why, forbidden := forbiddenChainMethods[fn.Name()]
				if forbidden && receiverIs(fn, "MapChain") {
					pass.Reportf(x.Pos(), "MapChain.%s outside internal/core: %s; use Resolve or ResolveDurable", fn.Name(), why)
				}
			case *ast.IndexExpr:
				if isMapEntrySlice(info, x.X) {
					pass.Reportf(x.Pos(), "direct indexing of code-map entries outside internal/core bypasses MapChain.Resolve/ResolveDurable and its poison-ceiling semantics")
				}
			case *ast.RangeStmt:
				if isMapEntrySlice(info, x.X) {
					pass.Reportf(x.Pos(), "scanning code-map entries outside internal/core bypasses MapChain.Resolve/ResolveDurable and its poison-ceiling semantics")
				}
			}
			return true
		})
	}
	return nil, nil
}

// receiverIs reports whether fn is a method on (a pointer to) the named
// type.
func receiverIs(fn *types.Func, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	return isNamed && named.Obj().Name() == name
}

// isMapEntrySlice reports whether e's type is a slice or array of
// core.MapEntry.
func isMapEntrySlice(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	var elem types.Type
	switch u := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return false
	}
	named, isNamed := elem.(*types.Named)
	return isNamed && named.Obj().Name() == "MapEntry" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == corePkgPath
}
