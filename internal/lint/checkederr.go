package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// errSurfaceSuffixes selects the packages whose exported error returns are
// the timeout/fault surfaces introduced when every infinite wait was
// replaced by a deadline: dropping one silently converts "the peer died and
// we noticed" back into "we hung or carried on with garbage".
var errSurfaceSuffixes = []string{
	"/internal/nx",
	"/internal/socket",
	"/internal/daemon",
	"/internal/vmmc",
	"/internal/svm",
	"/internal/app",
	"/internal/retry",
	"/internal/fault",
}

func isErrSurfacePackage(path string) bool {
	for _, s := range errSurfaceSuffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// CheckedErrorsAnalyzer returns the checked-errors-on-datapath rule: a call
// to an exported function or method of the nx/socket/daemon/vmmc/svm
// surfaces whose signature returns an error may not discard it — neither as
// a bare call statement nor by assigning the error to the blank identifier —
// in sim-reachable code. The rule is type-driven: the callee's declaring
// package and signature come from type information, so aliased imports,
// method values, and cross-package calls all resolve.
func CheckedErrorsAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "checked-errors-on-datapath",
		Doc:  "error results of exported nx/socket/daemon/vmmc/svm calls must not be discarded",
		Run: func(p *Package, report func(pos token.Pos, msg string)) {
			if !p.SimReachable || p.Info == nil {
				return
			}
			eachFile(p, func(f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.ExprStmt:
						if call, ok := n.X.(*ast.CallExpr); ok {
							if fn := p.errSurfaceCallee(call); fn != nil {
								report(call.Pos(), fmt.Sprintf(
									"error result of %s discarded by a bare call statement; check it (the datapath reports peer death and timeouts this way)",
									calleeLabel(fn)))
							}
						}
					case *ast.AssignStmt:
						if len(n.Rhs) != 1 {
							return true
						}
						call, ok := n.Rhs[0].(*ast.CallExpr)
						if !ok {
							return true
						}
						fn := p.errSurfaceCallee(call)
						if fn == nil {
							return true
						}
						// The error is the last result; flag it when blanked.
						if len(n.Lhs) == fn.Type().(*types.Signature).Results().Len() {
							if id, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
								report(id.Pos(), fmt.Sprintf(
									"error result of %s assigned to _; check it (the datapath reports peer death and timeouts this way)",
									calleeLabel(fn)))
							}
						}
					}
					return true
				})
			})
		},
	}
}

// errSurfaceCallee resolves call's target and returns it when it is an
// exported function or method of an error-surface package whose last result
// is an error; nil otherwise.
func (p *Package) errSurfaceCallee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := useObj(p, id).(*types.Func)
	if !ok || !fn.Exported() || fn.Pkg() == nil {
		return nil
	}
	if !isErrSurfacePackage(fn.Pkg().Path()) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !types.Identical(last, types.Universe.Lookup("error").Type()) {
		return nil
	}
	return fn
}

// calleeLabel renders "pkg.Func" or "pkg.Type.Method" for diagnostics.
func calleeLabel(fn *types.Func) string {
	pkg := fn.Pkg().Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj() != nil {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}
