package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SpinWaitAnalyzer returns the no-spin-wait rule: a call to
// kernel.Process.WaitPred whose predicate, its last argument, is a function
// literal that only returns true never parks. WaitPred charges one poll-check and then
// returns, so a loop around it polls every PollCheckCost of virtual time,
// one engine event each, instead of sleeping until a watched write can
// change the answer. The predicate must test what the loop waits for.
func SpinWaitAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "no-spin-wait",
		Doc:  "flag Process.WaitPred calls whose predicate is func() bool { return true }",
		Run: func(p *Package, report func(pos token.Pos, msg string)) {
			eachFile(p, func(f *ast.File) {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !isMethod(useObj(p, sel.Sel), "/internal/kernel", "Process", "WaitPred") {
						return true
					}
					if pred := call.Args[len(call.Args)-1]; alwaysTrue(pred) {
						report(pred.Pos(),
							"WaitPred with an always-true predicate is a PollCheckCost spin, not a wait; test the condition the loop waits for")
					}
					return true
				})
			})
		},
	}
}

// alwaysTrue reports whether e is a function literal whose body is the
// single statement `return true`.
func alwaysTrue(e ast.Expr) bool {
	lit, ok := e.(*ast.FuncLit)
	if !ok || len(lit.Body.List) != 1 {
		return false
	}
	ret, ok := lit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	id, ok := ret.Results[0].(*ast.Ident)
	return ok && id.Name == "true"
}

// isMethod reports whether obj is one of the named methods of type typ
// declared in the package whose import path ends in pkg.
func isMethod(obj types.Object, pkg, typ string, names ...string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), pkg) {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != typ {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
