package lint

import (
	"go/ast"
	"go/token"
)

// DiscardedTimerAnalyzer returns the discarded-timer rule: a statement that
// calls sim.Engine.Schedule and drops the returned *Timer pays a heap
// allocation for a handle nobody can use. Post fires at the same instant in
// the same (time, seq) order and allocates nothing, so a caller that never
// cancels must use it. Test files and the engine package itself (which
// tests its own API) are exempt.
func DiscardedTimerAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "discarded-timer",
		Doc:  "flag Engine.Schedule calls whose *Timer is dropped; use Post",
		Run: func(p *Package, report func(pos token.Pos, msg string)) {
			if p.IsSimItself() {
				return
			}
			for _, f := range p.Files {
				if p.IsTestFile(f) {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					stmt, ok := n.(*ast.ExprStmt)
					if !ok {
						return true
					}
					call, ok := stmt.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !isMethod(useObj(p, sel.Sel), "/internal/sim", "Engine", "Schedule") {
						return true
					}
					report(call.Pos(), "Engine.Schedule allocates a *Timer that is dropped here; use Engine.Post, which fires identically and allocates nothing")
					return true
				})
			}
		},
	}
}
