package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// datapathSuffixes selects the message-passing library packages whose
// exported API is a protocol surface: errors there (bad peer data, exhausted
// rings, revoked mappings) must surface as error returns, not crash the
// whole simulated machine.
var datapathSuffixes = []string{
	"/internal/nx",
	"/internal/vmmc",
	"/internal/socket",
	"/internal/sunrpc",
	"/internal/svm",
	"/internal/app",
	"/internal/retry",
	"/internal/fault",
}

func isDatapathPackage(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, s := range datapathSuffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// TransitivePanicAnalyzer returns the transitive-panic rule, the whole-repo
// successor of the old per-package no-panic-on-datapath rule: panic calls in
// any function reachable — through the cross-package call graph, closures
// included — from an exported function or method of the datapath packages
// are flagged, wherever in the module the panic lives. The diagnostic
// carries the call chain from the entry point to the panicking function, so
// the report explains itself:
//
//	panic on a path reachable from the protocol surface
//	(internal/nx.NX.Csend -> internal/nic.NIC.packetize ->
//	internal/mesh.Network.Send); return an error instead
func TransitivePanicAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "transitive-panic",
		Doc:  "flag panics reachable, across packages, from exported entry points of nx/vmmc/socket/sunrpc/svm",
		RunModule: func(pkgs []*Package, report func(p *Package, pos token.Pos, msg string)) {
			g := BuildModGraph(pkgs)
			var roots []string
			for _, key := range g.SortedKeys() {
				n := g.Nodes[key]
				if n.Exported && isDatapathPackage(n.Pkg.Path) && !inTestFile(n) {
					roots = append(roots, key)
				}
			}
			parent := g.Reach(roots)
			for _, key := range g.SortedKeys() {
				if _, reachable := parent[key]; !reachable {
					continue
				}
				n := g.Nodes[key]
				if inTestFile(n) {
					continue // a panicking test helper is a test failure, not a datapath crash
				}
				chain := Chain(parent, key)
				ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
					call, ok := node.(*ast.CallExpr)
					if !ok {
						return true
					}
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && isBuiltin(n.Pkg, id) {
						report(n.Pkg, call.Pos(), fmt.Sprintf(
							"panic on a path reachable from the protocol surface (%s); return an error instead", chain))
					}
					return true
				})
			}
		},
	}
}

// inTestFile reports whether the node's declaration lives in a _test.go
// source.
func inTestFile(n *ModNode) bool {
	return strings.HasSuffix(n.Pkg.Fset.Position(n.Decl.Pos()).Filename, "_test.go")
}
