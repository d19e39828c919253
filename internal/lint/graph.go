package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the whole-repo half of the shared analysis substrate: a
// cross-package call graph over every function and method declared in the
// module, built from the per-package types.Info the loader already computed.
// Module-level analyzers (transitive-panic today) traverse it to follow a
// protocol entry point across package boundaries — the per-package graph in
// the old no-panic-on-datapath rule stopped at the first import.

// ModGraph is the module-wide call graph. Node keys are
// "<import path>.<Func>" for functions and "<import path>.<Type>.<Method>"
// for methods, e.g. "shrimp/internal/mesh.Network.Send".
type ModGraph struct {
	Nodes map[string]*ModNode
	// Edges maps caller key -> callee keys, sorted and deduplicated.
	Edges map[string][]string
}

// ModNode is one declared function or method.
type ModNode struct {
	Key      string
	Pkg      *Package
	Decl     *ast.FuncDecl
	Exported bool
}

// SortedKeys returns the node keys in lexical order (the deterministic
// traversal order every client must use).
func (g *ModGraph) SortedKeys() []string {
	keys := make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BuildModGraph constructs the call graph for the loaded package set.
//
// Call targets are resolved through type information: a plain identifier or
// a selector resolves via Info.Uses to a *types.Func, whose package path,
// receiver, and name form the callee key — this works identically for
// same-package and cross-package calls, and is immune to the loader's
// two-pass re-checking (keys are strings, not object identities). Calls that
// cannot be typed fall back to a name-only match against same-package
// methods, over-approximating like the old per-package graph (an extra edge
// can only add reachability, never hide it). A function or method named
// outside call position — a method value like net.Attach(id, n.incoming),
// an IRQ handler, a prebuilt event callback — is an edge too: whoever
// later invokes the value runs the callee on the enclosing function's
// behalf. Calls and references inside function literals are attributed to
// the enclosing declaration.
func BuildModGraph(pkgs []*Package) *ModGraph {
	g := &ModGraph{Nodes: map[string]*ModNode{}, Edges: map[string][]string{}}
	// methodsByName supports the untyped fallback, per package.
	methodsByName := map[*Package]map[string][]string{}
	for _, p := range pkgs {
		methodsByName[p] = map[string][]string{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := p.Path + "." + declKey(fd)
				g.Nodes[key] = &ModNode{Key: key, Pkg: p, Decl: fd, Exported: fd.Name.IsExported()}
				if fd.Recv != nil {
					name := fd.Name.Name
					methodsByName[p][name] = append(methodsByName[p][name], key)
				}
			}
		}
	}
	for key, node := range g.Nodes {
		p := node.Pkg
		seen := map[string]bool{}
		add := func(callee string) {
			if callee != "" && !seen[callee] {
				seen[callee] = true
				g.Edges[key] = append(g.Edges[key], callee)
			}
		}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				// Any selector naming a function — a call's target or a
				// method value handed off to be called later (a
				// packet handler, an IRQ handler, a prebuilt event
				// callback) — is an edge: whoever invokes the value
				// runs the callee on this function's behalf.
				add(funcKey(useObj(p, sel.Sel)))
			}
			if id, ok := n.(*ast.Ident); ok {
				add(funcKey(useObj(p, id)))
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := call.Fun.(type) {
			case *ast.Ident:
				if k := funcKey(useObj(p, fn)); k != "" {
					add(k)
				} else if _, declared := g.Nodes[p.Path+"."+fn.Name]; declared {
					add(p.Path + "." + fn.Name)
				}
			case *ast.SelectorExpr:
				if k := funcKey(useObj(p, fn.Sel)); k != "" {
					add(k)
				} else {
					// Untyped receiver: over-approximate within the package.
					for _, k := range methodsByName[p][fn.Sel.Name] {
						add(k)
					}
				}
			}
			return true
		})
		sort.Strings(g.Edges[key])
	}
	return g
}

// funcKey renders the graph key for a resolved function object, or "" when
// obj is not a function declared in a loadable package (builtins, stdlib
// functions, interface methods of other modules, variables of function type).
func funcKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj() == nil {
			return ""
		}
		key += named.Obj().Name() + "."
	}
	return key + fn.Name()
}

// Reach runs a breadth-first traversal from the given root keys and returns,
// for every reachable node, its predecessor on the first discovered path
// (roots map to ""). Traversal order is deterministic: roots are visited
// sorted, and edges are pre-sorted.
func (g *ModGraph) Reach(roots []string) map[string]string {
	parent := map[string]string{}
	queue := append([]string(nil), roots...)
	sort.Strings(queue)
	for _, r := range queue {
		parent[r] = ""
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		for _, callee := range g.Edges[key] {
			if _, seen := parent[callee]; !seen {
				if _, declared := g.Nodes[callee]; declared {
					parent[callee] = key
					queue = append(queue, callee)
				}
			}
		}
	}
	return parent
}

// Chain reconstructs the entry-to-node call chain recorded by Reach,
// rendered with module-relative package paths: "internal/nx.NX.Csend ->
// internal/nx.NX.send -> internal/mesh.Network.Send".
func Chain(parent map[string]string, key string) string {
	var hops []string
	for k := key; k != ""; k = parent[k] {
		hops = append(hops, shortKey(k))
		if parent[k] == "" {
			break
		}
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return strings.Join(hops, " -> ")
}

// shortKey strips the module path prefix from a node key for readable
// diagnostics.
func shortKey(key string) string {
	if i := strings.Index(key, "/internal/"); i >= 0 {
		return key[i+1:]
	}
	if i := strings.Index(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// DebugDump renders the graph as "caller -> callee" lines in deterministic
// order, for shrimplint -graph.
func (g *ModGraph) DebugDump() string {
	var b strings.Builder
	for _, key := range g.SortedKeys() {
		if len(g.Edges[key]) == 0 {
			continue
		}
		for _, callee := range g.Edges[key] {
			fmt.Fprintf(&b, "%s -> %s\n", shortKey(key), shortKey(callee))
		}
	}
	return b.String()
}

// declKey names a FuncDecl: "Func" or "Type.Method".
func declKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return receiverTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

func receiverTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return receiverTypeName(e.X)
	}
	return "?"
}
