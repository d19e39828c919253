package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadModule discovers, parses, and type-checks every package of the Go
// module rooted at root — including _test.go files — without shelling out to
// the go tool and without any dependency beyond the standard library.
//
// Standard-library imports are type-checked from GOROOT source via the
// stdlib "source" importer; module-internal imports are resolved against the
// packages being loaded (checked in dependency order). Type checking is
// best-effort: a package that fails to fully check still yields partial type
// information, and analyzers degrade to syntactic matching.
//
// Test handling: non-test sources are checked first, in topological import
// order, and registered for cross-package resolution. Then each package that
// has in-package test files is re-checked with them included (every module
// package is resolvable by that point, so test files may import packages the
// non-test sources do not). External test packages (package foo_test) become
// their own *Package with path "<pkg>_test", as do directories holding only
// test files.
func LoadModule(root string) ([]*Package, error) {
	return LoadModuleTests(root, true)
}

// LoadModuleTests is LoadModule with test-file analysis switchable off.
func LoadModuleTests(root string, includeTests bool) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	type node struct {
		path  string
		dir   string
		files []*ast.File // non-test sources
		// inTests are _test.go files in the package itself; extTests are
		// _test.go files declaring package <name>_test.
		inTests  []*ast.File
		extTests []*ast.File
		deps     []string // module-internal imports of the non-test files
		testDeps []string // module-internal imports of the test files
	}
	internalDeps := func(files []*ast.File) []string {
		var deps []string
		for _, f := range files {
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					deps = append(deps, ip)
				}
			}
		}
		return deps
	}
	nodes := map[string]*node{}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		files, tests, err := parseDir(fset, dir, includeTests)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 && len(tests) == 0 {
			continue
		}
		n := &node{path: path, dir: dir, files: files, deps: internalDeps(files)}
		for _, f := range tests {
			if strings.HasSuffix(f.Name.Name, "_test") {
				n.extTests = append(n.extTests, f)
			} else {
				n.inTests = append(n.inTests, f)
			}
		}
		n.testDeps = internalDeps(tests)
		nodes[path] = n
	}

	// Topological order over module-internal imports of the non-test
	// sources (Go forbids cycles, but guard against them so a broken tree
	// cannot hang the linter). Test-file imports are excluded here: external
	// test packages may legally import packages that import the one under
	// test, and all test checking happens in a second pass anyway.
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		n, ok := nodes[path]
		if !ok {
			return nil
		}
		switch state[path] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		deps := append([]string(nil), n.deps...)
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, path)
		return nil
	}
	var paths []string
	for p := range nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}

	imp := &moduleImporter{
		std:    importer.ForCompiler(fset, "source", nil),
		module: map[string]*types.Package{},
		fakes:  map[string]*types.Package{},
	}
	newInfo := func() *types.Info {
		return &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
	}
	check := func(path string, files []*ast.File) (*types.Package, *types.Info) {
		info := newInfo()
		conf := types.Config{
			Importer: imp,
			Error:    func(error) {}, // best-effort: keep checking
		}
		tpkg, _ := conf.Check(path, fset, files, info)
		return tpkg, info
	}

	// Pass 1: non-test sources, dependency order, registered for import.
	var pkgs []*Package
	for _, path := range order {
		n := nodes[path]
		if len(n.files) == 0 {
			continue // test-only directory; handled in pass 2
		}
		tpkg, info := check(path, n.files)
		if tpkg != nil {
			imp.module[path] = tpkg
		}
		pkgs = append(pkgs, &Package{
			Path:  path,
			Dir:   n.dir,
			Fset:  fset,
			Files: n.files,
			Types: tpkg,
			Info:  info,
		})
	}

	// Pass 2: test files. Every module package is now resolvable, so test
	// files may import packages the non-test sources do not (including, for
	// external test packages, ones that would cycle).
	if includeTests {
		byPath := map[string]*Package{}
		for _, p := range pkgs {
			byPath[p.Path] = p
		}
		for _, path := range order {
			n := nodes[path]
			if len(n.inTests) > 0 {
				all := append(append([]*ast.File(nil), n.files...), n.inTests...)
				tpkg, info := check(path, all)
				p := byPath[path]
				if p == nil {
					p = &Package{Path: path, Dir: n.dir, Fset: fset}
					pkgs = append(pkgs, p)
					byPath[path] = p
				}
				p.Files = all
				p.Types = tpkg
				p.Info = info
				p.markTests(n.inTests)
			}
			if len(n.extTests) > 0 {
				tpath := path + "_test"
				tpkg, info := check(tpath, n.extTests)
				p := &Package{
					Path:   tpath,
					Dir:    n.dir,
					Fset:   fset,
					Files:  n.extTests,
					Types:  tpkg,
					Info:   info,
					TestOf: path,
				}
				p.markTests(n.extTests)
				pkgs = append(pkgs, p)
			}
		}
	}

	// Sim reachability: internal/sim itself plus everything whose sources —
	// test files included — import it transitively within the module.
	allDeps := func(path string) []string {
		n := nodes[strings.TrimSuffix(path, "_test")]
		if n == nil {
			return nil
		}
		if strings.HasSuffix(path, "_test") || len(n.inTests) > 0 {
			return append(append([]string(nil), n.deps...), n.testDeps...)
		}
		return n.deps
	}
	reach := map[string]bool{}
	var reachable func(path string) bool
	reachable = func(path string) bool {
		if path == SimPath || strings.TrimSuffix(path, "_test") == SimPath {
			return true
		}
		if v, ok := reach[path]; ok {
			return v
		}
		reach[path] = false // cycle guard
		for _, d := range allDeps(path) {
			if reachable(d) {
				reach[path] = true
				return true
			}
		}
		return false
	}
	for _, p := range pkgs {
		p.SimReachable = reachable(p.Path)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// moduleImporter resolves module-internal imports from the already-checked
// set, standard-library imports from GOROOT source, and anything else (or
// any failure) as an empty placeholder so checking can continue.
type moduleImporter struct {
	std    types.Importer
	module map[string]*types.Package
	fakes  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	if p, err := m.std.Import(path); err == nil && p != nil {
		return p, nil
	}
	if p, ok := m.fakes[path]; ok {
		return p, nil
	}
	name := path[strings.LastIndex(path, "/")+1:]
	p := types.NewPackage(path, name)
	p.MarkComplete()
	m.fakes[path] = p
	return p, nil
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %w (run from the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// FindModuleRoot walks upward from dir to the nearest directory holding a
// go.mod. Shared by the shrimplint CLI and the benchmark harness.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// packageDirs walks the module tree and returns every directory holding at
// least one .go file.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" || name == "results") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// parseDir parses every .go file in dir, with comments (needed for
// suppression directives), returning non-test and test files separately.
func parseDir(fset *token.FileSet, dir string, includeTests bool) (files, tests []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !includeTests {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: %w", err)
		}
		if isTest {
			tests = append(tests, f)
		} else {
			files = append(files, f)
		}
	}
	return files, tests, nil
}
