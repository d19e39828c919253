// Package lint is shrimplint: a static analysis suite that enforces the
// simulation's determinism contract.
//
// The whole reproduction rests on internal/sim's promise that exactly one
// goroutine runs at a time and that execution order is fully deterministic —
// every figure regenerated from the paper is only trustworthy if virtual-time
// runs are bit-for-bit repeatable. The analyzers here catch, at compile time,
// the code patterns that break that promise or corrupt the disciplines the
// simulator's hot paths rely on:
//
//	no-wallclock             wall-clock time in virtual-time code
//	no-stray-concurrency     goroutines/channels/sync outside internal/sim
//	deterministic-iteration  map iteration driving order-sensitive work
//	no-unseeded-rand         global math/rand in sim-reachable code
//	transitive-panic         panics reachable, across packages, from the
//	                         exported protocol entry points
//	pooled-ownership         pool-drawn payload buffers released or
//	                         forwarded exactly once on every path
//	span-balance             trace spans ended on every return path
//	checked-errors-on-datapath  datapath error returns never discarded
//	float-accumulation-order    float reductions driven by unordered
//	                            iteration
//	discarded-timer          Engine.Schedule/At handles dropped on the
//	                         floor (use the allocation-free Post/PostAt)
//	no-spin-wait             Process.WaitPred with an always-true
//	                         predicate (a poll loop, not a wait)
//
// The first four are per-file pattern rules; the next five are flow- and
// type-aware, built on a shared whole-repo call graph (graph.go) and a
// per-function forward dataflow walker (flow.go); discarded-timer and
// no-spin-wait are typed per-call checks.
//
// A diagnostic can be suppressed at the site with a comment on the same
// line or the line directly above:
//
//	//lint:allow <rule>[,<rule>...] <reason>
//
// The reason is mandatory; a bare allow is itself reported, as is a stale
// allow that no longer suppresses anything.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module under analysis.
type Package struct {
	// Path is the package's import path (e.g. "shrimp/internal/daemon").
	// External test packages carry a "_test" suffix.
	Path string
	// Dir is the directory the package was loaded from.
	Dir  string
	Fset *token.FileSet
	// Files holds the parsed sources, test files included.
	Files []*ast.File
	// Types is the (possibly partially) type-checked package object.
	Types *types.Package
	// Info carries type information for expressions in Files. Analyzers
	// must tolerate missing entries: type checking is best-effort and
	// continues past errors.
	Info *types.Info
	// SimReachable reports whether the package is internal/sim itself or
	// imports it, directly or transitively (test files included). The
	// virtual-time rules apply only to such packages.
	SimReachable bool
	// TestOf is the path of the package under test when this is an
	// external test package (package foo_test); "" otherwise.
	TestOf string

	// test marks which of Files are _test.go sources.
	test map[*ast.File]bool
}

// markTests records files as test sources.
func (p *Package) markTests(files []*ast.File) {
	if p.test == nil {
		p.test = map[*ast.File]bool{}
	}
	for _, f := range files {
		p.test[f] = true
	}
}

// IsTestFile reports whether f is a _test.go source.
func (p *Package) IsTestFile(f *ast.File) bool { return p.test[f] }

// IsSimItself reports whether p is the simulation engine package (or its
// test code), which is exempt from the concurrency rule (it implements the
// coroutine discipline the rest of the tree must rely on).
func (p *Package) IsSimItself() bool {
	path := strings.TrimSuffix(p.Path, "_test")
	return path == SimPath || strings.HasSuffix(path, "/internal/sim")
}

// SimPath is the import path of the simulation engine.
const SimPath = "shrimp/internal/sim"

// Diagnostic is one finding.
type Diagnostic struct {
	Rule string `json:"rule"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Msg)
}

// Analyzer is one lint rule. Exactly one of Run and RunModule is set: Run
// analyzes one package at a time; RunModule sees the whole loaded module at
// once (for cross-package analyses like transitive-panic).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package, report func(pos token.Pos, msg string))
	// RunModule, when set, runs once over the whole package set.
	RunModule func(pkgs []*Package, report func(p *Package, pos token.Pos, msg string))
}

// All returns every analyzer in the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer(),
		ConcurrencyAnalyzer(),
		MapRangeAnalyzer(),
		RandAnalyzer(),
		TransitivePanicAnalyzer(),
		PooledOwnershipAnalyzer(),
		SpanBalanceAnalyzer(),
		CheckedErrorsAnalyzer(),
		FloatOrderAnalyzer(),
		DiscardedTimerAnalyzer(),
		SpinWaitAnalyzer(),
	}
}

// Select returns the analyzers from All() whose names pass the enable and
// disable lists (comma-separated rule names; empty enable means all). An
// unknown name in either list yields an error.
func Select(enable, disable string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	var names []string
	for _, a := range All() {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	parse := func(list string) (map[string]bool, error) {
		set := map[string]bool{}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("lint: unknown rule %q (have %s)", name, strings.Join(names, ", "))
			}
			set[name] = true
		}
		return set, nil
	}
	on, err := parse(enable)
	if err != nil {
		return nil, err
	}
	off, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var out []*Analyzer
	for _, a := range All() {
		if len(on) > 0 && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// Stats summarizes a Run beyond its diagnostics.
type Stats struct {
	// Suppressed counts, per rule, diagnostics silenced by //lint:allow.
	Suppressed map[string]int
}

// SummaryLine renders the suppression counts in stable (sorted) rule order,
// e.g. "suppressed: transitive-panic=12 span-balance=1"; "" when nothing
// was suppressed.
func (s Stats) SummaryLine() string {
	if len(s.Suppressed) == 0 {
		return ""
	}
	rules := make([]string, 0, len(s.Suppressed))
	for r := range s.Suppressed {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	parts := make([]string, 0, len(rules))
	for _, r := range rules {
		parts = append(parts, fmt.Sprintf("%s=%d", r, s.Suppressed[r]))
	}
	return "suppressed: " + strings.Join(parts, " ")
}

// Run applies the analyzers to the packages and returns unsuppressed
// diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunStats(pkgs, analyzers)
	return diags
}

// RunStats is Run plus suppression statistics. Malformed suppression
// comments are reported as diagnostics under the rule "lint-allow", and so
// are stale ones: an allow for an enabled rule that suppressed nothing.
func RunStats(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, Stats) {
	sup, out := collectSuppressions(pkgs)
	stats := Stats{Suppressed: map[string]int{}}
	record := func(rule string, p *Package, pos token.Pos, msg string) {
		position := p.Fset.Position(pos)
		if sup.allows(rule, position) {
			stats.Suppressed[rule]++
			return
		}
		out = append(out, Diagnostic{
			Rule: rule,
			File: position.Filename,
			Line: position.Line,
			Col:  position.Column,
			Msg:  msg,
		})
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			a.RunModule(pkgs, func(p *Package, pos token.Pos, msg string) {
				record(a.Name, p, pos, msg)
			})
			continue
		}
		for _, p := range pkgs {
			a.Run(p, func(pos token.Pos, msg string) {
				record(a.Name, p, pos, msg)
			})
		}
	}
	enabled := map[string]bool{}
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	out = append(out, sup.stale(enabled)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	// Dedupe: flow analyzers may reach the same site along several paths,
	// and module analyzers along several call chains.
	dedup := out[:0]
	for i, d := range out {
		if i == 0 || d != out[i-1] {
			dedup = append(dedup, d)
		}
	}
	return dedup, stats
}

// JSON renders diagnostics as a JSON array (never null), sorted by
// file/line/col/rule by Run, so CI artifact diffs are stable.
func JSON(diags []Diagnostic) ([]byte, error) {
	if diags == nil {
		diags = []Diagnostic{}
	}
	return json.MarshalIndent(diags, "", "  ")
}

// --- Suppressions ---

// allowDirective is the comment prefix that suppresses a diagnostic.
const allowDirective = "//lint:allow"

// allowEntry is one (rule, site) pair granted by a directive; used tracks
// whether any diagnostic actually matched it.
type allowEntry struct {
	rule string
	pos  token.Position
	used bool
}

// suppressions records, per file and line, which rules are allowed there.
type suppressions struct {
	// byFileLine maps file -> line -> entries allowed there.
	byFileLine map[string]map[int][]*allowEntry
}

// allows reports whether rule is suppressed at position — an allow directive
// on the same line, or on the line directly above, matches — and marks the
// matching entry used.
func (s suppressions) allows(rule string, pos token.Position) bool {
	lines := s.byFileLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, e := range lines[l] {
			if e.rule == rule {
				e.used = true
				return true
			}
		}
	}
	return false
}

// stale returns a diagnostic for every entry of an enabled rule that never
// suppressed anything: the code was fixed (or the allow mistyped) and the
// directive is now dead weight that would mask a future regression.
func (s suppressions) stale(enabled map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, lines := range s.byFileLine {
		for _, entries := range lines {
			for _, e := range entries {
				if e.used || !enabled[e.rule] {
					continue
				}
				out = append(out, Diagnostic{
					Rule: "lint-allow",
					File: e.pos.Filename,
					Line: e.pos.Line,
					Col:  e.pos.Column,
					Msg:  fmt.Sprintf("stale suppression: no %s diagnostic here; remove the allow", e.rule),
				})
			}
		}
	}
	return out
}

// collectSuppressions scans every package's comments for allow directives.
// A directive names one or more comma-separated rules and a mandatory
// reason; malformed directives are returned as diagnostics.
func collectSuppressions(pkgs []*Package) (suppressions, []Diagnostic) {
	s := suppressions{byFileLine: map[string]map[int][]*allowEntry{}}
	var bad []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowDirective) {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, allowDirective)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						bad = append(bad, Diagnostic{
							Rule: "lint-allow",
							File: pos.Filename,
							Line: pos.Line,
							Col:  pos.Column,
							Msg:  "malformed suppression: want //lint:allow <rule>[,<rule>] <reason>",
						})
						continue
					}
					lines := s.byFileLine[pos.Filename]
					if lines == nil {
						lines = map[int][]*allowEntry{}
						s.byFileLine[pos.Filename] = lines
					}
					for _, rule := range strings.Split(fields[0], ",") {
						if rule == "" {
							continue
						}
						lines[pos.Line] = append(lines[pos.Line], &allowEntry{rule: rule, pos: pos})
					}
				}
			}
		}
	}
	return s, bad
}

// --- Shared AST/type helpers ---

// pkgNameOf resolves sel's qualifier to an imported package path, using type
// info when available and falling back to the file's import table. It
// returns "" when sel is not a package-qualified selector.
func pkgNameOf(p *Package, file *ast.File, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if p.Info != nil {
		if use, ok := p.Info.Uses[id]; ok {
			if pn, ok := use.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return "" // a variable, field, etc. — not a package
		}
	}
	// Fall back to matching the identifier against the import table.
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// calleeName returns the bare name of the function or method being called:
// "f" for f(...), "M" for x.M(...). It returns "" for indirect calls.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// eachFile runs fn over every file of the package.
func eachFile(p *Package, fn func(f *ast.File)) {
	for _, f := range p.Files {
		fn(f)
	}
}

// useObj resolves an identifier to the object it refers to, or nil.
func useObj(p *Package, id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// isBuiltin reports whether id resolves to the builtin of the same name
// (i.e. is not shadowed by a local declaration). Without type info it
// assumes the builtin.
func isBuiltin(p *Package, id *ast.Ident) bool {
	if p.Info == nil {
		return true
	}
	obj, ok := p.Info.Uses[id]
	if !ok {
		return true
	}
	_, builtin := obj.(*types.Builtin)
	return builtin
}
