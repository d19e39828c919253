package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is one synthetic package for loadFixtures.
type fixture struct {
	path         string
	src          string
	simReachable bool
}

// fixtureFset and fixtureStd are shared by every fixture: the source
// importer caches the standard-library packages it type-checks, so each
// is checked once per test binary rather than once per fixture.
var (
	fixtureFset = token.NewFileSet()
	fixtureStd  = importer.ForCompiler(fixtureFset, "source", nil)
)

// loadFixtures type-checks synthetic packages in order, registering each so
// later fixtures can import earlier ones — the same machinery LoadModule uses,
// so cross-package analyses (the call graph) resolve identically.
func loadFixtures(t *testing.T, fixtures ...fixture) []*Package {
	t.Helper()
	fset := fixtureFset
	imp := &moduleImporter{
		std:    fixtureStd,
		module: map[string]*types.Package{},
		fakes:  map[string]*types.Package{},
	}
	var pkgs []*Package
	for i, fx := range fixtures {
		name := "fixture.go"
		if i > 0 {
			name = fmt.Sprintf("fixture%d.go", i+1)
		}
		f, err := parser.ParseFile(fset, name, fx.src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture %s: %v", fx.path, err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		tpkg, _ := conf.Check(fx.path, fset, []*ast.File{f}, info)
		if tpkg != nil {
			imp.module[fx.path] = tpkg
		}
		pkgs = append(pkgs, &Package{
			Path: fx.path, Fset: fset, Files: []*ast.File{f},
			Types: tpkg, Info: info, SimReachable: fx.simReachable,
		})
	}
	return pkgs
}

// loadFixture type-checks one synthetic source file as a package with the
// given import path.
func loadFixture(t *testing.T, path, src string, simReachable bool) *Package {
	t.Helper()
	return loadFixtures(t, fixture{path: path, src: src, simReachable: simReachable})[0]
}

// runOne applies a single analyzer (plus suppression handling) to a fixture.
func runOne(a *Analyzer, p *Package) []Diagnostic {
	return Run([]*Package{p}, []*Analyzer{a})
}

func wantRules(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	var got []string
	for _, d := range diags {
		got = append(got, d.Rule)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d %v\ndiags: %v", len(got), got, len(want), want, diags)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diagnostic %d: got rule %q, want %q\ndiags: %v", i, got[i], want[i], diags)
		}
	}
}

func TestWallclock(t *testing.T) {
	cases := []struct {
		name         string
		src          string
		simReachable bool
		want         int
	}{
		{
			name: "hit: time.Now and time.Sleep in sim-reachable code",
			src: `package x
import "time"
func f() time.Time { time.Sleep(time.Second); return time.Now() }`,
			simReachable: true,
			want:         2,
		},
		{
			name: "hit: time.After and time.Tick",
			src: `package x
import "time"
func f() { <-time.After(time.Second); <-time.Tick(time.Second) }`,
			simReachable: true,
			want:         2,
		},
		{
			name: "clean: durations and arithmetic only",
			src: `package x
import "time"
const d = 25 * time.Microsecond
func f(t time.Duration) time.Duration { return t + d }`,
			simReachable: true,
			want:         0,
		},
		{
			name: "clean: wall clock outside the simulation",
			src: `package x
import "time"
func f() time.Time { return time.Now() }`,
			simReachable: false,
			want:         0,
		},
		{
			name: "clean: aliased import still tracked, local time var not confused",
			src: `package x
import wall "time"
func f(time wall.Duration) wall.Duration { return time }`,
			simReachable: true,
			want:         0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadFixture(t, "shrimp/internal/x", tc.src, tc.simReachable)
			diags := runOne(WallclockAnalyzer(), p)
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}

func TestConcurrency(t *testing.T) {
	cases := []struct {
		name string
		path string
		src  string
		want int
	}{
		{
			name: "hit: go statement and channel",
			path: "shrimp/internal/x",
			src: `package x
func f() {
	ch := make(chan int)
	go func() { ch <- 1 }()
	<-ch
}`,
			want: 4, // chan type, go stmt, send, recv
		},
		{
			name: "hit: select and sync.Mutex",
			path: "shrimp/internal/x",
			src: `package x
import "sync"
var mu sync.Mutex
func f(ch chan int) {
	mu.Lock()
	select {
	case <-ch:
	default:
	}
	mu.Unlock()
}`,
			want: 4, // sync.Mutex selector, chan type in param, select, recv
		},
		{
			name: "clean: plain sequential code",
			path: "shrimp/internal/x",
			src: `package x
func f(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}`,
			want: 0,
		},
		{
			name: "clean: internal/sim itself is exempt",
			path: "shrimp/internal/sim",
			src: `package sim
func f() {
	ch := make(chan struct{})
	go func() { ch <- struct{}{} }()
	<-ch
}`,
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadFixture(t, tc.path, tc.src, true)
			diags := runOne(ConcurrencyAnalyzer(), p)
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
	t.Run("clean: test files are exempt", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/x", `package x
func helper() {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}`, true)
		p.markTests(p.Files) // pretend fixture.go is fixture_test.go
		wantRules(t, runOne(ConcurrencyAnalyzer(), p))
	})
}

func TestMapRange(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{
			name: "hit: map range body schedules",
			src: `package x
func Schedule(k int) {}
func f(m map[int]int) {
	for k := range m {
		Schedule(k)
	}
}`,
			want: 1,
		},
		{
			name: "hit: map range body sends via method",
			src: `package x
type port struct{}
func (port) Send(n int) {}
func f(m map[int]port) {
	for k, p := range m {
		p.Send(k)
	}
}`,
			want: 1,
		},
		{
			name: "clean: slice range may schedule",
			src: `package x
func Schedule(k int) {}
func f(xs []int) {
	for _, k := range xs {
		Schedule(k)
	}
}`,
			want: 0,
		},
		{
			name: "clean: map range that only accumulates",
			src: `package x
func f(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}`,
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadFixture(t, "shrimp/internal/x", tc.src, true)
			diags := runOne(MapRangeAnalyzer(), p)
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}

func TestRand(t *testing.T) {
	cases := []struct {
		name         string
		src          string
		simReachable bool
		want         int
	}{
		{
			name: "hit: global rand.Intn and rand.Float64",
			src: `package x
import "math/rand"
func f() float64 { return float64(rand.Intn(10)) + rand.Float64() }`,
			simReachable: true,
			want:         2,
		},
		{
			name: "clean: explicitly seeded generator",
			src: `package x
import "math/rand"
func f(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}`,
			simReachable: true,
			want:         0,
		},
		{
			name: "clean: global rand outside the simulation",
			src: `package x
import "math/rand"
func f() int { return rand.Intn(10) }`,
			simReachable: false,
			want:         0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadFixture(t, "shrimp/internal/x", tc.src, tc.simReachable)
			diags := runOne(RandAnalyzer(), p)
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}

func TestModGraph(t *testing.T) {
	pkgs := loadFixtures(t,
		fixture{path: "shrimp/internal/kernel", src: `package kernel
func MustPA(x int) int {
	if x < 0 {
		panic("bad pa")
	}
	return x
}`},
		fixture{path: "shrimp/internal/nx", src: `package nx
import "shrimp/internal/kernel"
type NX struct{}
func (n *NX) Csend(x int) int { return n.send(x) }
func (n *NX) send(x int) int { return kernel.MustPA(x) }`},
	)
	g := BuildModGraph(pkgs)
	for _, key := range []string{
		"shrimp/internal/kernel.MustPA",
		"shrimp/internal/nx.NX.Csend",
		"shrimp/internal/nx.NX.send",
	} {
		if g.Nodes[key] == nil {
			t.Fatalf("graph is missing node %s; have %v", key, g.SortedKeys())
		}
	}
	// The cross-package edge must resolve through type info.
	edges := g.Edges["shrimp/internal/nx.NX.send"]
	found := false
	for _, e := range edges {
		if e == "shrimp/internal/kernel.MustPA" {
			found = true
		}
	}
	if !found {
		t.Fatalf("send -> MustPA edge missing; edges: %v", edges)
	}
	parent := g.Reach([]string{"shrimp/internal/nx.NX.Csend"})
	if _, ok := parent["shrimp/internal/kernel.MustPA"]; !ok {
		t.Fatalf("MustPA not reachable from Csend; parent map: %v", parent)
	}
	chain := Chain(parent, "shrimp/internal/kernel.MustPA")
	want := "internal/nx.NX.Csend -> internal/nx.NX.send -> internal/kernel.MustPA"
	if chain != want {
		t.Fatalf("chain = %q, want %q", chain, want)
	}
}

func TestTransitivePanic(t *testing.T) {
	t.Run("hit: panic directly in exported datapath func", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/socket", `package socket
func Send(n int) {
	if n < 0 {
		panic("negative")
	}
}`, true)
		wantRules(t, runOne(TransitivePanicAnalyzer(), p), "transitive-panic")
	})
	t.Run("hit: panic in another package reached through the call graph", func(t *testing.T) {
		pkgs := loadFixtures(t,
			fixture{path: "shrimp/internal/kernel", src: `package kernel
func MustPA(x int) int {
	if x < 0 {
		panic("bad pa")
	}
	return x
}`},
			fixture{path: "shrimp/internal/nx", src: `package nx
import "shrimp/internal/kernel"
type NX struct{}
func (n *NX) Csend(x int) int { return kernel.MustPA(x) }`},
		)
		diags := Run(pkgs, []*Analyzer{TransitivePanicAnalyzer()})
		wantRules(t, diags, "transitive-panic")
		if !strings.Contains(diags[0].Msg, "internal/nx.NX.Csend -> internal/kernel.MustPA") {
			t.Fatalf("diagnostic should carry the call chain, got: %s", diags[0].Msg)
		}
	})
	t.Run("clean: panic not reachable from any export", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/vmmc", `package vmmc
func Attach() {}
func debugOnly() { panic("never wired up") }`, true)
		wantRules(t, runOne(TransitivePanicAnalyzer(), p))
	})
	t.Run("clean: errors returned instead of panics", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/sunrpc", `package sunrpc
import "errors"
func Serve(n int) error {
	if n < 0 {
		return errors.New("bad n")
	}
	return nil
}`, true)
		wantRules(t, runOne(TransitivePanicAnalyzer(), p))
	})
	t.Run("clean: panic below a non-datapath surface only", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/mesh", `package mesh
func Transmit() { boom() }
func boom() { panic("boom") }`, true)
		wantRules(t, runOne(TransitivePanicAnalyzer(), p))
	})
}

// A method value handed to a registrar is called later by someone else;
// the graph must still see the edge, or a panic behind every callback-style
// hand-off (packet handlers, IRQ handlers, prebuilt event callbacks) hides.
func TestTransitivePanicMethodValue(t *testing.T) {
	pkgs := loadFixtures(t,
		fixture{path: "shrimp/internal/kernel", src: `package kernel
type Machine struct{ irq, tick func() }
func (m *Machine) RegisterIRQ(h func()) { m.irq = h }
func (m *Machine) OnTick(h func()) { m.tick = h }`},
		fixture{path: "shrimp/internal/nx", src: `package nx
import "shrimp/internal/kernel"
type NX struct{ m *kernel.Machine }
func (n *NX) Open() {
	n.m.RegisterIRQ(n.onIRQ)
	n.m.OnTick(tick)
}
func (n *NX) onIRQ() { panic("irq") }
func tick() { panic("tick") }`},
	)
	diags := Run(pkgs, []*Analyzer{TransitivePanicAnalyzer()})
	wantRules(t, diags, "transitive-panic", "transitive-panic")
	for i, want := range []string{
		"internal/nx.NX.Open -> internal/nx.NX.onIRQ",
		"internal/nx.NX.Open -> internal/nx.tick",
	} {
		if !strings.Contains(diags[i].Msg, want) {
			t.Fatalf("diagnostic %d should carry the chain %q, got: %s", i, want, diags[i].Msg)
		}
	}
}

// simEngineDefs gives fixtures the engine's scheduling surface.
const simEngineDefs = `package sim
import "time"
type Time int64
type Timer struct{}
func (t *Timer) Stop() bool { return false }
type Engine struct{}
func (e *Engine) Schedule(d time.Duration, fn func()) *Timer { return &Timer{} }
func (e *Engine) Post(d time.Duration, fn func()) {}
func (e *Engine) PostAt(t Time, fn func()) {}`

func TestDiscardedTimer(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int
	}{
		{"hit: Schedule handle dropped", `e.Schedule(time.Microsecond, func() {})`, 1},
		{"clean: Post and PostAt", `e.Post(time.Microsecond, func() {}); e.PostAt(5, func() {})`, 0},
		{"clean: handle kept", `n.timer = e.Schedule(time.Microsecond, func() {})`, 0},
		{"clean: handle used in the same statement", `e.Schedule(time.Microsecond, func() {}).Stop()`, 0},
		{"clean: a different At", `n.At(5, nil)`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkgs := loadFixtures(t,
				fixture{path: "shrimp/internal/sim", src: simEngineDefs},
				fixture{path: "shrimp/internal/nic", src: `package nic
import (
	"time"
	"shrimp/internal/sim"
)
type NIC struct{ timer *sim.Timer }
func (n *NIC) At(t int, fn func()) {}
func (n *NIC) run(e *sim.Engine) {
	_ = time.Microsecond
	` + tc.body + `
}`, simReachable: true},
			)
			diags := Run(pkgs, []*Analyzer{DiscardedTimerAnalyzer()})
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
	t.Run("clean: the engine's own package", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/sim", simEngineDefs+`
func use(e *Engine) { e.Schedule(0, nil) }`, true)
		wantRules(t, runOne(DiscardedTimerAnalyzer(), p))
	})
}

// kernelWaitDefs gives fixtures the kernel's multi-source wait.
const kernelWaitDefs = `package kernel
type VA uint64
type Process struct{}
func (p *Process) WaitPred(vas []VA, extra []any, d int64, pred func() bool) bool { return true }`

func TestSpinWait(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int
	}{
		// The predicate is the last argument, after the deadline: a rule
		// that read the third argument would see the deadline and miss
		// every hit below.
		{"hit: always-true literal", `p.WaitPred(nil, nil, 0, func() bool { return true })`, 1},
		{"hit: always-true literal with a deadline", `p.WaitPred(nil, nil, d, func() bool { return true })`, 1},
		{"hit: in a statement", `if !p.WaitPred(nil, nil, 5, func() bool { return true }) { return }`, 1},
		{"clean: a real predicate", `p.WaitPred(nil, nil, 0, func() bool { return ready })`, 0},
		{"clean: a predicate that tests first", `p.WaitPred(nil, nil, d, func() bool { if ready { return true }; return false })`, 0},
		{"clean: a method value", `p.WaitPred(nil, nil, 0, w.ready)`, 0},
		{"clean: another type's WaitPred", `w.WaitPred(nil, nil, 0, func() bool { return true })`, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkgs := loadFixtures(t,
				fixture{path: "shrimp/internal/kernel", src: kernelWaitDefs},
				fixture{path: "shrimp/internal/nx", src: `package nx
import "shrimp/internal/kernel"
type waiter struct{}
func (waiter) ready() bool { return false }
func (waiter) WaitPred(vas []kernel.VA, extra []any, d int64, pred func() bool) {}
func run(p *kernel.Process, w waiter, ready bool, d int64) {
	` + tc.body + `
}`, simReachable: true},
			)
			diags := Run(pkgs, []*Analyzer{SpinWaitAnalyzer()})
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}

// pooledDefs gives fixtures the GetBuf/PutBuf pool surface and a sink.
const pooledDefs = `package x
type Net struct{}
func (Net) GetBuf() []byte { return nil }
func (Net) PutBuf(b []byte) {}
func consume(b []byte) {}
`

func TestPooledOwnership(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{
			name: "hit: leak on early return",
			src: pooledDefs + `
func f(n Net, bad bool) {
	b := n.GetBuf()
	if bad {
		return
	}
	n.PutBuf(b)
}`,
			want: 1,
		},
		{
			name: "hit: double release",
			src: pooledDefs + `
func f(n Net) {
	b := n.GetBuf()
	n.PutBuf(b)
	n.PutBuf(b)
}`,
			want: 1,
		},
		{
			name: "hit: use after release",
			src: pooledDefs + `
func f(n Net) byte {
	b := n.GetBuf()
	n.PutBuf(b)
	return b[0]
}`,
			want: 1,
		},
		{
			name: "hit: acquired and immediately dropped",
			src: pooledDefs + `
func f(n Net) {
	n.GetBuf()
}`,
			want: 1,
		},
		{
			name: "hit: leak when switch has no default",
			src: pooledDefs + `
func f(n Net, mode int) {
	b := n.GetBuf()
	switch mode {
	case 0:
		n.PutBuf(b)
	}
}`,
			want: 1,
		},
		{
			name: "clean: released on the straight path",
			src: pooledDefs + `
func f(n Net, data []byte) {
	b := n.GetBuf()[:0]
	b = append(b, data...)
	n.PutBuf(b)
}`,
			want: 0,
		},
		{
			name: "clean: ownership forwarded to a callee",
			src: pooledDefs + `
func f(n Net) {
	b := n.GetBuf()
	consume(b)
}`,
			want: 0,
		},
		{
			name: "clean: returned buffer forwards ownership",
			src: pooledDefs + `
func f(n Net) []byte {
	b := n.GetBuf()
	return b
}`,
			want: 0,
		},
		{
			name: "clean: released inside every loop iteration",
			src: pooledDefs + `
func f(n Net, xs [][]byte) {
	for _, x := range xs {
		b := n.GetBuf()
		b = append(b, x...)
		n.PutBuf(b)
	}
}`,
			want: 0,
		},
		{
			name: "clean: borrowed by len/copy before release",
			src: pooledDefs + `
func f(n Net, dst []byte) int {
	b := n.GetBuf()
	k := copy(dst, b)
	k += len(b)
	n.PutBuf(b)
	return k
}`,
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadFixture(t, "shrimp/internal/x", tc.src, true)
			diags := runOne(PooledOwnershipAnalyzer(), p)
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}

// spanDefs gives fixtures the trace Begin/End surface.
const spanDefs = `package x
import "errors"
var errBad = errors.New("bad")
type OpenSpan struct{}
func (s *OpenSpan) End() {}
type TC struct{}
func (TC) Begin(track, name string) *OpenSpan { return &OpenSpan{} }
`

func TestSpanBalance(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{
			name: "hit: early error return skips End",
			src: spanDefs + `
func f(tc TC, bad bool) error {
	sp := tc.Begin("t", "f")
	if bad {
		return errBad
	}
	sp.End()
	return nil
}`,
			want: 1,
		},
		{
			name: "hit: handle discarded at the call",
			src: spanDefs + `
func f(tc TC) {
	tc.Begin("t", "f")
}`,
			want: 1,
		},
		{
			name: "hit: handle overwritten while open",
			src: spanDefs + `
func f(tc TC) {
	sp := tc.Begin("t", "a")
	sp = tc.Begin("t", "b")
	sp.End()
}`,
			want: 1,
		},
		{
			name: "clean: deferred End covers every path",
			src: spanDefs + `
func f(tc TC, bad bool) error {
	sp := tc.Begin("t", "f")
	defer sp.End()
	if bad {
		return errBad
	}
	return nil
}`,
			want: 0,
		},
		{
			name: "clean: ended on each branch",
			src: spanDefs + `
func f(tc TC, bad bool) error {
	sp := tc.Begin("t", "f")
	if bad {
		sp.End()
		return errBad
	}
	sp.End()
	return nil
}`,
			want: 0,
		},
		{
			name: "clean: returned handle escapes the obligation",
			src: spanDefs + `
func f(tc TC) *OpenSpan {
	sp := tc.Begin("t", "f")
	return sp
}`,
			want: 0,
		},
		{
			name: "clean: handle passed onward escapes the obligation",
			src: spanDefs + `
func keep(sp *OpenSpan) {}
func f(tc TC) {
	sp := tc.Begin("t", "f")
	keep(sp)
}`,
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadFixture(t, "shrimp/internal/x", tc.src, true)
			diags := runOne(SpanBalanceAnalyzer(), p)
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}

func TestCheckedErrors(t *testing.T) {
	cases := []struct {
		name         string
		path         string
		src          string
		simReachable bool
		want         int
	}{
		{
			name: "hit: bare call and blanked error",
			path: "shrimp/internal/socket",
			src: `package socket
import "errors"
func Dial() error { return errors.New("x") }
func use() {
	Dial()
	_ = Dial()
}`,
			simReachable: true,
			want:         2,
		},
		{
			name: "hit: multi-result call with error blanked",
			path: "shrimp/internal/socket",
			src: `package socket
func Recv() (int, error) { return 0, nil }
func use() int {
	n, _ := Recv()
	return n
}`,
			simReachable: true,
			want:         1,
		},
		{
			name: "clean: error checked",
			path: "shrimp/internal/socket",
			src: `package socket
import "errors"
func Dial() error { return errors.New("x") }
func use() error {
	if err := Dial(); err != nil {
		return err
	}
	return nil
}`,
			simReachable: true,
			want:         0,
		},
		{
			name: "clean: unexported callee is not a protocol surface",
			path: "shrimp/internal/socket",
			src: `package socket
import "errors"
func dial() error { return errors.New("x") }
func use() { dial() }`,
			simReachable: true,
			want:         0,
		},
		{
			name: "clean: callee outside the error-surface packages",
			path: "shrimp/internal/mesh",
			src: `package mesh
import "errors"
func Send() error { return errors.New("x") }
func use() { Send() }`,
			simReachable: true,
			want:         0,
		},
		{
			name: "clean: not sim-reachable",
			path: "shrimp/internal/socket",
			src: `package socket
import "errors"
func Dial() error { return errors.New("x") }
func use() { Dial() }`,
			simReachable: false,
			want:         0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadFixture(t, tc.path, tc.src, tc.simReachable)
			diags := runOne(CheckedErrorsAnalyzer(), p)
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}

func TestFloatOrder(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want int
	}{
		{
			name: "hit: sum accumulated over a map range",
			src: `package x
func f(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}`,
			want: 1,
		},
		{
			name: "hit: spelled-out x = x + y inside a callback visitor",
			src: `package x
type set struct{}
func (set) Range(fn func(float64)) {}
func f(s set) float64 {
	total := 0.0
	s.Range(func(v float64) {
		total = total + v
	})
	return total
}`,
			want: 1,
		},
		{
			name: "clean: slice range has a defined order",
			src: `package x
func f(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}`,
			want: 0,
		},
		{
			name: "clean: integer accumulation is associative",
			src: `package x
func f(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}`,
			want: 0,
		},
		{
			name: "clean: per-iteration float temporary",
			src: `package x
func f(m map[int][]float64) int {
	count := 0
	for _, vs := range m {
		local := 0.0
		for _, v := range vs {
			local += v
		}
		if local > 1 {
			count++
		}
	}
	return count
}`,
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadFixture(t, "shrimp/internal/x", tc.src, true)
			diags := runOne(FloatOrderAnalyzer(), p)
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d: %v", len(diags), tc.want, diags)
			}
		})
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("", "")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\",\"\") = %d analyzers, err %v; want all %d", len(all), err, len(All()))
	}
	only, err := Select("no-wallclock", "")
	if err != nil || len(only) != 1 || only[0].Name != "no-wallclock" {
		t.Fatalf("enable list broken: %v, %v", only, err)
	}
	without, err := Select("", "transitive-panic")
	if err != nil || len(without) != len(All())-1 {
		t.Fatalf("disable list broken: %d analyzers, err %v", len(without), err)
	}
	for _, a := range without {
		if a.Name == "transitive-panic" {
			t.Fatal("disabled analyzer still present")
		}
	}
	if _, err := Select("no-such-rule", ""); err == nil {
		t.Fatal("unknown rule in enable list should error")
	}
	if _, err := Select("", "no-such-rule"); err == nil {
		t.Fatal("unknown rule in disable list should error")
	}
}

func TestSuppression(t *testing.T) {
	t.Run("same line", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/x", `package x
import "time"
func f() time.Time { return time.Now() } //lint:allow no-wallclock testing the suppression
`, true)
		wantRules(t, runOne(WallclockAnalyzer(), p))
	})
	t.Run("line above", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/x", `package x
import "time"
func f() time.Time {
	//lint:allow no-wallclock testing the suppression
	return time.Now()
}`, true)
		wantRules(t, runOne(WallclockAnalyzer(), p))
	})
	t.Run("wrong rule does not suppress", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/x", `package x
import "time"
func f() time.Time {
	//lint:allow no-unseeded-rand wrong rule
	return time.Now()
}`, true)
		// The wrong-rule allow is not stale (its rule is not enabled in this
		// run), so only the finding itself surfaces.
		wantRules(t, runOne(WallclockAnalyzer(), p), "no-wallclock")
	})
	t.Run("missing reason is itself reported", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/x", `package x
import "time"
func f() time.Time {
	//lint:allow no-wallclock
	return time.Now()
}`, true)
		// The malformed directive is reported and does not suppress.
		wantRules(t, runOne(WallclockAnalyzer(), p), "lint-allow", "no-wallclock")
	})
	t.Run("one directive suppresses multiple rules", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/x", `package x
import (
	"math/rand"
	"time"
)
func f() int {
	//lint:allow no-wallclock,no-unseeded-rand fixture exercises the multi-rule allow
	return int(time.Now().Unix()) + rand.Intn(10)
}`, true)
		diags, stats := RunStats([]*Package{p}, []*Analyzer{WallclockAnalyzer(), RandAnalyzer()})
		wantRules(t, diags)
		if stats.Suppressed["no-wallclock"] != 1 || stats.Suppressed["no-unseeded-rand"] != 1 {
			t.Fatalf("suppression counts wrong: %v", stats.Suppressed)
		}
		if got := stats.SummaryLine(); got != "suppressed: no-unseeded-rand=1 no-wallclock=1" {
			t.Fatalf("summary line = %q", got)
		}
	})
	t.Run("stale allow is reported", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/x", `package x
func f() int {
	//lint:allow no-wallclock nothing left to suppress here
	return 1
}`, true)
		diags := runOne(WallclockAnalyzer(), p)
		wantRules(t, diags, "lint-allow")
		if !strings.Contains(diags[0].Msg, "stale suppression") {
			t.Fatalf("want stale-suppression message, got: %s", diags[0].Msg)
		}
	})
	t.Run("allow for a disabled rule is not stale", func(t *testing.T) {
		p := loadFixture(t, "shrimp/internal/x", `package x
func f() int {
	//lint:allow no-wallclock the rule is not enabled in this run
	return 1
}`, true)
		wantRules(t, runOne(RandAnalyzer(), p))
	})
}

func TestJSONOutput(t *testing.T) {
	b, err := JSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(b)) != "[]" {
		t.Fatalf("empty diagnostics should marshal to [], got %s", b)
	}
	p := loadFixture(t, "shrimp/internal/x", `package x
import "time"
func f() time.Time { return time.Now() }`, true)
	diags := runOne(WallclockAnalyzer(), p)
	b, err = JSON(diags)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"rule"`, `"no-wallclock"`, `"line"`, `"fixture.go"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("JSON output missing %s: %s", want, b)
		}
	}
}

// TestDiagnosticOrder checks the stable sort satellite: findings from several
// analyzers over several files come out ordered by file, line, column, rule.
func TestDiagnosticOrder(t *testing.T) {
	pkgs := loadFixtures(t,
		fixture{path: "shrimp/internal/x", simReachable: true, src: `package x
import "time"
func f() time.Time { return time.Now() }`},
		fixture{path: "shrimp/internal/y", simReachable: true, src: `package y
import (
	"math/rand"
	"time"
)
func g() int { return int(time.Now().Unix()) + rand.Intn(10) }`},
	)
	diags := Run(pkgs, []*Analyzer{RandAnalyzer(), WallclockAnalyzer()})
	if len(diags) != 3 {
		t.Fatalf("want 3 diagnostics, got %v", diags)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Col > b.Col) {
			t.Fatalf("diagnostics out of order: %v before %v", a, b)
		}
	}
}

// TestRepoIsClean runs the full suite over the real module — test files
// included — and requires zero findings: the determinism contract holds on
// the committed tree. If this fails, either fix the violation or add a
// //lint:allow with a reason.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loader found only %d packages; expected the whole module", len(pkgs))
	}
	var simReachable, withTests, external int
	for _, p := range pkgs {
		if p.SimReachable {
			simReachable++
		}
		if len(p.test) > 0 {
			withTests++
		}
		if p.TestOf != "" {
			external++
		}
	}
	if simReachable < 5 {
		t.Fatalf("only %d sim-reachable packages; reachability computation looks broken", simReachable)
	}
	if withTests < 5 {
		t.Fatalf("only %d packages carry test files; the test-loading pass looks broken", withTests)
	}
	diags := Run(pkgs, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
