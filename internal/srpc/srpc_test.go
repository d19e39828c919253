package srpc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"strings"
	"testing"
)

func TestParseIDL(t *testing.T) {
	svc, err := ParseIDL(`
		// A comment.
		service Math {
			proc add(in a i32, in b i32) (out sum i32)
			proc scale(inout v f64) // doubles v
			proc blob(inout data bytes[1024])
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Name != "Math" || len(svc.Procs) != 3 {
		t.Fatalf("parsed %+v", svc)
	}
	add := svc.Procs[0]
	if add.ID != 1 || len(add.Params) != 3 {
		t.Fatalf("add = %+v", add)
	}
	if got := len(add.Args()); got != 2 {
		t.Fatalf("add args = %d", got)
	}
	if got := len(add.Results()); got != 1 {
		t.Fatalf("add results = %d", got)
	}
	scale := svc.Procs[1]
	if len(scale.Args()) != 1 || len(scale.Results()) != 1 {
		t.Fatalf("inout should appear in both lists: %+v", scale)
	}
	blob := svc.Procs[2]
	if blob.Params[0].Type.Max != 1024 {
		t.Fatalf("bytes bound = %d", blob.Params[0].Type.Max)
	}
}

// badIDL is input ParseIDL must reject; FuzzParseIDL seeds from it too.
var badIDL = []string{
	``,
	`service {`,
	`service S { }`,
	`service S { proc p(in x q32) }`,
	`service S { proc p(sideways x u32) }`,
	`service S { proc p() proc p() }`,
	`service S { proc p(in x u32, in x u32) }`,
	`service S { proc p(in x u32) (out x u32) }`,
	`service S { proc p(in d bytes[0]) }`,
	`service S { proc p(in d bytes[99999999]) }`,
	// A Go keyword as a parameter name: the stub would not parse.
	`service S { proc p(in func u32) }`,
	// Names the stubs declare themselves: the client method's receiver c
	// and image im.
	`service S { proc p(in c u32, in im u32) (out rlen u32) }`,
	// A result's R name that is also an argument's name, an argument
	// shadowing the procedure's constant, and two procedures whose stubs
	// share a name.
	`service S { proc p(in xR u32) (out x u32) }`,
	`service S { proc p(in ProcSP u32) }`,
	`service S { proc p() proc P() }`,
}

func TestParseIDLErrors(t *testing.T) {
	for _, src := range badIDL {
		if _, err := ParseIDL(src); err == nil {
			t.Errorf("accepted bad IDL: %q", src)
		}
	}
	// 256 procedures: the last ID would wrap the flag's 8-bit field to 0.
	if _, err := ParseIDL(manyProcs(maxProcs + 1)); err == nil {
		t.Errorf("accepted %d procedures", maxProcs+1)
	}
	svc, err := ParseIDL(manyProcs(maxProcs))
	if err != nil {
		t.Fatalf("rejected %d procedures: %v", maxProcs, err)
	}
	last := svc.Procs[maxProcs-1].ID
	if got := flagProc(packFlag(0, last, 0)); got != last {
		t.Fatalf("last procedure %d decodes as %d", last, got)
	}
}

// manyProcs is a service of n argumentless procedures.
func manyProcs(n int) string {
	var b strings.Builder
	b.WriteString("service S {")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " proc p%d()", i)
	}
	b.WriteString(" }")
	return b.String()
}

func TestGenerateValidation(t *testing.T) {
	svc, err := ParseIDL(`service S { proc p(in a bytes[64], in b bytes[64]) }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(svc, "x"); err == nil {
		t.Error("two bytes params accepted")
	}
	svc, _ = ParseIDL(`service S { proc p(out d bytes[64]) }`)
	if _, err := Generate(svc, "x"); err == nil {
		t.Error("out-only bytes accepted")
	}
	// Largest argument and result images against MaxPayload (16360): the
	// first is 24 + 16344 + 4 = 16372 bytes, whose full-size call would
	// panic in Binding.Call; the second is the same overflow on the
	// result side; the third fits exactly at 8 + 16344 + 4 = 16356.
	for _, c := range []struct {
		src string
		ok  bool
	}{
		{`service S { proc p(inout d bytes[16344], in a u64, in b u64, in e u64) }`, false},
		{`service S { proc p(inout d bytes[16344]) (out a u64, out b u64, out c u64) }`, false},
		{`service S { proc p(in d bytes[16344], in a u64) }`, true},
	} {
		svc, err := ParseIDL(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if _, err := Generate(svc, "x"); (err == nil) != c.ok {
			t.Errorf("%s: Generate err = %v, want ok=%v", c.src, err, c.ok)
		}
	}
}

func TestGeneratedShape(t *testing.T) {
	svc, err := ParseIDL(`service Echo { proc ping(in x u32) (out y u32) }`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(svc, "echo")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package echo",
		"ProcEchoPing = 1",
		"type EchoClient struct{ B *srpc.Binding }",
		"func (c *EchoClient) Ping(x uint32) (yR uint32)",
		"type EchoServer interface {",
		"Ping(x uint32) uint32",
		"func ServeEcho(b *srpc.Binding, impl EchoServer, limit int)",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestImageAndFields(t *testing.T) {
	var im Image
	im.PutU32(7)
	im.PutI32(-9)
	im.PutU64(1 << 40)
	im.PutF64(2.5)
	im.PutBool(true)
	b := im.Build()
	if len(b)%4 != 0 {
		t.Fatalf("image not word aligned: %d", len(b))
	}
	f := NewFields(b)
	if f.U32() != 7 || f.I32() != -9 || f.U64() != 1<<40 || f.F64() != 2.5 || !f.Bool() {
		t.Fatal("fields roundtrip failed")
	}

	var im2 Image
	im2.PutBytes([]byte("hello")) // 5 data + 3 pad + 4 len = 12
	if got := len(im2.Build()); got != 12 {
		t.Fatalf("bytes image length %d", got)
	}
}

func TestFlagPacking(t *testing.T) {
	v := packFlag(0xABC, 0x7, 2048)
	if flagSeq(v) != 0xABC || flagProc(v) != 7 || flagLen(v) != 2048 {
		t.Fatalf("flag roundtrip: seq=%x proc=%d len=%d", flagSeq(v), flagProc(v), flagLen(v))
	}
	// Sequence wraps at 12 bits.
	v2 := packFlag(0x1001, 1, 0)
	if flagSeq(v2) != 1 {
		t.Fatalf("seq wrap: %x", flagSeq(v2))
	}
}

// TestStubIdentsCoverTemplates reads the identifiers the generated stubs
// use off the generated code itself, for a service that takes every
// template branch, and checks that clientIdents and serveIdents list
// exactly those that do not come from the IDL's parameter names or the
// package and universe scopes: the reserved sets ParseIDL checks
// parameter names against are the templates' own.
func TestStubIdentsCoverTemplates(t *testing.T) {
	svc, err := ParseIDL(`service S {
		proc now() (out sec u32, out usec u32)
		proc adjust(in delta i32, inout scale f64) (out applied bool)
		proc null(inout data bytes[64])
		proc fill(in value u32, inout data bytes[64]) (out total u64)
		proc sum(in data bytes[64]) (out total u64)
		proc drop(in data bytes[64])
	}`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(svc, "x")
	if err != nil {
		t.Fatal(err)
	}
	file, err := parser.ParseFile(token.NewFileSet(), "x.go", code, parser.DeclarationErrors)
	if err != nil {
		t.Fatal(err)
	}
	client, serve := map[string]bool{}, map[string]bool{}
	for _, pr := range svc.Procs {
		for _, pa := range pr.Params {
			c, s := paramIdents(pa)
			for _, id := range c {
				client[id] = true
			}
			for _, id := range s {
				serve[id] = true
			}
		}
	}
	pkg := pkgIdents(svc)
	// used collects the identifiers fn uses, except field and method names
	// after a dot.
	used := func(fn *ast.FuncDecl) map[string]bool {
		got := map[string]bool{}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				got[n.Name] = true
			}
			return true
		}
		ast.Inspect(fn.Type, visit)
		ast.Inspect(fn.Body, visit)
		if fn.Recv != nil {
			ast.Inspect(fn.Recv, visit)
		}
		return got
	}
	gotClient, gotServe := map[string]bool{}, map[string]bool{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		derived, got := client, gotClient
		if fn.Recv == nil {
			derived, got = serve, gotServe
		}
		for id := range used(fn) {
			if !derived[id] && !pkg[id] && id != "_" && types.Universe.Lookup(id) == nil {
				got[id] = true
			}
		}
	}
	for _, c := range []struct {
		stub      string
		got, want map[string]bool
	}{{"client method", gotClient, clientIdents}, {"dispatch loop", gotServe, serveIdents}} {
		if !maps.Equal(c.got, c.want) {
			t.Errorf("%s: the template uses %v, the reserved set is %v", c.stub, c.got, c.want)
		}
	}
}
