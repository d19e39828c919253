package srpc

import (
	"go/parser"
	"go/token"
	"os"
	"testing"
)

// FuzzParseIDL throws arbitrary text at the IDL parser, the way srpcgen
// reads an interface file. Every input either parses or returns an error;
// a service that parses holds 1 to maxProcs procedures and goes through
// Generate — validated, then emitted or rejected with an error — without
// a panic, and what Generate emits parses as Go with no identifier
// declared twice in one scope.
func FuzzParseIDL(f *testing.F) {
	for _, src := range badIDL {
		f.Add(src)
	}
	f.Add(`service Echo { proc ping(in x u32) (out y u32) }`)
	f.Add(`service S { proc p(in a bytes[64], in b bytes[64]) }`)
	f.Add(`service S { proc p(out d bytes[64]) }`)
	f.Add(`service S { proc p(inout d bytes[16344], in a u64, in b u64, in e u64) }`)
	f.Add(`service Math {
		proc add(in a i32, in b i32) (out sum i32) // comment
		proc scale(inout v f64)
		proc blob(inout data bytes[1024])
	}`)
	clock, err := os.ReadFile("srpctest/clock.idl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(clock))
	f.Fuzz(func(t *testing.T, src string) {
		svc, err := ParseIDL(src)
		if err != nil {
			return
		}
		if n := len(svc.Procs); n == 0 || n > maxProcs {
			t.Fatalf("parsed a service of %d procedures", n)
		}
		for i, pr := range svc.Procs {
			if pr.ID != i+1 {
				t.Fatalf("procedure %q has ID %d at position %d", pr.Name, pr.ID, i)
			}
		}
		code, err := Generate(svc, "x")
		if err != nil {
			return
		}
		fset := token.NewFileSet()
		if _, err := parser.ParseFile(fset, "x.go", code, parser.DeclarationErrors); err != nil {
			t.Fatalf("generated stubs do not parse: %v\n%s", err, code)
		}
	})
}
