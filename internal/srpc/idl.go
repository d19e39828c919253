package srpc

import (
	"fmt"
	"go/token"
	"strconv"
	"strings"
)

// The SRPC interface definition language. A service file looks like:
//
//	service Clock {
//	    proc now() (out sec u32, out usec u32)
//	    proc adjust(in delta i32) (out applied bool)
//	    proc null(inout data bytes[2048])
//	}
//
// Types: u32, i32, u64, i64, f64, bool, and bytes[N] (variable-length up to
// N). Parameter directions: in, out, inout. INOUT and OUT parameters are
// passed to the server procedure by reference into the communication
// buffer, so writes propagate to the client by automatic update.

// Dir is a parameter direction.
type Dir int

// Directions.
const (
	In Dir = iota
	Out
	InOut
)

func (d Dir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	default:
		return "inout"
	}
}

// Type is an IDL type.
type Type struct {
	Name string // u32, i32, u64, i64, f64, bool, bytes
	Max  int    // bytes[N] bound; 0 for scalars
}

// WireSize returns the fixed wire size for scalars; bytes are variable
// (4-byte length footer + data, padded).
func (t Type) WireSize() int {
	switch t.Name {
	case "u32", "i32", "bool":
		return 4
	case "u64", "i64", "f64":
		return 8
	case "bytes":
		return -1
	}
	panic("srpc: unknown type " + t.Name)
}

// GoType returns the Go representation used in generated code.
func (t Type) GoType() string {
	switch t.Name {
	case "u32":
		return "uint32"
	case "i32":
		return "int32"
	case "u64":
		return "uint64"
	case "i64":
		return "int64"
	case "f64":
		return "float64"
	case "bool":
		return "bool"
	case "bytes":
		return "[]byte"
	}
	panic("srpc: unknown type " + t.Name)
}

// Param is one declared parameter.
type Param struct {
	Dir  Dir
	Name string
	Type Type
}

// Proc is one declared procedure.
type Proc struct {
	Name   string
	ID     int
	Params []Param
}

// Args returns the parameters the client sends (in + inout).
func (p *Proc) Args() []Param { return p.filter(In, InOut) }

// Results returns the parameters the server returns (out + inout).
func (p *Proc) Results() []Param { return p.filter(Out, InOut) }

func (p *Proc) filter(dirs ...Dir) []Param {
	var out []Param
	for _, pr := range p.Params {
		for _, d := range dirs {
			if pr.Dir == d {
				out = append(out, pr)
			}
		}
	}
	return out
}

// Service is a parsed IDL file.
type Service struct {
	Name  string
	Procs []*Proc
}

// ParseIDL parses an interface definition.
func ParseIDL(src string) (*Service, error) {
	toks := tokenize(src)
	p := &idlParser{toks: toks}
	svc, err := p.service()
	if err != nil {
		return nil, fmt.Errorf("idl: %w (near token %d)", err, p.pos)
	}
	return svc, nil
}

func tokenize(src string) []string {
	src = stripComments(src)
	for _, ch := range []string{"{", "}", "(", ")", ",", "[", "]"} {
		src = strings.ReplaceAll(src, ch, " "+ch+" ")
	}
	return strings.Fields(src)
}

func stripComments(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

type idlParser struct {
	toks []string
	pos  int
}

func (p *idlParser) next() (string, error) {
	if p.pos >= len(p.toks) {
		return "", fmt.Errorf("unexpected end of input")
	}
	t := p.toks[p.pos]
	p.pos++
	return t, nil
}

func (p *idlParser) expect(want string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t != want {
		return fmt.Errorf("expected %q, got %q", want, t)
	}
	return nil
}

func (p *idlParser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *idlParser) service() (*Service, error) {
	if err := p.expect("service"); err != nil {
		return nil, err
	}
	name, err := p.next()
	if err != nil {
		return nil, err
	}
	if !isIdent(name) {
		return nil, fmt.Errorf("bad service name %q", name)
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	svc := &Service{Name: name}
	seen := map[string]bool{}
	for p.peek() != "}" {
		if len(svc.Procs) == maxProcs {
			return nil, fmt.Errorf("service %q has more than %d procedures", name, maxProcs)
		}
		proc, err := p.proc(len(svc.Procs) + 1)
		if err != nil {
			return nil, err
		}
		// The stubs name a procedure by its title-cased name, so p and P
		// would declare the same method and constant twice.
		if seen[title(proc.Name)] {
			return nil, fmt.Errorf("duplicate procedure %q", proc.Name)
		}
		seen[title(proc.Name)] = true
		svc.Procs = append(svc.Procs, proc)
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	if len(svc.Procs) == 0 {
		return nil, fmt.Errorf("service %q has no procedures", name)
	}
	// A client method refers to its procedure's constant, so no parameter
	// may shadow a package-level name.
	pkg := pkgIdents(svc)
	for _, pr := range svc.Procs {
		for _, pa := range pr.Params {
			client, _ := paramIdents(pa)
			for _, id := range client {
				if pkg[id] {
					return nil, fmt.Errorf("parameter %q in %q collides with the generated %s", pa.Name, pr.Name, id)
				}
			}
		}
	}
	return svc, nil
}

func (p *idlParser) proc(id int) (*Proc, error) {
	if err := p.expect("proc"); err != nil {
		return nil, err
	}
	name, err := p.next()
	if err != nil {
		return nil, err
	}
	if !isIdent(name) {
		return nil, fmt.Errorf("bad procedure name %q", name)
	}
	pr := &Proc{Name: name, ID: id}
	params, err := p.paramList()
	if err != nil {
		return nil, err
	}
	pr.Params = params
	// Optional result list: "(...)" after the argument list.
	if p.peek() == "(" {
		more, err := p.paramList()
		if err != nil {
			return nil, err
		}
		pr.Params = append(pr.Params, more...)
	}
	names := map[string]bool{}
	for _, pa := range pr.Params {
		if names[pa.Name] {
			return nil, fmt.Errorf("duplicate parameter %q in %q", pa.Name, name)
		}
		names[pa.Name] = true
	}
	// Every identifier the stubs derive from a parameter must be its own
	// within each stub: distinct from the other parameters' and from the
	// stub's own locals.
	for _, client := range []bool{true, false} {
		if err := ownIdents(pr, client); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// ownIdents checks the identifiers the client method (client) or the
// dispatch loop derives from pr's parameters against each other and
// against the ones that stub declares itself.
func ownIdents(pr *Proc, client bool) error {
	reserved := serveIdents
	if client {
		reserved = clientIdents
	}
	owner := map[string]string{}
	for _, pa := range pr.Params {
		ids, serve := paramIdents(pa)
		if !client {
			ids = serve
		}
		for _, id := range ids {
			if reserved[id] {
				return fmt.Errorf("parameter %q in %q collides with the generated stubs' %s", pa.Name, pr.Name, id)
			}
			if prev, dup := owner[id]; dup {
				return fmt.Errorf("parameters %q and %q in %q both generate %s", prev, pa.Name, pr.Name, id)
			}
			owner[id] = pa.Name
		}
	}
	return nil
}

func (p *idlParser) paramList() ([]Param, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var out []Param
	for p.peek() != ")" {
		if len(out) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		pa, err := p.param()
		if err != nil {
			return nil, err
		}
		out = append(out, pa)
	}
	return out, p.expect(")")
}

func (p *idlParser) param() (Param, error) {
	dirTok, err := p.next()
	if err != nil {
		return Param{}, err
	}
	var dir Dir
	switch dirTok {
	case "in":
		dir = In
	case "out":
		dir = Out
	case "inout":
		dir = InOut
	default:
		return Param{}, fmt.Errorf("bad direction %q", dirTok)
	}
	name, err := p.next()
	if err != nil {
		return Param{}, err
	}
	// A keyword would not parse as a Go parameter, and the blank
	// identifier cannot be marshaled.
	if !isIdent(name) || token.IsKeyword(name) || name == "_" {
		return Param{}, fmt.Errorf("bad parameter name %q", name)
	}
	tname, err := p.next()
	if err != nil {
		return Param{}, err
	}
	t := Type{Name: tname}
	switch tname {
	case "u32", "i32", "u64", "i64", "f64", "bool":
	case "bytes":
		if err := p.expect("["); err != nil {
			return Param{}, err
		}
		nTok, err := p.next()
		if err != nil {
			return Param{}, err
		}
		n, err := strconv.Atoi(nTok)
		if err != nil || n <= 0 || n > MaxPayload-16 {
			return Param{}, fmt.Errorf("bad bytes bound %q", nTok)
		}
		t.Max = n
		if err := p.expect("]"); err != nil {
			return Param{}, err
		}
	default:
		return Param{}, fmt.Errorf("unknown type %q", tname)
	}
	return Param{Dir: dir, Name: name, Type: t}, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
