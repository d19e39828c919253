package srpc

import (
	"fmt"
	"strings"
)

// Generate emits Go source for a parsed service: a typed client, a server
// interface, and a dispatch loop, all over the srpc runtime. The generated
// stubs implement the paper's marshaling discipline: arguments fill memory
// consecutively ending at the flag word; OUT/INOUT parameters are passed to
// the server procedure by reference into the outgoing communication buffer.
//
// Constraints (checked here): at most one bytes parameter per procedure
// (the marshaled image always places it after the scalars, whatever the
// declaration order), OUT-only bytes are not supported (use INOUT), and
// no full-size argument or result image may exceed MaxPayload.
func Generate(svc *Service, pkg string) (string, error) {
	if err := validate(svc); err != nil {
		return "", err
	}
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	p("// Code generated by srpcgen for service %s. DO NOT EDIT.", svc.Name)
	p("")
	p("package %s", pkg)
	p("")
	p("import \"shrimp/internal/srpc\"")
	p("")
	p("// Procedure numbers for service %s.", svc.Name)
	p("const (")
	for _, pr := range svc.Procs {
		p("\tProc%s%s = %d", svc.Name, title(pr.Name), pr.ID)
	}
	p(")")
	p("")

	genClient(p, svc)
	genServer(p, svc)
	return b.String(), nil
}

// clientIdents and serveIdents are the identifiers the generated stubs
// declare or refer to on their own account, read off the templates below:
// the runtime package plus the client method's receiver and locals, and
// the runtime package plus the dispatch loop's parameters and locals. A
// parameter's stub identifiers (see paramIdents) must avoid them, or the
// stub would redeclare or shadow one; ParseIDL rejects such names.
// TestStubIdentsCoverTemplates keeps the sets in step with the templates.
var (
	clientIdents = map[string]bool{"srpc": true, "c": true, "im": true, "rlen": true, "f": true, "n": true}
	serveIdents  = map[string]bool{"srpc": true, "b": true, "impl": true, "limit": true, "i": true,
		"proc": true, "alen": true, "f": true, "n": true, "rlen": true, "ref": true, "view": true, "rim": true}
)

// paramIdents are the identifiers the stubs derive from a parameter. The
// client method takes an argument under its own name and returns a result
// under the name with an R suffix; the dispatch loop unmarshals an argument
// into the name with an A suffix and a result into the R name. An inout
// parameter is both.
func paramIdents(pa Param) (client, serve []string) {
	if pa.Dir != Out {
		client = append(client, pa.Name)
		serve = append(serve, pa.Name+"A")
	}
	if pa.Dir != In {
		client = append(client, pa.Name+"R")
		serve = append(serve, pa.Name+"R")
	}
	return client, serve
}

// pkgIdents are the package-level names Generate declares for svc.
func pkgIdents(svc *Service) map[string]bool {
	ids := map[string]bool{
		svc.Name + "Client": true,
		svc.Name + "Server": true,
		"Serve" + svc.Name:  true,
	}
	for _, pr := range svc.Procs {
		ids["Proc"+svc.Name+title(pr.Name)] = true
	}
	return ids
}

func validate(svc *Service) error {
	for _, pr := range svc.Procs {
		nbytes := 0
		for _, pa := range pr.Params {
			if pa.Type.Name != "bytes" {
				continue
			}
			nbytes++
			if nbytes > 1 {
				return fmt.Errorf("srpcgen: %s.%s: at most one bytes parameter", svc.Name, pr.Name)
			}
			if pa.Dir == Out {
				return fmt.Errorf("srpcgen: %s.%s: out-only bytes unsupported; use inout", svc.Name, pr.Name)
			}
		}
		if n := max(imageMax(pr.Args()), imageMax(pr.Results())); n > MaxPayload {
			return fmt.Errorf("srpcgen: %s.%s: %d-byte image exceeds the %d-byte payload", svc.Name, pr.Name, n, MaxPayload)
		}
	}
	return nil
}

// imageMax is the largest image the params marshal to: the scalars, then
// a full bytes field padded to a word plus its length word.
func imageMax(params []Param) int {
	n := scalarSize(params)
	if bp := bytesParam(params); bp != nil {
		n += (bp.Type.Max+3)&^3 + 4
	}
	return n
}

// scalarSize sums the wire sizes of the scalar params in the list.
func scalarSize(params []Param) int {
	n := 0
	for _, pa := range params {
		if pa.Type.Name != "bytes" {
			n += pa.Type.WireSize()
		}
	}
	return n
}

func bytesParam(params []Param) *Param {
	for i := range params {
		if params[i].Type.Name == "bytes" {
			return &params[i]
		}
	}
	return nil
}

func scalars(params []Param) []Param {
	var out []Param
	for _, pa := range params {
		if pa.Type.Name != "bytes" {
			out = append(out, pa)
		}
	}
	return out
}

func title(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

func putCall(t Type) string {
	switch t.Name {
	case "u32":
		return "PutU32"
	case "i32":
		return "PutI32"
	case "u64":
		return "PutU64"
	case "i64":
		return "PutI64"
	case "f64":
		return "PutF64"
	case "bool":
		return "PutBool"
	}
	panic("bad scalar")
}

func getCall(t Type) string {
	switch t.Name {
	case "u32":
		return "U32"
	case "i32":
		return "I32"
	case "u64":
		return "U64"
	case "i64":
		return "I64"
	case "f64":
		return "F64"
	case "bool":
		return "Bool"
	}
	panic("bad scalar")
}

func genClient(p func(string, ...any), svc *Service) {
	cn := svc.Name + "Client"
	p("// %s invokes %s procedures over an SRPC binding.", cn, svc.Name)
	p("type %s struct{ B *srpc.Binding }", cn)
	p("")
	for _, pr := range svc.Procs {
		args := pr.Args()       // in + inout
		results := pr.Results() // out + inout
		bp := bytesParam(pr.Params)

		// Signature.
		var ins, outs []string
		for _, pa := range scalars(args) {
			ins = append(ins, pa.Name+" "+pa.Type.GoType())
		}
		if bp != nil {
			ins = append(ins, bp.Name+" []byte")
		}
		for _, pa := range scalars(results) {
			outs = append(outs, pa.Name+"R "+pa.Type.GoType())
		}
		if bp != nil && bp.Dir == InOut {
			outs = append(outs, bp.Name+"R srpc.View")
		}
		p("// %s calls the remote %s procedure.", title(pr.Name), pr.Name)
		if bp != nil && bp.Dir == InOut {
			p("// The returned view aliases the reply buffer and is valid until the next call.")
		}
		p("func (c *%s) %s(%s) (%s) {", cn, title(pr.Name), strings.Join(ins, ", "), strings.Join(outs, ", "))
		p("\tvar im srpc.Image")
		for _, pa := range scalars(args) {
			p("\tim.%s(%s)", putCall(pa.Type), pa.Name)
		}
		if bp != nil {
			p("\tim.PutBytes(%s)", bp.Name)
		}
		p("\trlen := c.B.Call(Proc%s%s, im.Build())", svc.Name, title(pr.Name))
		resScal := scalarSize(results)
		if resScal > 0 {
			p("\tf := c.B.ReplyFields(rlen, %d)", resScal)
			for _, pa := range scalars(results) {
				p("\t%sR = f.%s()", pa.Name, getCall(pa.Type))
			}
		} else {
			p("\t_ = rlen")
		}
		if bp != nil && bp.Dir == InOut {
			p("\tn := c.B.LenWord()")
			p("\t%sR = c.B.ReplyBytesView(rlen, %d, n)", bp.Name, resScal)
		}
		p("\treturn")
		p("}")
		p("")
	}
}

func genServer(p func(string, ...any), svc *Service) {
	sn := svc.Name + "Server"
	p("// %s is implemented by the application; OUT and INOUT bytes are", sn)
	p("// passed by reference into the communication buffer, so writes through")
	p("// them propagate to the client by automatic update as they happen.")
	p("type %s interface {", sn)
	for _, pr := range svc.Procs {
		args := pr.Args()
		results := pr.Results()
		bp := bytesParam(pr.Params)
		var ins, outs []string
		for _, pa := range scalars(args) {
			ins = append(ins, pa.Name+" "+pa.Type.GoType())
		}
		if bp != nil {
			if bp.Dir == InOut {
				ins = append(ins, bp.Name+" *srpc.Ref")
			} else {
				ins = append(ins, bp.Name+" srpc.View")
			}
		}
		for _, pa := range scalars(results) {
			outs = append(outs, pa.Type.GoType())
		}
		ret := ""
		if len(outs) == 1 {
			ret = " " + outs[0]
		} else if len(outs) > 1 {
			ret = " (" + strings.Join(outs, ", ") + ")"
		}
		p("\t%s(%s)%s", title(pr.Name), strings.Join(ins, ", "), ret)
	}
	p("}")
	p("")

	p("// Serve%s dispatches calls on the binding to impl; it returns after", svc.Name)
	p("// `limit` calls (limit <= 0: forever).")
	p("func Serve%s(b *srpc.Binding, impl %s, limit int) {", svc.Name, sn)
	p("\tfor i := 0; limit <= 0 || i < limit; i++ {")
	p("\t\tproc, alen := b.NextCall()")
	p("\t\tswitch proc {")
	for _, pr := range svc.Procs {
		args := pr.Args()
		results := pr.Results()
		bp := bytesParam(pr.Params)
		argScal := scalarSize(args)
		resScal := scalarSize(results)
		p("\t\tcase Proc%s%s:", svc.Name, title(pr.Name))
		if argScal > 0 {
			p("\t\t\tf := b.ArgsFields(alen, %d)", argScal)
		}
		var callArgs []string
		for _, pa := range scalars(args) {
			p("\t\t\t%sA := f.%s()", pa.Name, getCall(pa.Type))
			callArgs = append(callArgs, pa.Name+"A")
		}
		switch {
		case bp != nil && bp.Dir == InOut:
			p("\t\t\tn := b.LenWord()")
			p("\t\t\trlen := %d + (n+3)&^3 + 4", resScal)
			p("\t\t\t// Seed the INOUT data into the outgoing buffer: it")
			p("\t\t\t// propagates back to the client in the background.")
			p("\t\t\tb.SeedInOut(alen, %d, rlen, %d, n)", argScal, resScal)
			p("\t\t\tref := b.OutDataRef(rlen, %d, n)", resScal)
			callArgs = append(callArgs, "ref")
			emitCallAndScalars(p, svc, pr, callArgs, results, "rlen", resScal)
		case bp != nil:
			p("\t\t\tn := b.LenWord()")
			p("\t\t\tview := b.ArgsBytesView(alen, %d, n)", argScal)
			callArgs = append(callArgs, "view")
			p("\t\t\trlen := %d", resScal)
			emitCallAndScalars(p, svc, pr, callArgs, results, "rlen", resScal)
		default:
			p("\t\t\trlen := %d", resScal)
			emitCallAndScalars(p, svc, pr, callArgs, results, "rlen", resScal)
		}
	}
	p("\t\tdefault:")
	p("\t\t\tpanic(\"srpc: unknown procedure\")")
	p("\t\t}")
	p("\t}")
	p("}")
}

// emitCallAndScalars writes the impl invocation, scalar result marshaling,
// and the finishing flag.
func emitCallAndScalars(p func(string, ...any), svc *Service, pr *Proc, callArgs []string, results []Param, rlenExpr string, resScal int) {
	rets := scalars(results)
	call := fmt.Sprintf("impl.%s(%s)", title(pr.Name), strings.Join(callArgs, ", "))
	if len(rets) == 0 {
		p("\t\t\t%s", call)
	} else {
		var names []string
		for _, pa := range rets {
			names = append(names, pa.Name+"R")
		}
		p("\t\t\t%s := %s", strings.Join(names, ", "), call)
		p("\t\t\tvar rim srpc.Image")
		for _, pa := range rets {
			p("\t\t\trim.%s(%sR)", putCall(pa.Type), pa.Name)
		}
		p("\t\t\tb.WriteResultsAt(%s, rim.Build())", rlenExpr)
	}
	p("\t\t\tb.Finish(proc, %s)", rlenExpr)
}
