package sunrpc

import (
	"errors"
	"fmt"

	"shrimp/internal/xdr"
)

// RPC protocol constants (RFC 1057).
const (
	rpcVersion = 2

	msgCall  = 0
	msgReply = 1

	replyAccepted = 0
	replyDenied   = 1

	acceptSuccess      = 0
	acceptProgUnavail  = 1
	acceptProgMismatch = 2
	acceptProcUnavail  = 3
	acceptGarbageArgs  = 4

	rejectRPCMismatch = 0
	rejectAuthError   = 1
)

// AuthFlavor identifies a credential scheme.
type AuthFlavor uint32

// AuthNone is the empty credential every client sends. A server carries
// any flavor's body (at most 400 bytes) without interpreting it.
const AuthNone AuthFlavor = 0

// OpaqueAuth is a credential or verifier: flavor plus opaque body.
type OpaqueAuth struct {
	Flavor AuthFlavor
	Body   []byte
}

// EncodeXDR implements xdr.Marshaler.
func (a *OpaqueAuth) EncodeXDR(e *xdr.Encoder) {
	e.PutUint32(uint32(a.Flavor))
	e.PutOpaque(a.Body)
}

// DecodeXDR implements xdr.Unmarshaler.
func (a *OpaqueAuth) DecodeXDR(d *xdr.Decoder) error {
	f, err := d.Uint32()
	if err != nil {
		return err
	}
	a.Flavor = AuthFlavor(f)
	a.Body, err = d.Opaque(400) // RFC 1057: auth bodies are at most 400 bytes
	return err
}

// callHeader is the body of an RPC CALL message up to the parameters.
type callHeader struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	Cred OpaqueAuth
	Verf OpaqueAuth
}

func (c *callHeader) EncodeXDR(e *xdr.Encoder) {
	e.PutUint32(c.XID)
	e.PutUint32(msgCall)
	e.PutUint32(rpcVersion)
	e.PutUint32(c.Prog)
	e.PutUint32(c.Vers)
	e.PutUint32(c.Proc)
	c.Cred.EncodeXDR(e)
	c.Verf.EncodeXDR(e)
}

func (c *callHeader) DecodeXDR(d *xdr.Decoder) error {
	var err error
	if c.XID, err = d.Uint32(); err != nil {
		return err
	}
	mtype, err := d.Uint32()
	if err != nil {
		return err
	}
	if mtype != msgCall {
		return fmt.Errorf("sunrpc: expected CALL, got message type %d", mtype)
	}
	vers, err := d.Uint32()
	if err != nil {
		return err
	}
	if vers != rpcVersion {
		return fmt.Errorf("sunrpc: RPC version %d not supported", vers)
	}
	if c.Prog, err = d.Uint32(); err != nil {
		return err
	}
	if c.Vers, err = d.Uint32(); err != nil {
		return err
	}
	if c.Proc, err = d.Uint32(); err != nil {
		return err
	}
	if err = c.Cred.DecodeXDR(d); err != nil {
		return err
	}
	return c.Verf.DecodeXDR(d)
}

// Error values surfaced by Client.Call for non-SUCCESS replies.
var (
	ErrProgUnavailable = errors.New("sunrpc: program unavailable")
	ErrProcUnavailable = errors.New("sunrpc: procedure unavailable")
	ErrGarbageArgs     = errors.New("sunrpc: server could not decode arguments")
	ErrDenied          = errors.New("sunrpc: call denied")
	ErrXIDMismatch     = errors.New("sunrpc: reply xid mismatch")
)

// ProgMismatchError reports the version range a server supports.
type ProgMismatchError struct {
	Low, High uint32
}

func (e *ProgMismatchError) Error() string {
	return fmt.Sprintf("sunrpc: program version mismatch (server supports %d-%d)", e.Low, e.High)
}

// writeReplyHeader emits a reply up to (but excluding) the results.
func writeReplyHeader(e *xdr.Encoder, xid uint32, acceptStat uint32, mismatch *ProgMismatchError) {
	e.PutUint32(xid)
	e.PutUint32(msgReply)
	e.PutUint32(replyAccepted)
	(&OpaqueAuth{Flavor: AuthNone}).EncodeXDR(e)
	e.PutUint32(acceptStat)
	if acceptStat == acceptProgMismatch && mismatch != nil {
		e.PutUint32(mismatch.Low)
		e.PutUint32(mismatch.High)
	}
}

// readReplyHeader consumes a reply header, returning the xid and an error
// for any non-SUCCESS status. On success the decoder is positioned at the
// results.
func readReplyHeader(d *xdr.Decoder) (uint32, error) {
	xid, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	mtype, err := d.Uint32()
	if err != nil {
		return xid, err
	}
	if mtype != msgReply {
		return xid, fmt.Errorf("sunrpc: expected REPLY, got %d", mtype)
	}
	stat, err := d.Uint32()
	if err != nil {
		return xid, err
	}
	if stat == replyDenied {
		reason, err := d.Uint32()
		if err != nil {
			return xid, err
		}
		if reason == rejectRPCMismatch {
			var lo, hi uint32
			if lo, err = d.Uint32(); err != nil {
				return xid, err
			}
			if hi, err = d.Uint32(); err != nil {
				return xid, err
			}
			return xid, fmt.Errorf("%w: rpc version mismatch (%d-%d)", ErrDenied, lo, hi)
		}
		return xid, ErrDenied
	}
	var verf OpaqueAuth
	if err := verf.DecodeXDR(d); err != nil {
		return xid, err
	}
	astat, err := d.Uint32()
	if err != nil {
		return xid, err
	}
	switch astat {
	case acceptSuccess:
		return xid, nil
	case acceptProgUnavail:
		return xid, ErrProgUnavailable
	case acceptProgMismatch:
		var e ProgMismatchError
		if e.Low, err = d.Uint32(); err != nil {
			return xid, err
		}
		if e.High, err = d.Uint32(); err != nil {
			return xid, err
		}
		return xid, &e
	case acceptProcUnavail:
		return xid, ErrProcUnavailable
	case acceptGarbageArgs:
		return xid, ErrGarbageArgs
	default:
		return xid, fmt.Errorf("sunrpc: unknown accept status %d", astat)
	}
}

// lookup finds (prog, vers) among programs. When the program is served
// at other versions only, it reports their range instead.
func lookup(programs []*Program, prog, vers uint32) (*Program, *ProgMismatchError) {
	var lo, hi uint32
	found := false
	for _, pr := range programs {
		if pr.Prog != prog {
			continue
		}
		if pr.Vers == vers {
			return pr, nil
		}
		if !found || pr.Vers < lo {
			lo = pr.Vers
		}
		if pr.Vers > hi {
			hi = pr.Vers
		}
		found = true
	}
	if found {
		return nil, &ProgMismatchError{Low: lo, High: hi}
	}
	return nil, nil
}

// answer serves one call whose header is already decoded: it looks up the
// program and procedure, runs the handler on the arguments in dec, and
// writes the reply to enc. The reply header precedes the results but its
// status depends on whether the arguments decode, so the handler encodes
// into a staging buffer first (SunRPC practice: decode the arguments
// fully, then emit); a handler error becomes GARBAGE_ARGS.
func answer(programs []*Program, hdr *callHeader, dec *xdr.Decoder, enc *xdr.Encoder) {
	prog, mismatch := lookup(programs, hdr.Prog, hdr.Vers)
	switch {
	case prog == nil && mismatch != nil:
		writeReplyHeader(enc, hdr.XID, acceptProgMismatch, mismatch)
	case prog == nil:
		writeReplyHeader(enc, hdr.XID, acceptProgUnavail, nil)
	default:
		handler, ok := prog.Procs[hdr.Proc]
		if !ok {
			writeReplyHeader(enc, hdr.XID, acceptProcUnavail, nil)
			return
		}
		sink := &xdr.BufferSink{}
		if err := handler(dec, xdr.NewEncoder(sink)); err != nil {
			writeReplyHeader(enc, hdr.XID, acceptGarbageArgs, nil)
			return
		}
		writeReplyHeader(enc, hdr.XID, acceptSuccess, nil)
		// Void results write nothing: an empty write into an SBL
		// stream would still open an encode span.
		if len(sink.Buf) > 0 {
			enc.PutFixedOpaque(sink.Buf)
		}
	}
}

// encodeCall writes a CALL message: the header, then the arguments (args
// may be nil for void).
func encodeCall(enc *xdr.Encoder, hdr *callHeader, args func(*xdr.Encoder)) {
	hdr.EncodeXDR(enc)
	if args != nil {
		args(enc)
	}
}

// decodeReply reads the reply to call xid: the header, whose non-SUCCESS
// status becomes an error, then the results (results may be nil for void).
func decodeReply(dec *xdr.Decoder, xid uint32, results func(*xdr.Decoder) error) error {
	got, err := readReplyHeader(dec)
	if err != nil {
		return err
	}
	if got != xid {
		return ErrXIDMismatch
	}
	if results != nil {
		return results(dec)
	}
	return nil
}
