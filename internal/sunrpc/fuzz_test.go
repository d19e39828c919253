package sunrpc

import (
	"reflect"
	"testing"

	"shrimp/internal/xdr"
)

// FuzzDecodeHeaders throws arbitrary bytes at every header decoder that
// reads untrusted input: a server's call header, a bare credential and a
// client's reply header. Each either decodes or
// returns an error; none may panic, and a call header that decodes
// re-encodes to one that decodes to the same header.
func FuzzDecodeHeaders(f *testing.F) {
	encode := func(m func(*xdr.Encoder)) []byte {
		sink := &xdr.BufferSink{}
		m(xdr.NewEncoder(sink))
		return sink.Buf
	}
	// An AUTH_SYS credential (flavor 1, RFC 1057 Appendix A): stamp,
	// machine name, uid, gid and gids, which a server carries opaquely.
	cred := OpaqueAuth{Flavor: 1, Body: encode(func(e *xdr.Encoder) {
		e.PutUint32(7)
		e.PutString("node1")
		e.PutUint32(100)
		e.PutUint32(10)
		e.PutUint32(2) // a counted array of two words
		e.PutUint32(10)
		e.PutUint32(20)
	})}
	f.Add([]byte(nil))
	f.Add(encode((&callHeader{XID: 1, Prog: 0x20000001, Vers: 1, Proc: 2}).EncodeXDR))
	f.Add(encode((&callHeader{XID: 2, Prog: 0x20000001, Vers: 1, Proc: 0, Cred: cred}).EncodeXDR))
	f.Add(encode(cred.EncodeXDR))
	f.Add(cred.Body)
	f.Add(encode(func(e *xdr.Encoder) { writeReplyHeader(e, 3, acceptSuccess, nil) }))
	f.Add(encode(func(e *xdr.Encoder) {
		writeReplyHeader(e, 4, acceptProgMismatch, &ProgMismatchError{Low: 1, High: 2})
	}))
	f.Add(encode(func(e *xdr.Encoder) {
		e.PutUint32(5)
		e.PutUint32(msgReply)
		e.PutUint32(replyDenied)
		e.PutUint32(rejectRPCMismatch)
		e.PutUint32(2)
		e.PutUint32(2)
	}))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var h callHeader
		if h.DecodeXDR(xdr.NewDecoder(&xdr.BufferSource{Buf: raw})) == nil {
			var back callHeader
			if err := back.DecodeXDR(xdr.NewDecoder(&xdr.BufferSource{Buf: encode(h.EncodeXDR)})); err != nil {
				t.Fatalf("re-encoded call header does not decode: %v", err)
			}
			if !reflect.DeepEqual(back, h) {
				t.Fatalf("call header round trip: %+v became %+v", h, back)
			}
		}
		var a OpaqueAuth
		_ = a.DecodeXDR(xdr.NewDecoder(&xdr.BufferSource{Buf: raw}))
		_, _ = readReplyHeader(xdr.NewDecoder(&xdr.BufferSource{Buf: raw}))
	})
}
