package xdr

import (
	"bytes"
	"math"
	"testing"
)

// FuzzRoundTrip encodes a value of every XDR item kind, decodes the buffer
// with every decoder, and requires the decoded values, the byte counts, and
// the 4-byte alignment invariants to match exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint64(0), false, []byte(nil), "")
	f.Add(uint32(7), uint64(math.MaxUint64), true, []byte("abc"), "hello")
	f.Add(uint32(0xdeadbeef), uint64(1)<<63, true,
		[]byte{0, 1, 2, 3, 4, 5, 6}, "padded string!")
	f.Fuzz(func(t *testing.T, u32 uint32, u64 uint64, b bool, op []byte, s string) {
		sink := &BufferSink{}
		e := NewEncoder(sink)
		e.PutUint32(u32)
		e.PutUint64(u64)
		e.PutBool(b)
		e.PutOpaque(op)
		e.PutOpaque(op)
		e.PutString(s)
		e.PutFixedOpaque(op)
		if e.Bytes != len(sink.Buf) {
			t.Fatalf("encoder counted %d bytes, sink holds %d", e.Bytes, len(sink.Buf))
		}
		if e.Bytes%4 != 0 {
			t.Fatalf("encoded stream length %d is not 4-byte aligned", e.Bytes)
		}

		d := NewDecoder(&BufferSource{Buf: sink.Buf})
		gotU32, err := d.Uint32()
		if err != nil || gotU32 != u32 {
			t.Fatalf("Uint32 = %d, %v; want %d", gotU32, err, u32)
		}
		gotU64, err := d.Uint64()
		if err != nil || gotU64 != u64 {
			t.Fatalf("Uint64 = %d, %v; want %d", gotU64, err, u64)
		}
		gotB, err := d.Bool()
		if err != nil || gotB != b {
			t.Fatalf("Bool = %v, %v; want %v", gotB, err, b)
		}
		gotOp, err := d.Opaque(0)
		if err != nil || !bytes.Equal(gotOp, op) {
			t.Fatalf("Opaque = %q, %v; want %q", gotOp, err, op)
		}
		// A BufferSource hands out no views, so this is the fallback path.
		gotView, err := d.OpaqueView(0)
		if err != nil || !bytes.Equal(gotView, op) {
			t.Fatalf("OpaqueView = %q, %v; want %q", gotView, err, op)
		}
		gotS, err := d.String(0)
		if err != nil || gotS != s {
			t.Fatalf("String = %q, %v; want %q", gotS, err, s)
		}
		gotFix, err := d.FixedOpaque(len(op))
		if err != nil || !bytes.Equal(gotFix, op) {
			t.Fatalf("FixedOpaque = %q, %v; want %q", gotFix, err, op)
		}
		if d.Bytes != e.Bytes {
			t.Fatalf("decoder counted %d bytes, encoder wrote %d", d.Bytes, e.Bytes)
		}

		// A truncated copy of the stream must surface an error, never panic
		// or fabricate data past the buffer.
		if len(sink.Buf) > 0 {
			short := &BufferSource{Buf: sink.Buf[:len(sink.Buf)-1]}
			ds := NewDecoder(short)
			for {
				if _, err := ds.Opaque(len(sink.Buf)); err != nil {
					break
				}
			}
		}
	})
}

// FuzzDecodeRaw throws arbitrary bytes at the decoder with bounds set, the
// way a server parses an untrusted request: every item either decodes or
// returns an error, and the decoder never reads past the buffer.
func FuzzDecodeRaw(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o', 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := NewDecoder(&BufferSource{Buf: raw})
		for {
			before := d.Bytes
			if _, err := d.Uint32(); err != nil {
				break
			}
			if _, err := d.Bool(); err != nil {
				break
			}
			if _, err := d.String(1 << 16); err != nil {
				break
			}
			if _, err := d.Opaque(1 << 16); err != nil {
				break
			}
			if d.Bytes <= before {
				t.Fatal("decoder made no progress")
			}
		}
		if d.Bytes > len(raw) {
			t.Fatalf("decoder counted %d bytes from a %d-byte buffer", d.Bytes, len(raw))
		}
	})
}
