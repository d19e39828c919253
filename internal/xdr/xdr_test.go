package xdr

import (
	"bytes"
	"testing"
	"testing/quick"
)

func encdec() (*Encoder, func() *Decoder) {
	sink := &BufferSink{}
	e := NewEncoder(sink)
	return e, func() *Decoder { return NewDecoder(&BufferSource{Buf: sink.Buf}) }
}

func TestPrimitiveRoundtrip(t *testing.T) {
	e, mk := encdec()
	e.PutUint32(0xdeadbeef)
	e.PutUint64(1<<63 | 1<<61)
	e.PutBool(true)
	e.PutBool(false)
	d := mk()
	if v, _ := d.Uint32(); v != 0xdeadbeef {
		t.Errorf("u32 %x", v)
	}
	if v, _ := d.Uint64(); v != 1<<63|1<<61 {
		t.Errorf("u64 %x", v)
	}
	if v, _ := d.Bool(); !v {
		t.Error("bool true")
	}
	if v, _ := d.Bool(); v {
		t.Error("bool false")
	}
}

func TestBigEndianWire(t *testing.T) {
	sink := &BufferSink{}
	NewEncoder(sink).PutUint32(1)
	if !bytes.Equal(sink.Buf, []byte{0, 0, 0, 1}) {
		t.Fatalf("wire = %x, XDR is big-endian", sink.Buf)
	}
}

func TestPadding(t *testing.T) {
	sink := &BufferSink{}
	e := NewEncoder(sink)
	e.PutOpaque([]byte{1, 2, 3, 4, 5}) // 4 len + 5 data + 3 pad
	if len(sink.Buf) != 12 {
		t.Fatalf("opaque<5> wire length %d, want 12", len(sink.Buf))
	}
	if sink.Buf[10] != 0 || sink.Buf[11] != 0 {
		t.Fatal("padding not zero")
	}
	e2, mk := encdec()
	e2.PutString("hello")
	e2.PutUint32(7)
	d := mk()
	s, err := d.String(0)
	if err != nil || s != "hello" {
		t.Fatalf("string %q %v", s, err)
	}
	if v, _ := d.Uint32(); v != 7 {
		t.Fatal("value after padded string misaligned")
	}
}

func TestTruncation(t *testing.T) {
	d := NewDecoder(&BufferSource{Buf: []byte{0, 0}})
	if _, err := d.Uint32(); err != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	// Truncated padding.
	d = NewDecoder(&BufferSource{Buf: []byte{0, 0, 0, 3, 'a', 'b', 'c'}})
	if _, err := d.Opaque(0); err != ErrTruncated {
		t.Fatalf("truncated padding: %v", err)
	}
}

func TestBadBool(t *testing.T) {
	d := NewDecoder(&BufferSource{Buf: []byte{0, 0, 0, 9}})
	if _, err := d.Bool(); err == nil {
		t.Fatal("bool 9 accepted")
	}
}

func TestBoundedLengths(t *testing.T) {
	sink := &BufferSink{}
	e := NewEncoder(sink)
	e.PutOpaque(make([]byte, 100))
	d := NewDecoder(&BufferSource{Buf: sink.Buf})
	if _, err := d.Opaque(50); err == nil {
		t.Fatal("over-bound opaque accepted")
	}
	d = NewDecoder(&BufferSource{Buf: sink.Buf})
	if _, err := d.String(50); err == nil {
		t.Fatal("over-bound string accepted")
	}
}

func TestBytesCounting(t *testing.T) {
	e, mk := encdec()
	e.PutUint32(1)
	e.PutString("ab") // 4 + 2 + 2 pad
	if e.Bytes != 12 {
		t.Fatalf("encoder bytes %d", e.Bytes)
	}
	d := mk()
	d.Uint32()
	d.String(0)
	if d.Bytes != 12 {
		t.Fatalf("decoder bytes %d", d.Bytes)
	}
}

type testStruct struct {
	A uint32
	B string
	C []byte
	D uint64
	E bool
}

func (s *testStruct) EncodeXDR(e *Encoder) {
	e.PutUint32(s.A)
	e.PutString(s.B)
	e.PutOpaque(s.C)
	e.PutUint64(s.D)
	e.PutBool(s.E)
}

func (s *testStruct) DecodeXDR(d *Decoder) error {
	var err error
	if s.A, err = d.Uint32(); err != nil {
		return err
	}
	if s.B, err = d.String(0); err != nil {
		return err
	}
	if s.C, err = d.Opaque(0); err != nil {
		return err
	}
	if s.D, err = d.Uint64(); err != nil {
		return err
	}
	s.E, err = d.Bool()
	return err
}

func TestStructRoundtrip(t *testing.T) {
	in := &testStruct{A: 7, B: "remote procedure", C: []byte{9, 8, 7}, D: 1<<40 + 12345678901, E: true}
	e, mk := encdec()
	e.Put(in)
	var out testStruct
	if err := mk().Get(&out); err != nil {
		t.Fatal(err)
	}
	if out.A != in.A || out.B != in.B || !bytes.Equal(out.C, in.C) || out.D != in.D || out.E != in.E {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
	}
}

// Property: any combination of primitives survives a roundtrip, and the
// stream stays 4-byte aligned throughout.
func TestRoundtripProperty(t *testing.T) {
	f := func(u32 uint32, u64 uint64, b bool, s string, op []byte) bool {
		e, mk := encdec()
		e.PutUint32(u32)
		e.PutUint64(u64)
		e.PutBool(b)
		e.PutString(s)
		e.PutOpaque(op)
		if e.Bytes%4 != 0 {
			return false
		}
		d := mk()
		gu32, _ := d.Uint32()
		gu64, _ := d.Uint64()
		gb, _ := d.Bool()
		gs, _ := d.String(0)
		gop, err := d.Opaque(0)
		if err != nil {
			return false
		}
		return gu32 == u32 && gu64 == u64 && gb == b && gs == s && bytes.Equal(gop, op) &&
			d.Bytes == e.Bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
