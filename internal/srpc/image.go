package srpc

import (
	"encoding/binary"
	"math"

	"shrimp/internal/kernel"
)

// Image builds a marshaled payload (argument or result image). Fields are
// appended in declared order; a variable-length bytes field is stored as
// [data, padded to a word][length word] so a reader anchored at the END of
// the image (just below the flag) can locate everything. The specialized
// system uses native little-endian layout — no architecture-independent
// encoding layer, one of the reasons it beats the compatible RPC.
type Image struct {
	buf []byte
}

// PutU32 appends a 32-bit value.
func (im *Image) PutU32(v uint32) { im.buf = binary.LittleEndian.AppendUint32(im.buf, v) }

// PutI32 appends a signed 32-bit value.
func (im *Image) PutI32(v int32) { im.PutU32(uint32(v)) }

// PutU64 appends a 64-bit value.
func (im *Image) PutU64(v uint64) { im.buf = binary.LittleEndian.AppendUint64(im.buf, v) }

// PutI64 appends a signed 64-bit value.
func (im *Image) PutI64(v int64) { im.PutU64(uint64(v)) }

// PutF64 appends a double.
func (im *Image) PutF64(v float64) { im.PutU64(math.Float64bits(v)) }

// PutBool appends a boolean word.
func (im *Image) PutBool(v bool) {
	if v {
		im.PutU32(1)
	} else {
		im.PutU32(0)
	}
}

// PutBytes appends a variable-length field: padded data then length word.
func (im *Image) PutBytes(b []byte) {
	im.buf = append(im.buf, b...)
	for len(im.buf)%4 != 0 {
		im.buf = append(im.buf, 0)
	}
	im.PutU32(uint32(len(b)))
}

// Build returns the image (always a word multiple).
func (im *Image) Build() []byte { return im.buf }

// Fields parses the scalar region of a copied image, in declared order.
type Fields struct {
	buf []byte
	off int
}

// NewFields wraps a copied image region.
func NewFields(b []byte) *Fields { return &Fields{buf: b} }

// U32 reads the next 32-bit field.
func (f *Fields) U32() uint32 {
	v := binary.LittleEndian.Uint32(f.buf[f.off:])
	f.off += 4
	return v
}

// I32 reads the next signed 32-bit field.
func (f *Fields) I32() int32 { return int32(f.U32()) }

// U64 reads the next 64-bit field.
func (f *Fields) U64() uint64 {
	v := binary.LittleEndian.Uint64(f.buf[f.off:])
	f.off += 8
	return v
}

// I64 reads the next signed 64-bit field.
func (f *Fields) I64() int64 { return int64(f.U64()) }

// F64 reads the next double.
func (f *Fields) F64() float64 { return math.Float64frombits(f.U64()) }

// Bool reads the next boolean word.
func (f *Fields) Bool() bool { return f.U32() != 0 }

// View is a zero-copy window into communication-buffer memory: the
// "pointer into the communication buffer" of the paper. Bytes charges the
// data touch; Peek is for test assertions only.
type View struct {
	P  *kernel.Process
	VA kernel.VA
	N  int
}

// Len returns the view's size.
func (v View) Len() int { return v.N }

// Bytes reads the contents (charged as a CPU data touch).
func (v View) Bytes() []byte {
	if v.N == 0 {
		return nil
	}
	return v.P.ReadBytes(v.VA, v.N)
}

// Peek reads without time charge, for assertions.
func (v View) Peek() []byte {
	if v.N == 0 {
		return nil
	}
	return v.P.Peek(v.VA, v.N)
}

// LenWord reads the length footer of a bytes field at the end of the
// current argument or reply image. Every image ends at the flag word, so
// the footer sits at the same offset whatever the image's length.
func (b *Binding) LenWord() int {
	return int(b.ep.Proc.ReadWord(b.in + kernel.VA(flagOff-4)))
}

// ArgsFields copies and parses the scalar prefix (first `size` bytes) of
// the current argument image.
func (b *Binding) ArgsFields(argLen, size int) *Fields {
	if size == 0 {
		return NewFields(nil)
	}
	return NewFields(b.ep.Proc.ReadBytes(b.ArgsVA(argLen), size))
}

// ReplyFields copies and parses the scalar prefix of the current reply
// image.
func (b *Binding) ReplyFields(rlen, size int) *Fields {
	if size == 0 {
		return NewFields(nil)
	}
	return NewFields(b.ep.Proc.ReadBytes(b.ReplyVA(rlen), size))
}

// ArgsBytesView returns a zero-copy view of a bytes field occupying
// [scalarSize, scalarSize+n) of the current argument image.
func (b *Binding) ArgsBytesView(argLen, scalarSize, n int) View {
	return View{P: b.ep.Proc, VA: b.ArgsVA(argLen) + kernel.VA(scalarSize), N: n}
}

// ReplyBytesView returns a zero-copy view of a bytes field in the current
// reply image.
func (b *Binding) ReplyBytesView(rlen, scalarSize, n int) View {
	return View{P: b.ep.Proc, VA: b.ReplyVA(rlen) + kernel.VA(scalarSize), N: n}
}

// OutDataRef returns a by-reference window onto the data part of a reply
// image of total length rlen whose bytes field starts at scalarSize.
func (b *Binding) OutDataRef(rlen, scalarSize, n int) *Ref {
	base := b.shadow + kernel.VA(flagOff-rlen+scalarSize)
	return &Ref{b: b, base: base, n: n}
}

// SeedInOut seeds an INOUT bytes field of the reply image directly from the
// incoming argument image: the data and its length footer are copied into
// the outgoing buffer, from where they stream to the client in the
// background — the implicit return of INOUT parameters ("the written values
// are silently propagated back to the client").
func (b *Binding) SeedInOut(argLen, argScalarSize, rlen, resScalarSize, n int) {
	p := b.ep.Proc
	span := (n+3)&^3 + 4 // data + length footer
	p.CopyVA(
		b.shadow+kernel.VA(flagOff-rlen+resScalarSize),
		b.in+kernel.VA(flagOff-argLen+argScalarSize),
		span)
}
