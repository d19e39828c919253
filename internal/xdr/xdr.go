// Package xdr implements the External Data Representation encoding used by
// SunRPC (RFC 1014, the subset the RPC layers here use): big-endian
// unsigned 32-bit quantities and 64-bit hypers, booleans, and strings and
// opaques padded to 4-byte boundaries.
//
// Encoders write through a Sink and decoders read through a Source so the
// RPC stream layer can be folded directly underneath (the paper's VRPC
// optimization: "fold the simplified stream layer directly into the XDR
// layer"): marshaling writes straight into the communication buffer with no
// intermediate copy.
package xdr

import (
	"errors"
	"fmt"
)

// ErrTruncated is returned when a decode runs out of data.
var ErrTruncated = errors.New("xdr: truncated data")

// Sink receives encoded bytes. Implementations charge whatever transport or
// memory cost applies.
type Sink interface {
	Write(b []byte)
}

// Source yields encoded bytes. Read must return exactly n bytes or an
// error.
type Source interface {
	Read(n int) ([]byte, error)
}

// ViewSource is optionally implemented by sources that can hand out
// zero-copy views of their backing buffer. ReadView advances the stream
// like Read but without a buffering copy; the returned bytes alias the
// communication buffer and are valid only until the consumer releases the
// enclosing message. This is the hook for the paper's "further
// optimizations": eliminating the receiver-side copy at the cost of the
// server having to consume the data before the client can send more.
type ViewSource interface {
	ReadView(n int) ([]byte, error)
}

// Marshaler is implemented by composite types that encode themselves.
type Marshaler interface {
	EncodeXDR(e *Encoder)
}

// Unmarshaler is implemented by composite types that decode themselves.
type Unmarshaler interface {
	DecodeXDR(d *Decoder) error
}

// pad holds the zero padding bytes appended to non-multiple-of-4 items.
var pad = [4]byte{}

// Encoder writes XDR items to a sink.
type Encoder struct {
	w Sink
	// Bytes counts everything written, for record marking.
	Bytes int
}

// NewEncoder returns an encoder over w.
func NewEncoder(w Sink) *Encoder { return &Encoder{w: w} }

func (e *Encoder) write(b []byte) {
	e.w.Write(b)
	e.Bytes += len(b)
}

// PutUint32 encodes a 32-bit unsigned integer.
func (e *Encoder) PutUint32(v uint32) {
	e.write([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// PutUint64 encodes an unsigned hyper.
func (e *Encoder) PutUint64(v uint64) {
	e.PutUint32(uint32(v >> 32))
	e.PutUint32(uint32(v))
}

// PutBool encodes a boolean as 0 or 1.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint32(1)
	} else {
		e.PutUint32(0)
	}
}

// PutFixedOpaque encodes bytes without a length prefix, padded to 4.
func (e *Encoder) PutFixedOpaque(b []byte) {
	e.write(b)
	if n := len(b) % 4; n != 0 {
		e.write(pad[:4-n])
	}
}

// PutOpaque encodes variable-length opaque data: length then padded bytes.
func (e *Encoder) PutOpaque(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.PutFixedOpaque(b)
}

// PutString encodes a string as counted, padded bytes.
func (e *Encoder) PutString(s string) { e.PutOpaque([]byte(s)) }

// Put encodes a Marshaler.
func (e *Encoder) Put(m Marshaler) { m.EncodeXDR(e) }

// Decoder reads XDR items from a source.
type Decoder struct {
	r Source
	// Bytes counts everything consumed.
	Bytes int
}

// NewDecoder returns a decoder over r.
func NewDecoder(r Source) *Decoder { return &Decoder{r: r} }

func (d *Decoder) read(n int) ([]byte, error) {
	b, err := d.r.Read(n)
	if err != nil {
		return nil, err
	}
	if len(b) != n {
		return nil, ErrTruncated
	}
	d.Bytes += n
	return b, nil
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.read(4)
	if err != nil {
		return 0, err
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// Uint64 decodes an unsigned hyper.
func (d *Decoder) Uint64() (uint64, error) {
	hi, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	lo, err := d.Uint32()
	return uint64(hi)<<32 | uint64(lo), err
}

// Bool decodes a boolean, rejecting values other than 0 and 1.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	if err != nil {
		return false, err
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("xdr: bad bool %d", v)
	}
}

// FixedOpaque decodes n bytes plus padding.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	b, err := d.read(n)
	if err != nil {
		return nil, err
	}
	if r := n % 4; r != 0 {
		if _, err := d.read(4 - r); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Opaque decodes variable-length opaque data, bounding the length at max
// (0 = no bound) to reject corrupt streams.
func (d *Decoder) Opaque(max int) ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if max > 0 && int(n) > max {
		return nil, fmt.Errorf("xdr: opaque length %d exceeds bound %d", n, max)
	}
	return d.FixedOpaque(int(n))
}

// OpaqueView decodes variable-length opaque data as a zero-copy view when
// the source supports it, falling back to Opaque otherwise. The view is
// valid only until the message is released.
func (d *Decoder) OpaqueView(max int) ([]byte, error) {
	vs, ok := d.r.(ViewSource)
	if !ok {
		return d.Opaque(max)
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if max > 0 && int(n) > max {
		return nil, fmt.Errorf("xdr: opaque length %d exceeds bound %d", n, max)
	}
	b, err := vs.ReadView(int(n))
	if err != nil {
		return nil, err
	}
	d.Bytes += int(n)
	if r := int(n) % 4; r != 0 {
		if _, err := d.read(4 - r); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// String decodes a counted string.
func (d *Decoder) String(max int) (string, error) {
	b, err := d.Opaque(max)
	return string(b), err
}

// Get decodes into an Unmarshaler.
func (d *Decoder) Get(u Unmarshaler) error { return u.DecodeXDR(d) }

// BufferSink is an in-memory Sink for tests and staging-buffer marshaling.
type BufferSink struct{ Buf []byte }

// Write appends to the buffer.
func (b *BufferSink) Write(p []byte) { b.Buf = append(b.Buf, p...) }

// BufferSource is an in-memory Source.
type BufferSource struct {
	Buf []byte
	off int
}

// Read consumes the next n bytes.
func (b *BufferSource) Read(n int) ([]byte, error) {
	if b.off+n > len(b.Buf) {
		return nil, ErrTruncated
	}
	out := b.Buf[b.off : b.off+n]
	b.off += n
	return out, nil
}
