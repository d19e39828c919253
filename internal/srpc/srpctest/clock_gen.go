// Code generated by srpcgen for service Clock. DO NOT EDIT.

package srpctest

import "shrimp/internal/srpc"

// Procedure numbers for service Clock.
const (
	ProcClockNow    = 1
	ProcClockAdjust = 2
	ProcClockNull   = 3
	ProcClockFill   = 4
	ProcClockSum    = 5
)

// ClockClient invokes Clock procedures over an SRPC binding.
type ClockClient struct{ B *srpc.Binding }

// Now calls the remote now procedure.
func (c *ClockClient) Now() (secR uint32, usecR uint32) {
	var im srpc.Image
	rlen := c.B.Call(ProcClockNow, im.Build())
	f := c.B.ReplyFields(rlen, 8)
	secR = f.U32()
	usecR = f.U32()
	return
}

// Adjust calls the remote adjust procedure.
func (c *ClockClient) Adjust(delta int32, scale float64) (appliedR bool, totalR int64) {
	var im srpc.Image
	im.PutI32(delta)
	im.PutF64(scale)
	rlen := c.B.Call(ProcClockAdjust, im.Build())
	f := c.B.ReplyFields(rlen, 12)
	appliedR = f.Bool()
	totalR = f.I64()
	return
}

// Null calls the remote null procedure.
// The returned view aliases the reply buffer and is valid until the next call.
func (c *ClockClient) Null(data []byte) (dataR srpc.View) {
	var im srpc.Image
	im.PutBytes(data)
	rlen := c.B.Call(ProcClockNull, im.Build())
	_ = rlen
	n := c.B.LenWord()
	dataR = c.B.ReplyBytesView(rlen, 0, n)
	return
}

// Fill calls the remote fill procedure.
// The returned view aliases the reply buffer and is valid until the next call.
func (c *ClockClient) Fill(value uint32, data []byte) (dataR srpc.View) {
	var im srpc.Image
	im.PutU32(value)
	im.PutBytes(data)
	rlen := c.B.Call(ProcClockFill, im.Build())
	_ = rlen
	n := c.B.LenWord()
	dataR = c.B.ReplyBytesView(rlen, 0, n)
	return
}

// Sum calls the remote sum procedure.
func (c *ClockClient) Sum(data []byte) (totalR uint64) {
	var im srpc.Image
	im.PutBytes(data)
	rlen := c.B.Call(ProcClockSum, im.Build())
	f := c.B.ReplyFields(rlen, 8)
	totalR = f.U64()
	return
}

// ClockServer is implemented by the application; OUT and INOUT bytes are
// passed by reference into the communication buffer, so writes through
// them propagate to the client by automatic update as they happen.
type ClockServer interface {
	Now() (uint32, uint32)
	Adjust(delta int32, scale float64) (bool, int64)
	Null(data *srpc.Ref)
	Fill(value uint32, data *srpc.Ref)
	Sum(data srpc.View) uint64
}

// ServeClock dispatches calls on the binding to impl; it returns after
// `limit` calls (limit <= 0: forever).
func ServeClock(b *srpc.Binding, impl ClockServer, limit int) {
	for i := 0; limit <= 0 || i < limit; i++ {
		proc, alen := b.NextCall()
		switch proc {
		case ProcClockNow:
			rlen := 8
			secR, usecR := impl.Now()
			var rim srpc.Image
			rim.PutU32(secR)
			rim.PutU32(usecR)
			b.WriteResultsAt(rlen, rim.Build())
			b.Finish(proc, rlen)
		case ProcClockAdjust:
			f := b.ArgsFields(alen, 12)
			deltaA := f.I32()
			scaleA := f.F64()
			rlen := 12
			appliedR, totalR := impl.Adjust(deltaA, scaleA)
			var rim srpc.Image
			rim.PutBool(appliedR)
			rim.PutI64(totalR)
			b.WriteResultsAt(rlen, rim.Build())
			b.Finish(proc, rlen)
		case ProcClockNull:
			n := b.LenWord()
			rlen := 0 + (n+3)&^3 + 4
			// Seed the INOUT data into the outgoing buffer: it
			// propagates back to the client in the background.
			b.SeedInOut(alen, 0, rlen, 0, n)
			ref := b.OutDataRef(rlen, 0, n)
			impl.Null(ref)
			b.Finish(proc, rlen)
		case ProcClockFill:
			f := b.ArgsFields(alen, 4)
			valueA := f.U32()
			n := b.LenWord()
			rlen := 0 + (n+3)&^3 + 4
			// Seed the INOUT data into the outgoing buffer: it
			// propagates back to the client in the background.
			b.SeedInOut(alen, 4, rlen, 0, n)
			ref := b.OutDataRef(rlen, 0, n)
			impl.Fill(valueA, ref)
			b.Finish(proc, rlen)
		case ProcClockSum:
			n := b.LenWord()
			view := b.ArgsBytesView(alen, 0, n)
			rlen := 8
			totalR := impl.Sum(view)
			var rim srpc.Image
			rim.PutU64(totalR)
			b.WriteResultsAt(rlen, rim.Build())
			b.Finish(proc, rlen)
		default:
			panic("srpc: unknown procedure")
		}
	}
}
