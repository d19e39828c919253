package app

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzDecodeBatch throws arbitrary bytes at the batch decoder, as a
// client's argument image reaches serveBatch. Every input either decodes
// or returns an error, never panics, and never yields more ops than its
// image can hold. What decodes re-marshals with AppendOp into a canonical
// image that decodes to the same ops.
func FuzzDecodeBatch(f *testing.F) {
	img := binary.LittleEndian.AppendUint32(nil, 3)
	img = AppendOp(img, OpGet, 7, 11, 2, nil)
	img = AppendOp(img, OpPut, 8, 12, 3, []byte("value"))
	img = AppendOp(img, OpGet, 9, 13, 4, nil)
	f.Add(img)
	f.Add(img[:len(img)-4])
	f.Add(binary.LittleEndian.AppendUint32(nil, 0))
	f.Add(binary.LittleEndian.AppendUint32(nil, hugeCount))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, hugeCount), img[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeBatch(data, nil)
		if err != nil {
			if len(ops) != 0 {
				t.Fatalf("error %v with %d ops", err, len(ops))
			}
			return
		}
		if len(ops)*minOpSize > len(data)-4 {
			t.Fatalf("%d ops from a %d-byte image", len(ops), len(data))
		}
		again := binary.LittleEndian.AppendUint32(nil, uint32(len(ops)))
		for _, op := range ops {
			again = AppendOp(again, op.Kind, op.Shard, op.Key, op.Epoch, op.Val)
		}
		back, err := decodeBatch(again, nil)
		if err != nil || !slices.EqualFunc(back, ops, wireOpEqual) {
			t.Fatalf("re-marshaled image decodes to %+v (%v), want %+v", back, err, ops)
		}
	})
}

// FuzzDecodeRepl is FuzzDecodeBatch for the replication image serveRepl
// reads, re-marshaled with appendReplRec.
func FuzzDecodeRepl(f *testing.F) {
	img := binary.LittleEndian.AppendUint32(nil, 2)
	img = binary.LittleEndian.AppendUint32(img, replModeStream)
	img = appendReplRec(img, replRec{Shard: 1, Key: 2, Epoch: 3, Ver: 4, Val: []byte("abc")})
	img = appendReplRec(img, replRec{Shard: 5, Key: 6, Epoch: 7, Ver: 8})
	f.Add(img)
	f.Add(img[:len(img)-4])
	f.Add(binary.LittleEndian.AppendUint32(slices.Clone(img[:4]), replModeMerge))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, hugeCount), img[4:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		mode, recs, err := decodeRepl(data, nil)
		if len(recs)*replRecSize(0) > len(data) {
			t.Fatalf("%d records from a %d-byte image", len(recs), len(data))
		}
		if err != nil {
			return
		}
		if mode > replModeMerge {
			t.Fatalf("accepted mode %d", mode)
		}
		again := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
		again = binary.LittleEndian.AppendUint32(again, mode)
		for _, r := range recs {
			again = appendReplRec(again, r)
		}
		mode2, back, err := decodeRepl(again, nil)
		if err != nil || mode2 != mode || !slices.EqualFunc(back, recs, replRecEqual) {
			t.Fatalf("re-marshaled image decodes to mode %d %+v (%v), want mode %d %+v", mode2, back, err, mode, recs)
		}
	})
}
