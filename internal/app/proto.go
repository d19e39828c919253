package app

import (
	"encoding/binary"
	"errors"
	"fmt"

	"shrimp/internal/srpc"
)

// Rendezvous ports and procedure numbers of the serving subsystem's two
// SRPC services: the client-facing batch service and the primary→replica
// replication service (a separate port served by a separate process, so a
// primary replicating into a node never waits behind that node's own
// client work — the cycle that would otherwise deadlock two primaries
// replicating into each other).
const (
	// Port is the client-facing batch RPC rendezvous port.
	Port = 700
	// ReplPort is the replication/resync rendezvous port.
	ReplPort = 701

	// ProcBatch executes a batch of KV ops (client → any server).
	ProcBatch = 1
	// ProcRepl applies a batch of replicated writes (primary → replica).
	ProcRepl = 2
)

// Op kinds and per-op reply statuses.
const (
	OpGet = 0
	OpPut = 1

	// StatusOK: executed; a get's reply carries the value.
	StatusOK = 0
	// StatusShed: rejected by per-shard admission control. Terminal — the
	// client reports the error upward instead of retrying into overload.
	StatusShed = 1
	// StatusWrongNode: this node does not (any longer) hold the role the
	// client routed for; the client re-reads the shard map and retries.
	StatusWrongNode = 2
	// StatusNotFound: get of an absent key.
	StatusNotFound = 3
	// StatusBadRequest: the op could not be decoded.
	StatusBadRequest = 4
	// StatusStaleEpoch: the op (or replication record) was minted under a
	// shard epoch older than the serving node's — a fenced-off regime. The
	// client re-reads the shard map and retries; a deposed primary's
	// replication proxy abandons the entry without a death verdict.
	StatusStaleEpoch = 5
	// StatusUnavailable: a write the primary could neither replicate nor
	// safely self-certify — its synchronous replication failed while the
	// shard map still names a synced follower, meaning the cluster quorum
	// disagrees that the follower is gone (the primary is on the minority
	// side of a partition). The write is not acknowledged; the client
	// retries elsewhere once routing catches up.
	StatusUnavailable = 6
)

// ErrStaleEpoch is the fencing rejection: the peer serves a newer shard
// epoch than the one this message was minted under.
var ErrStaleEpoch = errors.New("app: stale shard epoch")

// Replication image modes (the word after the record count).
const (
	// replModeStream: in-regime replication or snapshot resync; records
	// apply unconditionally after the epoch fence.
	replModeStream = 0
	// replModeMerge: heal-time reconciliation from a deposed primary;
	// records apply only where their version exceeds the stored one.
	replModeMerge = 1
)

// MaxBatchImage bounds one batch's marshaled size.
const MaxBatchImage = srpc.MaxPayload

func pad4(n int) int { return (n + 3) &^ 3 }

// AppendOp marshals one op onto a request image: a meta word
// [kind:8|reserved:8|shard:16], the key, the shard epoch the client routed
// under (the fencing stamp), and for puts the value. The reserved byte is
// written zero and ignored on decode. Exported for the load generator,
// which builds batch images directly.
func AppendOp(buf []byte, kind, shard int, key uint64, epoch uint32, val []byte) []byte {
	meta := uint32(kind&0xff)<<24 | uint32(shard&0xffff)
	buf = binary.LittleEndian.AppendUint32(buf, meta)
	buf = binary.LittleEndian.AppendUint64(buf, key)
	buf = binary.LittleEndian.AppendUint32(buf, epoch)
	if kind == OpPut {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
		buf = append(buf, val...)
		for len(buf)%4 != 0 {
			buf = append(buf, 0)
		}
	}
	return buf
}

// cursor is a front-to-back wire decoder over a copied image.
type cursor struct {
	buf []byte
	off int
}

func (c *cursor) u32() (uint32, error) {
	if c.off+4 > len(c.buf) {
		return 0, fmt.Errorf("app: truncated image at %d/%d", c.off, len(c.buf))
	}
	v := binary.LittleEndian.Uint32(c.buf[c.off:])
	c.off += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if c.off+8 > len(c.buf) {
		return 0, fmt.Errorf("app: truncated image at %d/%d", c.off, len(c.buf))
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v, nil
}

func (c *cursor) bytes() ([]byte, error) {
	n, err := c.u32()
	if err != nil {
		return nil, err
	}
	end := c.off + pad4(int(n))
	if int(n) > len(c.buf)-c.off || end > len(c.buf) {
		return nil, fmt.Errorf("app: truncated bytes field (%d) at %d/%d", n, c.off, len(c.buf))
	}
	v := c.buf[c.off : c.off+int(n)]
	c.off = end
	return v, nil
}

// minOpSize is the smallest marshaled op: a get's meta word, key and
// epoch.
const minOpSize = 4 + 8 + 4

// wireOp is one decoded request op.
type wireOp struct {
	Kind  int
	Shard int
	Key   uint64
	Epoch uint32
	Val   []byte
}

func (c *cursor) op() (wireOp, error) {
	meta, err := c.u32()
	if err != nil {
		return wireOp{}, err
	}
	key, err := c.u64()
	if err != nil {
		return wireOp{}, err
	}
	epoch, err := c.u32()
	if err != nil {
		return wireOp{}, err
	}
	op := wireOp{
		Kind:  int(meta >> 24),
		Shard: int(meta & 0xffff),
		Key:   key,
		Epoch: epoch,
	}
	if op.Kind == OpPut {
		if op.Val, err = c.bytes(); err != nil {
			return wireOp{}, err
		}
	}
	return op, nil
}

// decodeBatch decodes a batch request image, a count word then that many
// ops, into ops' storage. A count the image is too short to hold is
// rejected before anything is sized by it: the count comes off the wire.
func decodeBatch(img []byte, ops []wireOp) ([]wireOp, error) {
	ops = ops[:0]
	c := cursor{buf: img}
	n, err := c.u32()
	if err != nil {
		return ops, err
	}
	if uint64(n)*minOpSize > uint64(len(img)-c.off) {
		return ops, fmt.Errorf("app: %d ops cannot fit a %d-byte batch image", n, len(img))
	}
	for i := 0; i < int(n); i++ {
		op, err := c.op()
		if err != nil {
			return ops[:0], err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// replRec is one replicated write: shard, key, value, plus the shard epoch
// the sending primary served under (the fence a new regime rejects) and
// the write's store version (epoch<<32 | sequence, the merge tiebreak).
type replRec struct {
	Shard int
	Key   uint64
	Epoch uint32
	Ver   uint64
	Val   []byte
}

// replRecSize returns the marshaled size of one replication record.
func replRecSize(vlen int) int { return 4 + 8 + 4 + 8 + 4 + pad4(vlen) }

// appendReplRec marshals one replication record.
func appendReplRec(buf []byte, r replRec) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Shard))
	buf = binary.LittleEndian.AppendUint64(buf, r.Key)
	buf = binary.LittleEndian.AppendUint32(buf, r.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, r.Ver)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Val)))
	buf = append(buf, r.Val...)
	for len(buf)%4 != 0 {
		buf = append(buf, 0)
	}
	return buf
}

// decodeRepl decodes a replication image — a count word, a mode word,
// then that many records — into recs' storage. On a malformed record it
// returns the records decoded before it along with the error, so a server
// applying them in order behaves as if it had decoded record by record. A
// bad header or a count the image cannot hold returns no records.
func decodeRepl(img []byte, recs []replRec) (mode uint32, _ []replRec, err error) {
	recs = recs[:0]
	c := cursor{buf: img}
	n, err := c.u32()
	if err == nil {
		mode, err = c.u32()
	}
	if err != nil {
		return 0, recs, err
	}
	if mode > replModeMerge {
		return 0, recs, fmt.Errorf("app: unknown replication mode %d", mode)
	}
	if uint64(n)*uint64(replRecSize(0)) > uint64(len(img)-c.off) {
		return 0, recs, fmt.Errorf("app: %d records cannot fit a %d-byte replication image", n, len(img))
	}
	for i := 0; i < int(n); i++ {
		rec, err := c.replRec()
		if err != nil {
			return mode, recs, err
		}
		recs = append(recs, rec)
	}
	return mode, recs, nil
}

func (c *cursor) replRec() (replRec, error) {
	s, err := c.u32()
	if err != nil {
		return replRec{}, err
	}
	key, err := c.u64()
	if err != nil {
		return replRec{}, err
	}
	epoch, err := c.u32()
	if err != nil {
		return replRec{}, err
	}
	ver, err := c.u64()
	if err != nil {
		return replRec{}, err
	}
	val, err := c.bytes()
	if err != nil {
		return replRec{}, err
	}
	return replRec{Shard: int(s), Key: key, Epoch: epoch, Ver: ver, Val: val}, nil
}
