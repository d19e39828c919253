package loadgen

import (
	"testing"

	"shrimp/internal/sim"
)

func TestRngDeterministic(t *testing.T) {
	a, b := newRng(42), newRng(42)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
	c := newRng(43)
	same := 0
	d := newRng(42)
	for i := 0; i < 1000; i++ {
		if c.next() == d.next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/1000 draws", same)
	}
}

func TestZipfShape(t *testing.T) {
	const n = 1 << 10
	z := newZipf(n, 1.07)
	for i := 1; i < len(z.cum); i++ {
		if z.cum[i] < z.cum[i-1] {
			t.Fatalf("cdf not monotone at %d", i)
		}
	}
	if got := z.cum[len(z.cum)-1]; got < 0.999999 || got > 1.000001 {
		t.Fatalf("cdf does not reach 1: %v", got)
	}
	r := newRng(7)
	var counts [n + 1]int
	for i := 0; i < 200000; i++ {
		rank := z.draw(&r)
		if rank < 1 || rank > n {
			t.Fatalf("rank %d out of [1,%d]", rank, n)
		}
		counts[rank]++
	}
	if counts[1] <= counts[n] {
		t.Fatalf("rank 1 (%d draws) not hotter than rank %d (%d draws)", counts[1], n, counts[n])
	}
	if counts[1] <= counts[2] {
		t.Fatalf("rank 1 (%d) not hotter than rank 2 (%d)", counts[1], counts[2])
	}
}

func TestQueueOrder(t *testing.T) {
	var q queue
	for i := 0; i < 10; i++ {
		q.push(gop{seq: uint32(i)})
	}
	got := q.popUpTo(4)
	if len(got) != 4 || got[0].seq != 0 || got[3].seq != 3 {
		t.Fatalf("pop 4: %v", got)
	}
	// Requeue the popped batch at the front, preserving order.
	q.pushFront(append([]gop(nil), got...))
	if q.size() != 10 {
		t.Fatalf("size after requeue = %d, want 10", q.size())
	}
	all := q.popUpTo(100)
	for i, op := range all {
		if op.seq != uint32(i) {
			t.Fatalf("order broken at %d: seq %d", i, op.seq)
		}
	}
	if q.size() != 0 {
		t.Fatalf("queue not drained: %d left", q.size())
	}
}

func TestQueueCompaction(t *testing.T) {
	var q queue
	for i := 0; i < 5000; i++ {
		q.push(gop{seq: uint32(i)})
		if i%2 == 1 {
			q.popUpTo(1)
		}
	}
	if q.head > len(q.ops) {
		t.Fatalf("head %d ran past storage %d", q.head, len(q.ops))
	}
	want := uint32(2500)
	for q.size() > 0 {
		op := q.popUpTo(1)[0]
		if op.seq != want {
			t.Fatalf("got seq %d, want %d", op.seq, want)
		}
		want++
	}
}

func TestConfigDefaultsAndTrackAcks(t *testing.T) {
	cfg := Config{}
	if err := cfg.defaults(4); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Gateways) != 4 || cfg.Sessions == 0 || cfg.Rate == 0 {
		t.Fatalf("defaults incomplete: %+v", cfg)
	}
	bad := Config{TrackAcks: true}
	if err := bad.defaults(4); err == nil {
		t.Fatal("TrackAcks with 4 gateways should be rejected")
	}
	ok := Config{TrackAcks: true, Gateways: []int{1}}
	if err := ok.defaults(4); err != nil {
		t.Fatalf("TrackAcks with one gateway rejected: %v", err)
	}
}

// TestAckHistory exercises the stale-read oracle: recordAck keeps the
// per-key history monotone even when a straggling retry of an older put
// settles after a newer one, and ackedBefore answers "what was the newest
// sequence acknowledged by time T" exactly at the step boundaries.
func TestAckHistory(t *testing.T) {
	g := &Gen{ackHist: map[uint64][]ackStep{}}
	const k = uint64(7)
	g.recordAck(k, 2, 100)
	g.recordAck(k, 5, 200)
	g.recordAck(k, 3, 300) // older put's retry acked late: max stays 5
	cases := []struct {
		at   int64
		want uint32
	}{
		{50, 0}, {100, 2}, {150, 2}, {200, 5}, {250, 5}, {300, 5}, {1000, 5},
	}
	for _, c := range cases {
		if got := g.ackedBefore(k, sim.Time(c.at)); got != c.want {
			t.Fatalf("ackedBefore(%d) = %d, want %d", c.at, got, c.want)
		}
	}
	if got := g.ackedBefore(99, 500); got != 0 {
		t.Fatalf("untouched key reported acked seq %d", got)
	}
}
