package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The event queue against a reference model. A byte string decodes into a
// sequence of scheduling, cancellation, and run operations that drive a real
// engine and, in lockstep, a model that keeps its pending events in a plain
// slice and always fires the minimum (at, seq). After every operation the
// two must agree on what fired and in which order, on the queue length, and
// on the pending stamps, and the engine's 4-ary heap and timing wheel must
// hold their invariants.

// queueDeltas is the delay palette. Half of it is tiny deltas, so events
// collide on the same instant and seq decides, plus zero for the
// current-instant FIFO. The other half straddles the wheel's bucket width
// and its span, so events land on both sides of each boundary, and 4 ms
// (a CallTimeout deadline) goes to the heap; a Run limit of up to four
// deltas then jumps more than one lap of the wheel.
var queueDeltas = [16]time.Duration{
	0, 0, 1, 2, 3, 5, 8, 1000,
	1, 511, 512, 513,
	time.Duration(wheelSpan - 1), time.Duration(wheelSpan), time.Duration(wheelSpan + 1), 4 * time.Millisecond,
}

// modelEvent is one pending event in the reference model.
type modelEvent struct {
	at    Time
	seq   uint64
	label int
	// act is what firing does: post a child, stop a timer, or nothing.
	act action
}

// action is an event's side effect when it fires, decoded once so the
// engine callback and the model do the same thing.
type action struct {
	kind  byte // 0 none, 1 post a child after delta, 2 stop timer
	delta time.Duration
	timer int
}

// queueModel mirrors the engine's scheduling semantics with a sorted slice.
type queueModel struct {
	now     Time
	seq     uint64
	pending []modelEvent
	// timers maps each Timer handle to the seq of its pending event, or 0
	// when the handle has nothing pending.
	timers []uint64
	// timerEvs remembers each timer's label and action for Reset.
	timerEvs []modelEvent
	fired    []int
	labels   int
}

func (m *queueModel) post(at Time, label int, act action) uint64 {
	m.seq++
	m.pending = append(m.pending, modelEvent{at: at, seq: m.seq, label: label, act: act})
	return m.seq
}

// earliest returns the index of the minimum (at, seq) pending event.
func (m *queueModel) earliest() int {
	best := -1
	for i, ev := range m.pending {
		if best < 0 || ev.at < m.pending[best].at ||
			(ev.at == m.pending[best].at && ev.seq < m.pending[best].seq) {
			best = i
		}
	}
	return best
}

func (m *queueModel) stop(k int) bool {
	seq := m.timers[k]
	if seq == 0 {
		return false
	}
	m.timers[k] = 0
	for i, ev := range m.pending {
		if ev.seq == seq {
			m.pending = slices.Delete(m.pending, i, i+1)
			return true
		}
	}
	panic("model: timer seq not pending")
}

func (m *queueModel) fire(i int) {
	ev := m.pending[i]
	m.pending = slices.Delete(m.pending, i, i+1)
	m.now = ev.at
	for k, seq := range m.timers {
		if seq == ev.seq {
			m.timers[k] = 0
		}
	}
	m.fired = append(m.fired, ev.label)
	switch ev.act.kind {
	case 1:
		m.labels++
		m.post(m.now.Add(ev.act.delta), m.labels, action{})
	case 2:
		m.stop(ev.act.timer)
	}
}

// run fires events up to limit (limit <= 0: no limit), as Engine.Run.
func (m *queueModel) run(limit Time) {
	for {
		i := m.earliest()
		if i < 0 {
			return
		}
		if limit > 0 && m.pending[i].at > limit {
			m.now = limit
			return
		}
		m.fire(i)
	}
}

// stamp is one pending event's (at, seq) schedule position.
type stamp struct {
	at  Time
	seq uint64
}

func sortStamps(out []stamp) []stamp {
	slices.SortFunc(out, func(a, b stamp) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	return out
}

func (m *queueModel) stamps() []stamp {
	out := make([]stamp, 0, len(m.pending))
	for _, ev := range m.pending {
		out = append(out, stamp{ev.at, ev.seq})
	}
	return sortStamps(out)
}

// pendingStamps walks the engine's whole pending set, the heap, the wheel
// and the live entries of the current-instant FIFO, in firing order.
func pendingStamps(e *Engine) []stamp {
	out := make([]stamp, 0, e.QueueLen())
	for _, h := range e.queue {
		out = append(out, stamp{h.at, h.seq})
	}
	for _, bk := range e.wheel {
		for ev := bk.head; ev != nil; ev = ev.next {
			out = append(out, stamp{ev.at, ev.seq})
		}
	}
	for _, ev := range e.nowQ[e.nowHead:] {
		if ev.index == indexNowQ {
			out = append(out, stamp{ev.at, ev.seq})
		}
	}
	return sortStamps(out)
}

// checkQueue verifies the 4-ary heap property and that every slot's event
// points back at its slot and carries the slot's key, and the wheel's
// invariants: every wheel event is tagged indexWheel, sits in the bucket of
// its time within one lap of now's bucket, and follows its predecessor in
// (at, seq) order, and each bucket's tail is its last event; the bitmap marks exactly the non-empty buckets; wheelLen
// counts the events; and the cache names the earliest one.
func checkQueue(e *Engine) error {
	if err := checkWheel(e); err != nil {
		return err
	}
	for i := range e.queue {
		h := &e.queue[i]
		if h.ev.index != i {
			return fmt.Errorf("slot %d: event index %d", i, h.ev.index)
		}
		if h.ev.at != h.at || h.ev.seq != h.seq {
			return fmt.Errorf("slot %d: key (%d,%d) but event (%d,%d)", i, h.at, h.seq, h.ev.at, h.ev.seq)
		}
		if i > 0 && h.before(&e.queue[(i-1)/4]) {
			return fmt.Errorf("slot %d fires before its parent %d", i, (i-1)/4)
		}
	}
	return nil
}

func checkWheel(e *Engine) error {
	n, minAt := 0, maxTime
	base := e.now &^ (1<<wheelShift - 1)
	for b := 0; b < wheelBuckets; b++ {
		head, tail := e.wheel[b].head, e.wheel[b].tail
		if bit := e.wheelBits[b>>6]>>(b&63)&1 == 1; bit != (head != nil) {
			return fmt.Errorf("bucket %d: bit %v but head %v", b, bit, head != nil)
		}
		var last *event
		for ev, prev := head, (*event)(nil); ev != nil; prev, ev = ev, ev.next {
			n++
			if ev.index != indexWheel {
				return fmt.Errorf("bucket %d: event (%d,%d) index %d", b, ev.at, ev.seq, ev.index)
			}
			if got := int(ev.at>>wheelShift) & wheelMask; got != b {
				return fmt.Errorf("bucket %d holds event at %d, whose bucket is %d", b, ev.at, got)
			}
			if ev.at < e.now || ev.at-base >= wheelSpan {
				return fmt.Errorf("bucket %d: event at %d not within one lap of now %d", b, ev.at, e.now)
			}
			if prev != nil && !(prev.at < ev.at || prev.at == ev.at && prev.seq < ev.seq) {
				return fmt.Errorf("bucket %d: (%d,%d) after (%d,%d)", b, ev.at, ev.seq, prev.at, prev.seq)
			}
			minAt = min(minAt, ev.at)
			last = ev
		}
		if last != tail {
			return fmt.Errorf("bucket %d: the tail is not its last event", b)
		}
	}
	if n != e.wheelLen {
		return fmt.Errorf("wheel holds %d events, wheelLen %d", n, e.wheelLen)
	}
	if e.wheelMin != minAt {
		return fmt.Errorf("cached wheel minimum %d, true minimum %d", e.wheelMin, minAt)
	}
	if n > 0 && (e.wheel[e.wheelBkt].head == nil || e.wheel[e.wheelBkt].head.at != minAt) {
		return fmt.Errorf("cached bucket %d does not start with the minimum %d", e.wheelBkt, minAt)
	}
	return nil
}

// runQueueOps decodes ops into operations, applies them to an engine and
// the model, and reports the first disagreement.
func runQueueOps(ops []byte) error {
	e := NewEngine()
	m := &queueModel{}
	var fired []int
	var timers []*Timer
	pos := 0
	next := func() byte {
		if pos >= len(ops) {
			return 0
		}
		b := ops[pos]
		pos++
		return b
	}
	// callback builds the engine side of a labelled event with its action.
	// Child labels count up from 1 on both sides; they match as long as
	// children are created in the same (firing) order.
	children := 0
	var callback func(label int, act action) func()
	callback = func(label int, act action) func() {
		return func() {
			fired = append(fired, label)
			switch act.kind {
			case 1:
				children++
				e.Post(act.delta, callback(children, action{}))
			case 2:
				timers[act.timer].Stop()
			}
		}
	}
	decodeAct := func() action {
		b := next()
		switch b % 4 {
		case 1:
			return action{kind: 1, delta: queueDeltas[b/4%16]}
		case 2:
			if len(timers) > 0 {
				return action{kind: 2, timer: int(b/4) % len(timers)}
			}
		}
		return action{}
	}
	label := 1 << 20 // top-level labels, disjoint from child labels
	for op := 0; pos < len(ops); op++ {
		b := next()
		d := queueDeltas[b/8%16]
		what := ""
		switch b % 8 {
		case 0: // Post
			label++
			act := decodeAct()
			e.Post(d, callback(label, act))
			m.post(m.now.Add(d), label, act)
			what = fmt.Sprintf("Post(%d)", d)
		case 1, 2: // Schedule: a cancellable timer
			label++
			act := decodeAct()
			timers = append(timers, e.Schedule(d, callback(label, act)))
			what = fmt.Sprintf("Schedule(%d)", d)
			seq := m.post(m.now.Add(d), label, act)
			m.timers = append(m.timers, seq)
			m.timerEvs = append(m.timerEvs, modelEvent{label: label, act: act})
		case 3: // Stop a live or spent timer
			if len(timers) == 0 {
				continue
			}
			k := int(next()) % len(timers)
			got, want := timers[k].Stop(), m.stop(k)
			if got != want {
				return fmt.Errorf("op %d Stop(timer %d) = %v, model %v", op, k, got, want)
			}
			what = fmt.Sprintf("Stop(%d)", k)
		case 4: // Reset
			if len(timers) == 0 {
				continue
			}
			k := int(next()) % len(timers)
			got, want := timers[k].Reset(d), m.stop(k)
			if got != want {
				return fmt.Errorf("op %d Reset(timer %d) = %v, model %v", op, k, got, want)
			}
			te := m.timerEvs[k]
			m.timers[k] = m.post(m.now.Add(d), te.label, te.act)
			what = fmt.Sprintf("Reset(%d, %d)", k, d)
		case 5, 6, 7: // Run to a limit
			limit := e.Now().Add(d * time.Duration(1+next()%4))
			e.Run(limit)
			m.run(limit)
			what = fmt.Sprintf("Run(%d)", limit)
		}
		if err := compareQueue(e, m, fired); err != nil {
			return fmt.Errorf("after op %d %s: %w", op, what, err)
		}
	}
	e.RunAll()
	m.run(0)
	if err := compareQueue(e, m, fired); err != nil {
		return fmt.Errorf("after final RunAll: %w", err)
	}
	return nil
}

// compareQueue checks the engine against the model after one operation.
func compareQueue(e *Engine, m *queueModel, fired []int) error {
	if err := checkQueue(e); err != nil {
		return err
	}
	if e.Now() != m.now {
		return fmt.Errorf("clock %v, model %v", e.Now(), m.now)
	}
	if !slices.Equal(fired, m.fired) {
		return fmt.Errorf("fired %v, model %v", fired, m.fired)
	}
	if got, want := e.QueueLen(), len(m.pending); got != want {
		return fmt.Errorf("QueueLen %d, model %d", got, want)
	}
	if got, want := pendingStamps(e), m.stamps(); !slices.Equal(got, want) {
		return fmt.Errorf("pending %v, model %v", got, want)
	}
	return nil
}

func TestEventQueueDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 400; i++ {
		ops := make([]byte, 1+rng.Intn(600))
		rng.Read(ops)
		if err := runQueueOps(ops); err != nil {
			t.Fatalf("case %d (ops %x): %v", i, ops, err)
		}
	}
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 8, 9, 16, 17, 5, 7})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 3, 1, 4, 2, 5, 3, 7})
	f.Add([]byte{2, 5, 2, 9, 0, 1, 3, 0, 7, 62, 5, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runQueueOps(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// storeOf names the store holding ev.
func storeOf(ev *event) string {
	switch {
	case ev.index >= 0:
		return "heap"
	case ev.index == indexWheel:
		return "wheel"
	case ev.index == indexNowQ:
		return "fifo"
	}
	return "none"
}

// Each delay lands in the store the routing rule names, a Stop or Reset
// moves a timer between the wheel and the heap, and at equal times the heap
// event, posted earlier, fires before the wheel event.
func TestEventQueueStores(t *testing.T) {
	e := NewEngine()
	var fired []string
	mark := func(name string) func() { return func() { fired = append(fired, name) } }
	e.Post(300, func() {})
	e.RunAll() // now 300, in the bucket that starts at 0
	check := func(what string) {
		t.Helper()
		if err := checkQueue(e); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{0, "fifo"},
		{1, "wheel"},
		{time.Duration(wheelSpan - 301), "wheel"}, // due at the span's last ns
		{time.Duration(wheelSpan - 300), "heap"},  // due at the span's end
		{4 * time.Millisecond, "heap"},
	} {
		tm := e.Schedule(c.d, mark(fmt.Sprint(c.d)))
		if got := storeOf(tm.ev); got != c.want {
			t.Errorf("delay %d went to the %s, want the %s", c.d, got, c.want)
		}
		check(fmt.Sprint("Schedule ", c.d))
		if !tm.Pending() || !tm.Stop() || tm.Pending() {
			t.Errorf("delay %d: Stop of a pending %s timer failed", c.d, c.want)
		}
		check(fmt.Sprint("Stop ", c.d))
	}
	if n := e.QueueLen(); n != 0 {
		t.Fatalf("QueueLen %d after stopping every timer", n)
	}

	far := e.Schedule(4*time.Millisecond, mark("far"))
	near := e.Schedule(time.Microsecond, mark("near"))
	far.Reset(2 * time.Microsecond) // heap to wheel
	near.Reset(time.Millisecond)    // wheel to heap
	if storeOf(far.ev) != "wheel" || storeOf(near.ev) != "heap" {
		t.Fatalf("after Reset: far in the %s, near in the %s", storeOf(far.ev), storeOf(near.ev))
	}
	check("Reset")

	// An event due at T goes to the heap while T is a lap away and to the
	// wheel once time nears it; both fire at T, heap first.
	at := e.Now() + 2*wheelSpan
	e.PostAt(at, mark("heap at T"))
	e.Run(at - wheelSpan/2)
	e.PostAt(at, mark("wheel at T"))
	check("tie")
	e.RunAll()
	check("RunAll")
	want := []string{"far", "heap at T", "wheel at T", "near"}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}
