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
// on the pending stamps, and the engine's 4-ary heap must hold its invariants.

// queueDeltas is the delay palette: mostly tiny deltas so events collide on
// the same instant and seq decides, plus zero for the current-instant FIFO.
var queueDeltas = [8]time.Duration{0, 0, 1, 2, 3, 5, 8, 1000}

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

// pendingStamps walks the engine's whole pending set, the heap and the
// live entries of the current-instant FIFO, in firing order.
func pendingStamps(e *Engine) []stamp {
	out := make([]stamp, 0, len(e.queue)+e.nowLive)
	for _, h := range e.queue {
		out = append(out, stamp{h.at, h.seq})
	}
	for _, ev := range e.nowQ[e.nowHead:] {
		if ev.index == indexNowQ {
			out = append(out, stamp{ev.at, ev.seq})
		}
	}
	return sortStamps(out)
}

// checkHeap verifies the 4-ary heap property and that every slot's event
// points back at its slot and carries the slot's key.
func checkHeap(e *Engine) error {
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
			return action{kind: 1, delta: queueDeltas[b/4%8]}
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
		d := queueDeltas[b/8%8]
		what := ""
		switch b % 8 {
		case 0: // Post
			label++
			act := decodeAct()
			e.Post(d, callback(label, act))
			m.post(m.now.Add(d), label, act)
			what = fmt.Sprintf("Post(%d)", d)
		case 1, 2: // Schedule or At: a cancellable timer
			label++
			act := decodeAct()
			fn := callback(label, act)
			var tm *Timer
			if b%8 == 1 {
				tm = e.Schedule(d, fn)
				what = fmt.Sprintf("Schedule(%d)", d)
			} else {
				tm = e.At(e.Now().Add(d), fn)
				what = fmt.Sprintf("At(+%d)", d)
			}
			timers = append(timers, tm)
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
	if err := checkHeap(e); err != nil {
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
