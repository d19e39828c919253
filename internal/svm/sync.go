package svm

import "fmt"

// Synchronization: locks and barriers through a manager node, carrying the
// release-consistency coherence actions. A release (unlock, barrier entry)
// first fences this node's automatic updates into the home copies, then
// reports its dirty-page set to the manager; an acquire (lock grant,
// barrier exit) returns the accumulated write notices from everyone else's
// releases, which invalidate the acquirer's stale copies. The manager never
// touches page data — AU hardware moved it already — so lock traffic stays
// a few words regardless of how much was written.

// Lock is a distributed mutex over the region's manager.
type Lock struct {
	r  *Region
	id int
}

// Lock returns the handle for lock id (any small integer; locks spring
// into existence on first use).
func (r *Region) Lock(id int) *Lock { return &Lock{r: r, id: id} }

// Acquire blocks until the lock is granted, then applies the write notices
// accumulated since this node's previous acquire.
func (l *Lock) Acquire() {
	r := l.r
	sp := r.tc.Begin(r.track, "lock.acquire")
	var notices []int
	if r.me == mgrNode {
		notices = r.localOp(opLockAcq, l.id, nil)
	} else {
		notices = r.request(mgrNode, opLockAcq, l.id, nil, true)
	}
	r.invalidate(notices)
	r.Stats.LockAcquires++
	r.tc.Count(r.track, "lock.acquire", 1)
	sp.End()
}

// Release flushes this node's writes to their homes, hands the dirty set
// to the manager as write notices, and releases the lock.
func (l *Lock) Release() {
	r := l.r
	sp := r.tc.Begin(r.track, "lock.release")
	dirty := r.sortedDirty()
	r.flushDirty(dirty)
	if r.me == mgrNode {
		r.localOp(opLockRel, l.id, dirty)
	} else {
		r.request(mgrNode, opLockRel, l.id, dirty, true)
	}
	r.downgradeDirty(dirty)
	r.Stats.LockReleases++
	r.tc.Count(r.track, "lock.release", 1)
	sp.End()
}

// Barrier is a full release-acquire fence across all participants: every
// node's writes are flushed and reported, and every node leaves with the
// union of everyone else's notices applied.
func (r *Region) Barrier() {
	sp := r.tc.Begin(r.track, "barrier")
	dirty := r.sortedDirty()
	r.flushDirty(dirty)
	var notices []int
	if r.me == mgrNode {
		notices = r.localOp(opBarrier, 0, dirty)
	} else {
		notices = r.request(mgrNode, opBarrier, 0, dirty, true)
	}
	r.downgradeDirty(dirty)
	r.invalidate(notices)
	r.Stats.Barriers++
	r.tc.Count(r.track, "barrier", 1)
	sp.End()
}

// localOp submits the manager node's own operation directly to the manager
// state. If the operation cannot complete immediately (lock held, barrier
// not full), the process parks on its own reply slot; a later service
// handler — running nested in this same process when the unblocking remote
// request arrives — writes the local grant.
func (r *Region) localOp(op, arg int, pages []int) []int {
	r.seq++
	w := waiter{node: r.me, seq: r.seq}
	if done, notices := r.mgrSt.submit(r, w, op, arg, pages); done {
		return notices
	}
	return r.waitReply(r.seq)
}

// waiter is one parked operation awaiting a manager grant.
type waiter struct {
	node int
	seq  uint32
}

type lockState struct {
	holder int // -1 when free
	queue  []waiter
}

// manager is the per-region coherence manager, living on the manager node
// and mutated only from that node's process context (app calls and nested
// service handlers — never concurrently, the simulation is single-core).
type manager struct {
	locks map[int]*lockState
	// pending[m][g] marks page g for invalidation at node m's next
	// acquire: the union of every other node's releases since m's last
	// acquire. Dense bool arrays, scanned in index order — notice lists
	// come out sorted with no map iteration anywhere near the protocol.
	pending [][]bool
	// Barrier bookkeeping for the current episode.
	arrived []waiter
}

func newManager(n, pages int) *manager {
	m := &manager{locks: make(map[int]*lockState), pending: make([][]bool, n)}
	for i := range m.pending {
		m.pending[i] = make([]bool, pages)
	}
	return m
}

// addNotices records node src's released dirty pages against every other
// node.
func (m *manager) addNotices(src int, pages []int) {
	for node, set := range m.pending {
		if node == src {
			continue
		}
		for _, g := range pages {
			set[g] = true
		}
	}
}

// takeNotices removes and returns node m's pending notices, in page order.
func (mg *manager) takeNotices(node int) []int {
	var out []int
	for g, on := range mg.pending[node] {
		if on {
			out = append(out, g)
			mg.pending[node][g] = false
		}
	}
	return out
}

// submit processes one operation. For the manager's own operations
// (w.node == the local node) it reports (true, notices) when the operation
// completed inline; every deferred or remote completion goes through
// Region.reply. All state mutation happens before any reply is sent, so
// nested handler invocations during the (blocking) reply sends observe
// consistent state.
func (m *manager) submit(r *Region, w waiter, op, arg int, pages []int) (bool, []int) {
	switch op {
	case opLockAcq:
		ls := m.locks[arg]
		if ls == nil {
			ls = &lockState{holder: -1}
			m.locks[arg] = ls
		}
		if ls.holder < 0 {
			ls.holder = w.node
			notices := m.takeNotices(w.node)
			if w.node == r.me {
				return true, notices
			}
			r.reply(w.node, w.seq, notices)
			return false, nil
		}
		ls.queue = append(ls.queue, w)
		return false, nil

	case opLockRel:
		ls := m.locks[arg]
		if ls == nil || ls.holder != w.node {
			panic(fmt.Sprintf("svm: %s node %d releases lock %d it does not hold", r.Name, w.node, arg)) //lint:allow transitive-panic lock protocol violation is an application bug
		}
		m.addNotices(w.node, pages)
		var next *waiter
		if len(ls.queue) > 0 {
			nw := ls.queue[0]
			ls.queue = ls.queue[1:]
			ls.holder = nw.node
			next = &nw
		} else {
			ls.holder = -1
		}
		// Grant before acking: the new holder's critical section and the
		// releaser's continuation can overlap.
		if next != nil {
			r.reply(next.node, next.seq, m.takeNotices(next.node))
		}
		if w.node == r.me {
			return true, nil
		}
		r.reply(w.node, w.seq, nil)
		return false, nil

	case opBarrier:
		m.addNotices(w.node, pages)
		m.arrived = append(m.arrived, w)
		if len(m.arrived) < r.n {
			return false, nil
		}
		// Everyone is here. Capture each node's notices and reset the
		// episode before the (blocking) replies go out, so early leavers
		// hitting the next barrier reuse clean state.
		order := m.arrived
		m.arrived = nil
		notices := make([][]int, len(order))
		for i, aw := range order {
			notices[i] = m.takeNotices(aw.node)
		}
		var localNotices []int
		localDone := false
		for i, aw := range order {
			if aw.node == r.me && aw.seq == w.seq && w.node == r.me {
				localNotices = notices[i]
				localDone = true
				continue
			}
			r.reply(aw.node, aw.seq, notices[i])
		}
		return localDone, localNotices
	}
	panic(fmt.Sprintf("svm: manager got op %d", op)) //lint:allow transitive-panic unreachable: onRequest dispatches only manager ops here
}
