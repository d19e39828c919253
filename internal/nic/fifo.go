package nic

// fifo is a head-indexed queue. pop advances head instead of reslicing the
// front away, and a push that finds the array full slides the live entries
// down before growing it, so a queue that keeps draining and refilling
// reuses one backing array instead of walking forward through fresh ones.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(x T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, x)
}

// peek returns the head entry; the queue must be non-empty.
func (q *fifo[T]) peek() T { return q.buf[q.head] }

// pop removes and returns the head entry; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return x
}
