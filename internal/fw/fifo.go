package fw

import "slices"

// fifo is a first-in first-out queue of values in one backing array. What
// waits in the firmware — a transmit behind the TX state machine, a mailbox
// command behind its FIFO slot, a handler behind the PowerPC, an armed
// go-back-n timer — waits as an entry here and holds nothing else: every
// server these queues stand for is FIFO, so one continuation bound per owner
// takes the head entry when it fires, and no carrier or closure is built per
// entry. A drained queue rewinds, so the array is reused; one that never
// drains reuses its consumed front before it grows.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// first returns the head entry; at returns the i-th from the head, in place.
func (q *fifo[T]) first() T    { return q.buf[q.head] }
func (q *fifo[T]) at(i int) *T { return &q.buf[q.head+i] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// insert places vs before the i-th entry from the head, keeping order.
func (q *fifo[T]) insert(i int, vs ...T) {
	q.buf = slices.Insert(q.buf, q.head+i, vs...)
}
