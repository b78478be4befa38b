package sim

import "slices"

// The model's two containers, as the firmware it models has them: a FIFO
// for whatever waits its turn behind a serial server (a transmit on the TX
// list, a mailbox command, a handler behind the PowerPC, a credit request,
// an event behind the interrupt handler), and a free list, sized by use,
// for every carrier a layer recycles. Pushes onto a free list are plain
// appends; Pop is its one way out.

// FIFO is a first-in first-out queue of values in one backing array. Every
// server these queues stand for is FIFO, so one continuation bound per owner
// takes the head entry when it fires, and no carrier or closure is built per
// entry. A drained queue rewinds, so the array is reused; one that never
// drains reuses its consumed front before it grows. Vacated slots are
// cleared, so the queue keeps nothing it has handed out alive.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len is the number of queued entries.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// First returns the head entry; At returns the i-th from the head, in place.
func (q *FIFO[T]) First() T    { return q.buf[q.head] }
func (q *FIFO[T]) At(i int) *T { return &q.buf[q.head+i] }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the head entry.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Insert places vs before the i-th entry from the head, keeping order.
func (q *FIFO[T]) Insert(i int, vs ...T) {
	q.buf = slices.Insert(q.buf, q.head+i, vs...)
}

// Pop takes the last element off a free list, clearing the vacated slot so
// the list holds no reference to what it handed out; it returns the zero
// value (nil, for a list of pointers) when the list is empty.
func Pop[T any](list *[]T) T {
	var zero T
	k := len(*list)
	if k == 0 {
		return zero
	}
	v := (*list)[k-1]
	(*list)[k-1] = zero
	*list = (*list)[:k-1]
	return v
}
