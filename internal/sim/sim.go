package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// event is one scheduled callback. Events are stored inline (by value) in
// the kernel's queues: pushing one costs no heap allocation and popping one
// touches no pointer indirection. The queue backing arrays are the free
// list — popped slots are cleared and their storage reused by later pushes.
type event struct {
	at  Time
	seq uint64 // insertion order, breaks ties deterministically
	fn  func()
}

// less is the global dispatch order: time first, insertion order second.
func (e event) less(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Sim is a discrete-event simulator: a virtual clock and an event queue. It is
// not safe for concurrent use; all model code runs on the simulator's
// goroutine (coroutine processes hand control back and forth, never run in
// parallel).
//
// The queue has two lanes:
//
//   - a hand-rolled 4-ary min-heap of inline event records, keyed on
//     (time, insertion order), for events in the future, and
//   - a FIFO ring holding events scheduled for the current instant — the
//     zero-delay lane. After(0) and At(now) are the common case in the
//     firmware and fabric models (handler chaining, credit grants, posted
//     writes), and appending to a ring is much cheaper than a heap sift.
//
// The two lanes together dispatch in exactly the (time, insertion order)
// sequence a single heap would: ring entries all carry the current time, so
// the ring drains before the clock may advance, and a ring head only runs
// once no heap entry at the same time with a smaller sequence remains.
//
// A queue that has once run deep (deepAt) files future events in a third
// place, the wheel, and sorts them only when they fall due; the dispatch order
// is the same.
type Sim struct {
	now     Time
	heap    eventHeap // future events (all of them, until the queue builds its wheel)
	ring    []event   // power-of-two circular buffer: events at time now
	ringHd  uint32
	ringLen uint32
	seq     uint64

	// These four share a word and the ring's two indices another, which keeps
	// the struct at no more than 128 bytes, inside the size class that gives
	// each Sim two cache lines of its own. The next one packs a Kernel's lanes
	// 144 bytes apart, across lines their workers both write, and the 2-lane
	// workloads measured 9-11 % slower.
	stopped     bool
	dispatching bool  // a sleeping process is running the event loop (Proc.Sleep)
	whole       bool  // the running process's activation is an event of its own (Proc.wake)
	procs       int32 // live coroutine processes, for deadlock diagnostics

	// Fired counts events executed, for diagnostics and runaway detection.
	Fired uint64
	// MaxEvents aborts the run (panic) when exceeded; 0 means no limit.
	MaxEvents uint64

	// limit is the last instant the current Run/RunUntil may reach, which
	// bounds what a sleeping process may dispatch in place (Proc.Sleep).
	limit Time
	// Parks counts the times a process left the CPU: a Signal wait, a Sleep
	// that could not stay on it. Host-side — it depends on who dispatched,
	// not on what ran — so it never enters a simulated result.
	Parks uint64

	// far is nil until the heap first holds deepAt events.
	far *wheel
	// sleeps is nil until CountSleeps.
	sleeps *SleepCounts
}

// New returns a simulator with its clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// ringPush appends an event at the tail of the zero-delay lane.
func (s *Sim) ringPush(ev event) {
	if int(s.ringLen) == len(s.ring) {
		s.ringGrow()
	}
	s.ring[(s.ringHd+s.ringLen)&uint32(len(s.ring)-1)] = ev
	s.ringLen++
}

// ringGrow doubles the ring, unwrapping it to the front of the new buffer.
func (s *Sim) ringGrow() {
	n := len(s.ring) * 2
	if n == 0 {
		n = 16
	}
	buf := make([]event, n)
	for i := uint32(0); i < s.ringLen; i++ {
		buf[i] = s.ring[(s.ringHd+i)&uint32(len(s.ring)-1)]
	}
	s.ring = buf
	s.ringHd = 0
}

// ringPop removes and returns the head of the zero-delay lane. The slot is
// cleared so the closure is released; the storage stays pooled in the ring.
func (s *Sim) ringPop() event {
	ev := s.ring[s.ringHd]
	s.ring[s.ringHd] = event{}
	s.ringHd = (s.ringHd + 1) & uint32(len(s.ring)-1)
	s.ringLen--
	return ev
}

// eventHeap is a 4-ary min-heap of inline event records in dispatch order.
type eventHeap []event

// push inserts ev.
func (hp *eventHeap) push(ev event) {
	h := append(*hp, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*hp = h
}

// pop removes and returns the minimum event. The vacated tail slot is
// cleared (releasing its closure) and its storage reused by later pushes.
func (hp *eventHeap) pop() event {
	h := *hp
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	*hp = h
	if n == 0 {
		return top
	}
	// Sift last down from the root. With 4 children per node the tree is
	// half as deep as a binary heap, and the whole hot prefix stays in a
	// couple of cache lines.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if h[j].less(h[min]) {
				min = j
			}
		}
		if !h[min].less(last) {
			break
		}
		h[i] = h[min]
		i = min
	}
	h[i] = last
	return top
}

// The wheel's shape. Width and span come from what a 512-node lane schedules
// (DESIGN.md §7): every delta between 65 ns and 2.1 µs, timers apart.
const (
	deepAt      = 64 // heap depth at which a Sim builds its wheel; a 2-node machine's queue never gets there
	bucketShift = 12 // a bucket is 4.096 ns wide
	bucketWidth = Time(1) << bucketShift
	wheelSize   = 1 << 10 // buckets, so the wheel spans 4.19 µs
	wheelSpan   = wheelSize * bucketWidth
	slabSize    = 256 // list nodes allocated at a time
)

// farNode is one filed event. A bucket is a list of them, newest first.
type farNode struct {
	ev   event
	next *farNode
}

// wheel is where a deep queue keeps events that are not due yet. A heap
// orders every event against its neighbours the moment it is queued and again
// when it leaves; on a big machine the queue stands a thousand events deep and
// almost all of that order is never used, because events come due in bursts
// that share one instant and whose order is simply the order they were queued
// in. So an event further ahead than the current bucket is appended, unsorted,
// to the bucket of its instant — O(1), whatever the depth — and a bucket is
// sorted once, when the clock is about to enter it: it becomes the run, from
// whose tail pop takes events. The heap keeps what the wheel cannot file:
// events beyond its span (a retransmission timer) and events that land in or
// before the current bucket.
type wheel struct {
	run  []event  // the current bucket in descending dispatch order
	edge Time     // a bucket boundary: the run lies before it, the buckets hold [edge, edge+wheelSpan)
	n    int      // events in the buckets
	free *farNode // spare nodes: the slabs are the only allocations, and they are never returned
	used [wheelSize / 64]uint64
	head [wheelSize]*farNode
}

// put files ev under its instant. It reports false for an instant the buckets
// do not cover.
func (w *wheel) put(ev event, now Time) bool {
	if w.n == 0 && len(w.run) == 0 {
		w.edge = now &^ (bucketWidth - 1) // nothing filed: the span starts at the clock
	}
	if uint64(ev.at-w.edge) >= uint64(wheelSpan) {
		return false
	}
	nd := w.free
	if nd == nil {
		slab := make([]farNode, slabSize)
		for i := range slab[1:] {
			slab[i].next = &slab[i+1]
		}
		nd = &slab[0]
	}
	w.free = nd.next
	i := int(ev.at>>bucketShift) & (wheelSize - 1)
	nd.ev, nd.next = ev, w.head[i]
	w.head[i] = nd
	w.used[i>>6] |= 1 << (i & 63)
	w.n++
	return true
}

// refill makes the first bucket in use the run. Events that share an instant
// were filed in dispatch order, so a bucket's list usually is the run already;
// it is sorted only when it is not.
func (w *wheel) refill() {
	i := int(w.edge>>bucketShift) & (wheelSize - 1)
	from := i
	if rest := w.used[i>>6] >> (i & 63); rest != 0 {
		i += bits.TrailingZeros64(rest)
	} else {
		j := i >> 6
		for {
			j = (j + 1) & (len(w.used) - 1)
			if w.used[j] != 0 {
				break
			}
		}
		i = j<<6 + bits.TrailingZeros64(w.used[j])
	}
	w.used[i>>6] &^= 1 << (i & 63)
	w.edge += Time((i-from)&(wheelSize-1)+1) << bucketShift

	run, sorted := w.run, true
	first := w.head[i]
	w.head[i] = nil
	for nd := first; ; nd = nd.next {
		if k := len(run); k > 0 && run[k-1].less(nd.ev) {
			sorted = false
		}
		run = append(run, nd.ev)
		nd.ev.fn = nil
		if nd.next == nil {
			nd.next, w.free = w.free, first
			break
		}
	}
	w.n -= len(run)
	if !sorted {
		slices.SortFunc(run, func(a, b event) int {
			if a.less(b) {
				return 1
			}
			return -1
		})
	}
	w.run = run
}

// timed brings the run up to date and returns the next event in dispatch
// order outside the ring, which is the run's tail (inRun) or the heap's head;
// nil when there is none.
func (w *wheel) timed(h eventHeap) (next *event, inRun bool) {
	if len(w.run) == 0 && w.n > 0 {
		w.refill()
	}
	r := len(w.run) - 1
	switch {
	case r >= 0 && (len(h) == 0 || w.run[r].less(h[0])):
		return &w.run[r], true
	case len(h) > 0:
		return &h[0], false
	}
	return nil, false
}

// pop is Sim.pop for a queue with a wheel.
func (w *wheel) pop(s *Sim) event {
	next, inRun := w.timed(s.heap)
	if s.ringLen > 0 && (next == nil || next.at != s.now || next.seq > s.ring[s.ringHd].seq) {
		return s.ringPop()
	}
	var ev event
	if inRun {
		ev = *next
		next.fn = nil
		w.run = w.run[:len(w.run)-1]
	} else {
		ev = s.heap.pop()
	}
	if ev.at < s.now {
		panic("sim: time went backwards")
	}
	s.now = ev.at
	return ev
}

// file queues a future event on a deep queue: in the wheel — built at the
// first call — when the instant lies within its span, else in the heap.
func (s *Sim) file(ev event) {
	if s.far == nil {
		s.far = &wheel{}
		old := s.heap
		s.heap = old[:0]
		for i, queued := range old { // the heap regrows behind the read position
			old[i] = event{}
			s.file(queued)
		}
	}
	if !s.far.put(ev, s.now) {
		s.heap.push(ev)
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	ev := event{at: t, seq: s.seq, fn: fn}
	switch {
	case t == s.now:
		s.ringPush(ev)
	case s.far != nil || len(s.heap) >= deepAt:
		s.file(ev)
	default:
		s.heap.push(ev)
	}
}

// After schedules fn to run d from now. A non-positive d runs fn on the next
// dispatch at the current time (still after all work already queued for now).
func (s *Sim) After(d Time, fn func()) {
	s.seq++
	ev := event{at: s.now + max(d, 0), seq: s.seq, fn: fn}
	switch {
	case d <= 0:
		s.ringPush(ev)
	case s.far != nil || len(s.heap) >= deepAt:
		s.file(ev)
	default:
		s.heap.push(ev)
	}
}

// Stop makes Run return after the currently executing event.
func (s *Sim) Stop() { s.stopped = true }

// pop removes the next event in dispatch order from a non-empty queue — the
// one place the ring head is weighed against the timed events — advances the
// clock to it and counts it. The run loop and a sleeping process dispatching
// in place (Proc.Sleep) both take their events here.
func (s *Sim) pop() event {
	var ev event
	if s.far != nil {
		ev = s.far.pop(s)
	} else if s.ringLen > 0 {
		// Ring entries are all at time now. A heap entry at the same time
		// with a smaller sequence was scheduled before the clock reached
		// now and must run first.
		if len(s.heap) > 0 && s.heap[0].at == s.now && s.heap[0].seq < s.ring[s.ringHd].seq {
			ev = s.heap.pop()
		} else {
			ev = s.ringPop()
		}
	} else {
		ev = s.heap.pop()
		if ev.at < s.now {
			panic("sim: time went backwards")
		}
		s.now = ev.at
	}
	s.Fired++
	if s.MaxEvents != 0 && s.Fired > s.MaxEvents {
		panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at %v", s.MaxEvents, s.now))
	}
	return ev
}

// Deadlock is what Run panics with when coroutine processes are still
// blocked at quiescence: its text is the diagnostic, and its type lets a
// caller that knows why they are blocked tell it from any other panic.
type Deadlock string

func (d Deadlock) Error() string { return string(d) }

// Run executes events until the queue is empty or Stop is called.
// If coroutine processes are still alive when the queue drains, they are
// deadlocked (waiting on a signal nobody will raise); Run panics with a
// Deadlock rather than silently returning.
func (s *Sim) Run() {
	s.stopped = false
	s.limit = Never
	for !s.stopped && s.Pending() > 0 {
		s.pop().fn()
	}
	if !s.stopped && s.procs > 0 {
		panic(Deadlock(fmt.Sprintf("sim: deadlock: %d process(es) still blocked with no pending events at %v", s.procs, s.now)))
	}
}

// nextAt reports the timestamp of the next event to dispatch, if any.
func (s *Sim) nextAt() (Time, bool) {
	if s.ringLen > 0 {
		return s.now, true
	}
	if s.far != nil {
		if next, _ := s.far.timed(s.heap); next != nil {
			return next.at, true
		}
		return 0, false
	}
	if len(s.heap) > 0 {
		return s.heap[0].at, true
	}
	return 0, false
}

// RunUntil executes events with timestamps ≤ t, then sets the clock to t.
// Processes blocked past the horizon are left blocked; this is not a
// deadlock.
func (s *Sim) RunUntil(t Time) {
	s.stopped = false
	s.limit = t
	for !s.stopped {
		at, ok := s.nextAt()
		if !ok || at > t {
			break
		}
		s.pop().fn()
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// Pending reports how many events are queued.
func (s *Sim) Pending() int {
	n := len(s.heap) + int(s.ringLen)
	if w := s.far; w != nil {
		n += w.n + len(w.run)
	}
	return n
}
