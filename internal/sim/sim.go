package sim

import (
	"fmt"
	"math/rand"
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

// Sim is a discrete-event simulator: a virtual clock and a two-lane event
// queue. It is not safe for concurrent use; all model code runs on the
// simulator's goroutine (coroutine processes hand control back and forth,
// never run in parallel).
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
type Sim struct {
	now     Time
	heap    []event // 4-ary min-heap: future events
	ring    []event // power-of-two circular buffer: events at time now
	ringHd  int
	ringLen int
	seq     uint64

	// These three share a word, which keeps the struct at 128 bytes: that
	// size class gives each Sim two cache lines of its own. The next one
	// packs a Kernel's lanes 144 bytes apart, across lines their workers
	// both write, and the 2-lane workloads measured 9-11 % slower.
	stopped     bool
	dispatching bool  // a sleeping process is running the event loop (Proc.Sleep)
	procs       int32 // live coroutine processes, for deadlock diagnostics

	rng *rand.Rand

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
}

// New returns a simulator with its clock at zero and a deterministic RNG.
func New() *Sim {
	return &Sim{rng: rand.New(rand.NewSource(0x5ea57a7))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source. Model code must
// use this generator and no other so runs stay reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// ringPush appends an event at the tail of the zero-delay lane.
func (s *Sim) ringPush(ev event) {
	if s.ringLen == len(s.ring) {
		s.ringGrow()
	}
	s.ring[(s.ringHd+s.ringLen)&(len(s.ring)-1)] = ev
	s.ringLen++
}

// ringGrow doubles the ring, unwrapping it to the front of the new buffer.
func (s *Sim) ringGrow() {
	n := len(s.ring) * 2
	if n == 0 {
		n = 16
	}
	buf := make([]event, n)
	for i := 0; i < s.ringLen; i++ {
		buf[i] = s.ring[(s.ringHd+i)&(len(s.ring)-1)]
	}
	s.ring = buf
	s.ringHd = 0
}

// ringPop removes and returns the head of the zero-delay lane. The slot is
// cleared so the closure is released; the storage stays pooled in the ring.
func (s *Sim) ringPop() event {
	ev := s.ring[s.ringHd]
	s.ring[s.ringHd] = event{}
	s.ringHd = (s.ringHd + 1) & (len(s.ring) - 1)
	s.ringLen--
	return ev
}

// heapPush inserts ev into the 4-ary min-heap.
func (s *Sim) heapPush(ev event) {
	h := append(s.heap, ev)
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
	s.heap = h
}

// heapPop removes and returns the minimum event. The vacated tail slot is
// cleared (releasing its closure) and its storage reused by later pushes.
func (s *Sim) heapPop() event {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	s.heap = h
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

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	ev := event{at: t, seq: s.seq, fn: fn}
	if t == s.now {
		s.ringPush(ev)
		return
	}
	s.heapPush(ev)
}

// After schedules fn to run d from now. A non-positive d runs fn on the next
// dispatch at the current time (still after all work already queued for now).
func (s *Sim) After(d Time, fn func()) {
	s.seq++
	if d <= 0 {
		s.ringPush(event{at: s.now, seq: s.seq, fn: fn})
		return
	}
	s.heapPush(event{at: s.now + d, seq: s.seq, fn: fn})
}

// Stop makes Run return after the currently executing event.
func (s *Sim) Stop() { s.stopped = true }

// pop removes the next event in dispatch order from a non-empty queue — the
// one place the ring head is weighed against the heap head — advances the
// clock to it and counts it. The run loop and a sleeping process dispatching
// in place (Proc.Sleep) both take their events here.
func (s *Sim) pop() event {
	var ev event
	if s.ringLen > 0 {
		// Ring entries are all at time now. A heap entry at the same time
		// with a smaller sequence was scheduled before the clock reached
		// now and must run first.
		if len(s.heap) > 0 && s.heap[0].at == s.now && s.heap[0].seq < s.ring[s.ringHd].seq {
			ev = s.heapPop()
		} else {
			ev = s.ringPop()
		}
	} else {
		ev = s.heapPop()
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

// Run executes events until the queue is empty or Stop is called.
// If coroutine processes are still alive when the queue drains, they are
// deadlocked (waiting on a signal nobody will raise); Run panics with a
// diagnostic rather than silently returning.
func (s *Sim) Run() {
	s.stopped = false
	s.limit = Never
	for !s.stopped && s.Pending() > 0 {
		s.pop().fn()
	}
	if !s.stopped && s.procs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) still blocked with no pending events at %v", s.procs, s.now))
	}
}

// nextAt reports the timestamp of the next event to dispatch, if any.
func (s *Sim) nextAt() (Time, bool) {
	if s.ringLen > 0 {
		return s.now, true
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

// Pending reports how many events are queued across both lanes.
func (s *Sim) Pending() int { return len(s.heap) + s.ringLen }
