package sim

import "fmt"

// Label names a resource for diagnostics without building the name: a
// formatter and its two small arguments (a node and, say, a port), run only
// when somebody asks — a panic, a test. A machine has a dozen named
// resources per node and a healthy run reads none of their names, so a name
// costs its resource no string; a Label is the size of the string header it
// replaces.
type Label struct {
	Format func(a, b int32) string
	A, B   int32
}

// Named is the Label of a fixed name.
func Named(name string) Label {
	return Label{Format: func(int32, int32) string { return name }}
}

// Indexed returns the Label of format (one %d verb) over an index, to be
// given with At: declare it once per kind of resource.
func Indexed(format string) Label {
	return Label{Format: func(a, _ int32) string { return fmt.Sprintf(format, a) }}
}

// At is l with index a.
func (l Label) At(a int) Label { l.A = int32(a); return l }

func (l Label) String() string { return l.Format(l.A, l.B) }

// Server models a serial resource — something that does one piece of work
// at a time, in submission order: a network link, one direction of the
// HyperTransport bus, the single-threaded firmware CPU. Work submitted while
// the server is busy queues behind the in-flight work (the queue is implicit
// in the busyUntil horizon, which is exact for FIFO service).
type Server struct {
	s         *Sim
	label     Label
	busyUntil Time

	// Busy accumulates total occupied time, for utilization reporting.
	Busy Time
	// Jobs counts submissions.
	Jobs uint64
}

// NewServer returns a serial resource named for diagnostics.
func NewServer(s *Sim, name string) *Server { return NewServerLabel(s, Named(name)) }

// NewServerLabel is NewServer with the name formatted on demand.
func NewServerLabel(s *Sim, l Label) *Server { return &Server{s: s, label: l} }

// Name returns the server's diagnostic name.
func (sv *Server) Name() string { return sv.label.String() }

// Submit enqueues work lasting d and schedules fn (which may be nil) at its
// completion time, which is returned. Service is FIFO.
func (sv *Server) Submit(d Time, fn func()) Time {
	if d < 0 {
		d = 0
	}
	start := sv.busyUntil
	if start < sv.s.now {
		start = sv.s.now
	}
	done := start + d
	sv.busyUntil = done
	sv.Busy += d
	sv.Jobs++
	if fn != nil {
		sv.s.At(done, fn)
	}
	return done
}

// SubmitAfter is Submit for work that cannot start before time t (for
// example, a downstream pipeline stage that must wait for data to arrive).
// It returns the completion time.
func (sv *Server) SubmitAfter(t Time, d Time, fn func()) Time {
	if d < 0 {
		d = 0
	}
	start := sv.busyUntil
	if start < t {
		start = t
	}
	if start < sv.s.now {
		start = sv.s.now
	}
	done := start + d
	sv.busyUntil = done
	sv.Busy += d
	sv.Jobs++
	if fn != nil {
		sv.s.At(done, fn)
	}
	return done
}

// BusyUntil reports the completion time of the last accepted work — the
// instant the server's backlog drains (zero if never used). Unlike FreeAt
// it is not clamped to the current time, so observers closing a
// measurement window after quiescence can see when the resource actually
// went idle.
func (sv *Server) BusyUntil() Time { return sv.busyUntil }

// FreeAt reports when the server next becomes idle (now if it already is).
func (sv *Server) FreeAt() Time {
	if sv.busyUntil < sv.s.now {
		return sv.s.now
	}
	return sv.busyUntil
}

// BusyBy returns the virtual time the server has spent occupied up to time
// t: accepted work (Busy) minus the backlog still outstanding after t. FIFO
// service drains the backlog back-to-back, so the subtraction is exact
// whenever the server has been continuously busy since t, and overstates
// the outstanding backlog by at most the idle gap otherwise. Windowed
// utilization — BusyBy deltas over a sample window — therefore stays in
// [0, 1] instead of spiking when a burst is accepted at submission time.
func (sv *Server) BusyBy(t Time) Time {
	rem := sv.busyUntil - t
	if rem < 0 {
		rem = 0
	}
	b := sv.Busy - rem
	if b < 0 {
		b = 0
	}
	return b
}

// Utilization returns Busy divided by the elapsed virtual time.
func (sv *Server) Utilization() float64 {
	if sv.s.now == 0 {
		return 0
	}
	return float64(sv.Busy) / float64(sv.s.now)
}

// Credits is a counting semaphore with FIFO grant order, used for bounded
// buffers with backpressure: the SeaStar RX FIFO grants space credits to the
// incoming link, and the drain side returns them as the DMA engine moves
// data to host memory. Grants are callbacks so hardware pipeline stages
// (which are not coroutines) can block on space without a goroutine.
type Credits struct {
	s     *Sim
	label Label
	avail int64
	cap   int64
	queue FIFO[creditWaiter]

	// Waits counts grants that had to queue (a backpressure indicator).
	Waits uint64
}

type creditWaiter struct {
	n  int64
	fn func()
}

// NewCredits returns a credit pool holding capacity credits.
func NewCredits(s *Sim, name string, capacity int64) *Credits {
	return NewCreditsLabel(s, Named(name), capacity)
}

// NewCreditsLabel is NewCredits with the name formatted on demand.
func NewCreditsLabel(s *Sim, l Label, capacity int64) *Credits {
	return &Credits{s: s, label: l, avail: capacity, cap: capacity}
}

// Take requests n credits and calls fn once they are granted (immediately,
// at the current time, if available). Requests are granted strictly in FIFO
// order: a large request at the head blocks smaller ones behind it, which is
// exactly how a FIFO of DMA descriptors behaves.
func (c *Credits) Take(n int64, fn func()) {
	if n < 0 {
		panic("sim: negative credit request")
	}
	if n > c.cap {
		panic("sim: credit request exceeds capacity on " + c.label.String())
	}
	if c.queue.Len() == 0 && c.avail >= n {
		c.avail -= n
		c.s.After(0, fn)
		return
	}
	c.Waits++
	c.queue.Push(creditWaiter{n: n, fn: fn})
}

// Put returns n credits and grants queued requests that now fit.
func (c *Credits) Put(n int64) {
	if n < 0 {
		panic("sim: negative credit return")
	}
	c.avail += n
	if c.avail > c.cap {
		panic("sim: credit overflow on " + c.label.String())
	}
	for c.queue.Len() > 0 && c.avail >= c.queue.First().n {
		w := c.queue.Pop()
		c.avail -= w.n
		c.s.After(0, w.fn)
	}
}

// Available reports the free credits.
func (c *Credits) Available() int64 { return c.avail }

// Capacity reports the pool size.
func (c *Credits) Capacity() int64 { return c.cap }
