//go:build go1.23

// The build line is the file's language version, not a platform switch: iter
// needs go1.23 while go.mod stays at go 1.22 (bench/go.mod pins 1.22 and the
// two modules build together). There is no other implementation.

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a coroutine process: model code that needs a thread-like control
// flow (the NetPIPE driver, an MPI rank, the firmware bring-up sequence)
// runs as a Proc. Each Proc is a Go runtime coroutine (iter.Pull): waking it
// is next(), parking it is yield(), and both are a direct switch between the
// two stacks that never passes through the Go scheduler. Exactly one of the
// simulator loop and its processes is ever running, so execution is strictly
// sequential and deterministic.
//
// A Proc may only interact with the simulator through its own methods
// (Sleep, ...) and through Signal.Wait, called from its own body;
// calling them from anywhere else corrupts the hand-off.
type Proc struct {
	s    *Sim
	name string

	next   func() (struct{}, bool) // simulator -> process: run until you park
	yield  func(struct{}) bool     // process -> simulator: I am blocked again
	wakeFn func()                  // p.resume bound once; Sleep runs hot, a fresh method value per call is measurable
	dead   bool
	// whole: this activation began as an event of its own (resume), not
	// inside someone's callback (Raise) that still has to finish.
	whole bool
}

// Panic is what Run panics with when model code panicked off the caller's
// stack: inside a process body (a coroutine), in an event a sleeping process
// dispatched on its own stack, or on a kernel lane worker. The re-raised
// panic unwinds the simulator's stack, so the value carries what the lost
// trace would have shown.
//
// A panic is attributed once, where it first leaves the stack it happened on,
// and surfaces from Run once. An event callback (or the MaxEvents guard) that
// panics under a sleeping process's in-place dispatch names the event, never
// the process as culprit — the process only carried it; Stack shows the
// callback. On a classic Sim's own run loop it stays the raw value.
type Panic struct {
	Where string // "process <name>", "event dispatched from process <name>" or "lane <n>"
	At    Time   // virtual time of the panic
	Value any    // the original panic value
	Stack []byte // the stack that panicked
}

func (e *Panic) Error() string {
	return fmt.Sprintf("sim: %s panicked at %v: %v\n%s", e.Where, e.At, e.Value, e.Stack)
}

// wrapPanic attributes a recovered panic value; one already attributed
// (a process woken from inside another process's body) passes through.
func wrapPanic(r any, where string, at Time) *Panic {
	if e, ok := r.(*Panic); ok {
		return e
	}
	return &Panic{Where: where, At: at, Value: r, Stack: debug.Stack()}
}

// Go spawns fn as a coroutine process starting at the current virtual time.
// fn begins executing when the start event fires.
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name}
	p.wakeFn = p.resume
	s.procs++
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				panic(wrapPanic(r, "process "+name, s.now))
			}
		}()
		p.yield = yield
		fn(p)
		p.dead = true
		s.procs--
	})
	s.After(0, p.wakeFn)
	return p
}

// wake transfers control to the process and returns when the process parks
// again (by sleeping, waiting, or finishing). A panic in the process body
// comes out of here, on the waker's stack.
func (p *Proc) wake() {
	if p.dead {
		panic("sim: waking dead process " + p.name)
	}
	p.next()
}

// resume is the wake-up the event loop dispatches: the start event and every
// Sleep's wake-up.
func (p *Proc) resume() {
	p.whole = true
	p.wake()
}

// park returns control to whoever woke the process and blocks until the
// next wake.
func (p *Proc) park() {
	p.whole = false
	p.s.Parks++
	p.yield(struct{}{})
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Sim { return p.s }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Sleep advances virtual time by d for this process. Other events run in
// the meantime.
//
// The wake-up is queued like any event. When parking would only have the run
// loop dispatch the events ahead of it and switch straight back, the process
// dispatches them itself and takes its wake-up in place. That needs a whole
// activation (a Raise's callback would still have to finish, at the old
// time), a wake-up within the run's horizon (then so is every event ahead of
// it) and no other process dispatching (one woken from inside that loop
// cannot resume the dispatcher beneath it on the stack). DESIGN.md §7.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	s := p.s
	s.After(d, p.wakeFn)
	if p.whole && !s.dispatching && d <= s.limit-s.now && p.dispatchUntil(s.seq) {
		return
	}
	p.park()
}

// dispatchUntil runs events in dispatch order on the process's own stack up
// to and including its wake-up, the event numbered mine — which is queued, so
// the queue cannot run dry first. It reports false, the wake-up still queued,
// when Stop ended the run.
func (p *Proc) dispatchUntil(mine uint64) bool {
	s := p.s
	s.dispatching = true
	defer func() {
		s.dispatching = false
		if r := recover(); r != nil {
			panic(wrapPanic(r, "event dispatched from process "+p.name, s.now))
		}
	}()
	for !s.stopped {
		ev := s.pop()
		if ev.seq == mine {
			return true
		}
		ev.fn()
	}
	return false
}

// String identifies the process in diagnostics.
func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

// Signal is a broadcast condition variable for coroutine processes and
// callback waiters. A typical use: a Portals event queue raises its signal
// when the firmware posts an event, waking a process blocked in PtlEQWait.
//
// Signal has no memory: a Raise with no waiters is lost. Users must re-check
// their predicate after waking (standard condition-variable discipline).
type Signal struct {
	s       *Sim
	procs   []*Proc
	callbks []func()

	// Drained waiter arrays from the last Raise, handed back to the live
	// slices so steady-state Wait/Notify never reallocates.
	procsSpare   []*Proc
	callbksSpare []func()
}

// NewSignal returns a signal bound to s.
func NewSignal(s *Sim) *Signal { return &Signal{s: s} }

// Wait blocks the calling process until the next Raise.
func (g *Signal) Wait(p *Proc) {
	g.procs = append(g.procs, p)
	p.park()
}

// WaitTimeout blocks the calling process until the next Raise or until d has
// elapsed, whichever comes first. It reports whether the signal was raised
// (false means timeout). Pass Never for no timeout.
func (g *Signal) WaitTimeout(p *Proc, d Time) bool {
	if d == Never {
		g.Wait(p)
		return true
	}
	raised := false
	fired := false
	// The timer and the raise race; whichever runs first wakes the process
	// and disarms the other.
	wakeOnce := func(byRaise bool) {
		if fired {
			return
		}
		fired = true
		raised = byRaise
		p.wake()
	}
	g.callbks = append(g.callbks, func() { wakeOnce(true) })
	g.s.After(d, func() { wakeOnce(false) })
	p.park()
	return raised
}

// Notify registers fn to be called (once, at Raise time) on the next Raise.
// It is the callback analogue of Wait.
func (g *Signal) Notify(fn func()) {
	g.callbks = append(g.callbks, fn)
}

// Raise wakes every current waiter. Processes are woken in the order they
// waited, at the current virtual time; callbacks run immediately.
// Waiters that arrive during Raise are not woken (they wait for the next
// Raise).
func (g *Signal) Raise() {
	procs := g.procs
	cbs := g.callbks
	// New waiters go into the spare arrays (ping-pong buffering). The spares
	// are nilled while we iterate so a nested Raise from a woken process
	// falls back to fresh slices instead of scribbling over this iteration.
	g.procs = g.procsSpare[:0]
	g.callbks = g.callbksSpare[:0]
	g.procsSpare = nil
	g.callbksSpare = nil
	for _, fn := range cbs {
		fn()
	}
	for _, p := range procs {
		p.wake()
	}
	for i := range procs {
		procs[i] = nil
	}
	for i := range cbs {
		cbs[i] = nil
	}
	g.procsSpare = procs[:0]
	g.callbksSpare = cbs[:0]
}

// Barrier is a one-shot counting barrier for the processes of one simulator:
// the first need-1 arrivals block and the last releases them all. It is the
// out-of-band start synchronization of a job launch or a benchmark pair
// (the real launcher does this over the reliability network, outside the Portals
// data path).
type Barrier struct {
	need, have int
	sig        *Signal
}

// NewBarrier returns a barrier that opens at the need-th Wait.
func NewBarrier(s *Sim, need int) *Barrier {
	return &Barrier{need: need, sig: NewSignal(s)}
}

// Wait blocks the calling process until need processes have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.have++
	if b.have == b.need {
		b.sig.Raise()
		return
	}
	b.sig.Wait(p)
}
