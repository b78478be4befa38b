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

	next   func() (struct{}, bool) // simulator -> process: run until you park; nil once the process has finished
	yield  func(struct{}) bool     // process -> simulator: I am blocked again
	wakeFn func()                  // p.resume bound once; Sleep runs hot, a fresh method value per call is measurable
	// step, while a Chain is under way, runs at each wake-up in the
	// process's place. The struct fills its 64-byte size class: one more
	// field costs every process 16 bytes.
	step Step
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
		p.next = nil
		s.procs--
	})
	s.After(0, p.wakeFn)
	return p
}

// wake transfers control to the process and returns when the process parks
// again (by sleeping, waiting, or finishing). whole says whether the
// activation is an event of its own (resume) rather than a turn inside an
// event that still has to finish (a Signal's Raise); Sim.whole holds it for
// the running process and gets the waker's back. A panic in the process body
// comes out of here, on the waker's stack.
func (p *Proc) wake(whole bool) {
	if p.next == nil {
		panic("sim: waking dead process " + p.name)
	}
	s := p.s
	outer := s.whole
	s.whole = whole
	p.next()
	s.whole = outer
}

// resume is the wake-up the event loop dispatches: the start event and every
// Sleep's wake-up. A chained process's step runs first, and the process is
// resumed only when the step says so.
func (p *Proc) resume() {
	if p.step == nil || p.stepped() {
		p.wake(true)
	}
}

// park returns control to whoever woke the process and blocks until the
// next wake.
func (p *Proc) park() {
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
// activation (the event that raised a Signal would still have to finish, at
// the old time), a wake-up within the run's horizon (then so is every event
// ahead of it) and no other process dispatching (one woken from inside that
// loop cannot resume the dispatcher beneath it on the stack). DESIGN.md §7.
func (p *Proc) Sleep(d Time) {
	if !p.stay(d) {
		p.park()
	}
}

// stay queues the process's wake-up d from now and reports whether it was
// taken in place (Sleep's rule); when it was not, the process is to park.
func (p *Proc) stay(d Time) bool {
	if d < 0 {
		d = 0
	}
	s := p.s
	s.After(d, p.wakeFn)
	if !s.whole || s.dispatching || d > s.limit-s.now {
		if s.sleeps != nil {
			s.sleeps.parked(s)
		}
		return false
	}
	if s.sleeps == nil {
		return p.dispatchUntil(s.seq)
	}
	fired := s.Fired
	ok := p.dispatchUntil(s.seq)
	s.sleeps.inPlace(s.Fired - fired)
	return ok
}

// SleepCounts sorts a Sim's sleeps — Sleep's and a chain's — by where they
// ended (Sim.CountSleeps). A sleep stays on the CPU with nothing ahead of
// its wake-up (Alone) or after dispatching what was (Dispatched); a chain's
// step queues one on the event loop with no switch (Stepped); or the
// process parks, because the activation is a turn inside a Raise (Raised),
// another process is dispatching (Nested) or the wake-up lies past the
// run's horizon (Beyond).
type SleepCounts struct {
	Alone, Dispatched, Stepped, Raised, Nested, Beyond uint64
}

// CountSleeps starts sorting the sleeps of s, and returns the counts.
func (s *Sim) CountSleeps() *SleepCounts {
	s.sleeps = &SleepCounts{}
	return s.sleeps
}

func (c *SleepCounts) inPlace(fired uint64) {
	if fired == 1 {
		c.Alone++
	} else {
		c.Dispatched++
	}
}

func (c *SleepCounts) parked(s *Sim) {
	switch {
	case !s.whole:
		c.Raised++
	case s.dispatching:
		c.Nested++
	default:
		c.Beyond++
	}
}

// Step is what a process leaves for its wake-ups while it is parked in a
// Chain: the host-side work between two of its sleeps, run where the wake-up
// runs, so that a wake-up which would only have the process queue its next
// sleep costs no switch. Being an interface value (a pointer the process
// already owns), storing one allocates nothing.
//
// Step runs at the wake-up instant — on the event loop at the sleep's own
// event or at the process's turn in Signal.Raise, in waiter order; on the
// process's stack when the wake-up came up in place — and does only what
// the process would have done there, in the same order. It never blocks: it
// answers the process's next sleep (SleepFor) or wait (WaitFor), which the
// chain queues with the very call Sleep or Wait makes (same instant, same
// seq, same lane) while the process stays parked; or Resume, and the process
// returns from Chain at that instant.
type Step interface {
	Step(p *Proc) Next
}

// Next is a step's answer: what its process does after the wake-up.
type Next struct {
	d     Time
	g     *Signal
	sleep bool
}

// Resume ends the chain: the process returns from Chain.
func Resume() Next { return Next{} }

// SleepFor chains a sleep of d.
func SleepFor(d Time) Next { return Next{d: d, sleep: true} }

// WaitFor chains a wait for g's next Raise.
func WaitFor(g *Signal) Next { return Next{g: g} }

// Chain sleeps d and then hands each wake-up to st until a step answers
// Resume, and returns at that wake-up. Its events, their seqs and instants
// are those of the plain Sleeps and Waits it stands for, and so is every
// callback's order: only the switches into the process fall. A sleep that
// may stay on the CPU (Sleep's rule) does, and its step then runs on the
// process's own stack. DESIGN.md §7.
func (p *Proc) Chain(d Time, st Step) {
	p.step = st
	for p.stay(d) {
		n := st.Step(p)
		if !n.sleep {
			if n.g == nil {
				p.step = nil
				return
			}
			n.g.procs = append(n.g.procs, p)
			break
		}
		d = n.d
	}
	p.park()
}

// stepped runs a chained process's step at a wake-up on the event loop and
// queues what it answers; it reports whether the process is to be resumed.
func (p *Proc) stepped() bool {
	n := p.step.Step(p)
	switch {
	case n.sleep:
		p.s.After(n.d, p.wakeFn)
		if p.s.sleeps != nil {
			p.s.sleeps.Stepped++
		}
	case n.g != nil:
		n.g.procs = append(n.g.procs, p)
	default:
		p.step = nil
		return true
	}
	return false
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

// Signal is a broadcast condition variable for coroutine processes, ready
// to use at its zero value. A typical use: a Portals library raises its
// event signal when the firmware posts an event to one of its queues,
// waking a process blocked in PtlEQWait or PtlEQPoll.
//
// Signal has no memory: a Raise with no waiters is lost. Users must re-check
// their predicate after waking (standard condition-variable discipline).
type Signal struct {
	procs []*Proc
	// The drained waiter array of the last Raise, handed back to procs so
	// steady-state Wait never reallocates.
	procsSpare []*Proc
}

// Wait blocks the calling process until the next Raise.
func (g *Signal) Wait(p *Proc) {
	g.procs = append(g.procs, p)
	p.park()
}

// Raise wakes every current waiter, in the order they waited, at the current
// virtual time — a chained one by running its step, which may leave it
// parked. Waiters that arrive during Raise are not woken (they wait for the
// next Raise).
func (g *Signal) Raise() {
	procs := g.procs
	// New waiters go into the spare array (ping-pong buffering). The spare
	// is nilled while we iterate so a nested Raise from a woken process
	// falls back to a fresh slice instead of scribbling over this iteration.
	g.procs = g.procsSpare[:0]
	g.procsSpare = nil
	for _, p := range procs {
		if p.step == nil || p.stepped() {
			p.wake(false)
		}
	}
	for i := range procs {
		procs[i] = nil
	}
	g.procsSpare = procs[:0]
}

// Barrier is a one-shot counting barrier for the processes of one simulator:
// the first need-1 arrivals block and the last releases them all. It is the
// out-of-band start synchronization of a job launch or a benchmark pair
// (the real launcher does this over the reliability network, outside the Portals
// data path).
type Barrier struct {
	need, have int
	sig        Signal
}

// NewBarrier returns a barrier that opens at the need-th Wait.
func NewBarrier(need int) *Barrier { return &Barrier{need: need} }

// Wait blocks the calling process until need processes have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.have++
	if b.have == b.need {
		b.sig.Raise()
		return
	}
	b.sig.Wait(p)
}
