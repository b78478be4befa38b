package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The queue's order as a property: a program of scheduling calls runs once on
// a Sim and once on refQueue, which keeps every pending event in one slice
// sorted by (at, seq) — no ring, no heap, no wheel — and the two must
// log the same callbacks at the same times with the same Pending() throughout.
// TestEventOrderProperty feeds it random programs; FuzzEventOrder (seed corpus
// under testdata/fuzz) lets the fuzzer write them.

// orderQueue is what a program needs of a queue.
type orderQueue interface {
	Now() Time
	After(Time, func())
	At(Time, func())
	Run()
	RunUntil(Time)
	Stop()
	Pending() int
	setMaxEvents(uint64)
	// sleeper starts a process that sleeps for each of ds in turn and calls
	// woke after each.
	sleeper(ds []Time, woke func(i int))
}

func (s *Sim) setMaxEvents(n uint64) { s.MaxEvents = n }

func (s *Sim) sleeper(ds []Time, woke func(i int)) {
	s.Go("sleeper", func(p *Proc) {
		for i, d := range ds {
			p.Sleep(d)
			woke(i)
		}
	})
}

// refQueue is the reference: the documented contract, executed literally.
type refQueue struct {
	now       Time
	seq       uint64
	pending   []event
	stopped   bool
	fired     uint64
	maxEvents uint64
}

func (r *refQueue) Now() Time             { return r.now }
func (r *refQueue) Pending() int          { return len(r.pending) }
func (r *refQueue) Stop()                 { r.stopped = true }
func (r *refQueue) setMaxEvents(n uint64) { r.maxEvents = n }

func (r *refQueue) At(t Time, fn func()) {
	if t < r.now {
		panic("ref: scheduling in the past")
	}
	r.seq++
	// Sorted by at; a new event follows every event of its instant, which is
	// insertion order, which is seq.
	i, _ := slices.BinarySearchFunc(r.pending, t+1, func(ev event, t Time) int { return cmp.Compare(ev.at, t) })
	r.pending = slices.Insert(r.pending, i, event{at: t, seq: r.seq, fn: fn})
}

func (r *refQueue) After(d Time, fn func()) { r.At(r.now+max(d, 0), fn) }

// step dispatches the earliest event if it is due by limit.
func (r *refQueue) step(limit Time) bool {
	if r.stopped || len(r.pending) == 0 || r.pending[0].at > limit {
		return false
	}
	ev := r.pending[0]
	r.pending = r.pending[1:]
	r.now = ev.at
	r.fired++
	if r.maxEvents != 0 && r.fired > r.maxEvents {
		panic("ref: exceeded MaxEvents")
	}
	ev.fn()
	return true
}

func (r *refQueue) Run() {
	r.stopped = false
	for r.step(Never) {
	}
}

func (r *refQueue) RunUntil(t Time) {
	r.stopped = false
	for r.step(t) {
	}
	if !r.stopped && r.now < t {
		r.now = t
	}
}

func (r *refQueue) sleeper(ds []Time, woke func(i int)) {
	var sleep func(i int)
	sleep = func(i int) {
		if i < len(ds) {
			r.After(ds[i], func() { woke(i); sleep(i + 1) })
		}
	}
	r.After(0, func() { sleep(0) })
}

// orderDeltas are the distances a program schedules at: zero (the ring), a
// picosecond, within a bucket, a bucket's width and either side of it, the
// deltas a torus lane sees (65 ns – 2 µs), either side of the wheel's span,
// and timers far beyond it.
var orderDeltas = []Time{
	0, 1, 2, 999, bucketWidth - 1, bucketWidth, bucketWidth + 1, 3 * bucketWidth,
	65 * Nanosecond, 131 * Nanosecond, 524 * Nanosecond, 2 * Microsecond,
	wheelSpan - bucketWidth, wheelSpan - 1, wheelSpan, wheelSpan + 1,
	10 * Microsecond, 150 * Microsecond, Millisecond, -5,
}

// orderLine is one observation of a program: a callback that ran or a driver
// step that returned, when, and what Pending() said there.
type orderLine struct {
	now     Time
	what    string
	id      int
	pending int
}

// orderProgram interprets prog against q and returns the log of everything
// observable. Both executions read the program through their own cursor: as
// long as they dispatch alike they read alike, and once they do not the logs
// already differ.
func orderProgram(q orderQueue, prog []byte) (log []orderLine) {
	const budget = 3000 // events a program may schedule
	pos, scheduled := 0, 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	note := func(what string, id int) {
		log = append(log, orderLine{q.Now(), what, id, q.Pending()})
	}
	var act func(inEvent bool)
	fire := func(id int) func() {
		return func() {
			note("event ", id)
			act(true)
		}
	}
	// act is what a callback (or the driver, between runs) does next: up to
	// three scheduling operations, a Stop, or — in an event — a panic.
	act = func(inEvent bool) {
		for n := next() % 4; n > 0; n-- {
			op, d := next(), orderDeltas[next()%len(orderDeltas)]
			if scheduled >= budget {
				return
			}
			switch op % 8 {
			case 0, 1, 2:
				scheduled++
				q.After(d, fire(scheduled))
			case 3:
				scheduled++
				q.At(q.Now()+max(d, 0), fire(scheduled))
			case 4, 5: // a burst that shares one instant
				for ties := 2 + op/8; ties > 0 && scheduled < budget; ties-- {
					scheduled++
					q.After(d, fire(scheduled))
				}
			case 6:
				q.Stop()
			case 7:
				if inEvent && prog[0]&1 == 0 { // programs with a process never panic, see below
					panic(fmt.Sprint("program panic at ", int64(q.Now())))
				}
			}
		}
	}
	// drive runs one driver step, surviving a panic the way a caller's
	// recover would: the queue must be consistent for the next step.
	drive := func(what string, step func()) {
		defer func() {
			if r := recover(); r != nil {
				what += " panicked"
			}
			note(what, 0)
		}()
		step()
	}

	// The first byte picks the program's flavour: with a sleeping process
	// (which dispatches in place and must survive the queue building its
	// wheel), or with MaxEvents and panicking events — a process that a
	// panic unwound is dead, and Run rightly calls that a deadlock.
	if len(prog) == 0 {
		return nil
	}
	if next()&1 == 1 {
		ds := make([]Time, 40)
		for i := range ds {
			ds[i] = orderDeltas[next()%len(orderDeltas)]
		}
		q.sleeper(ds, func(i int) {
			note("sleeper woke ", i)
			act(false)
		})
	} else if m := next(); m&3 == 0 {
		q.setMaxEvents(uint64(20 + 8*m))
	}
	for pos < len(prog) {
		act(false)
		switch step := next(); step % 4 {
		case 0:
			drive("Run", q.Run)
		default:
			until := q.Now() + orderDeltas[next()%len(orderDeltas)]*Time(1+step/4)
			drive("RunUntil", func() { q.RunUntil(until) })
		}
	}
	q.setMaxEvents(0)
	for tries := 0; q.Pending() > 0 && tries < budget; tries++ { // a Stop or a panic ends a Run early
		drive("last Run", q.Run)
	}
	return log
}

// checkOrder runs prog on both queues and compares.
func checkOrder(t *testing.T, prog []byte) (events int, deep bool) {
	t.Helper()
	s := New()
	got := orderProgram(s, prog)
	want := orderProgram(&refQueue{}, prog)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("program %x: log line %d is %v, the reference says %v", prog, i, slices.Concat(got, []orderLine{{what: "<end>"}})[i], want[i])
		}
	}
	if len(got) != len(want) || s.Pending() != 0 {
		t.Fatalf("program %x: %d log lines against the reference's %d, %d events left", prog, len(got), len(want), s.Pending())
	}
	return len(want), s.far != nil
}

func TestEventOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	events, deep := 0, 0
	for i := 0; i < 300; i++ {
		prog := make([]byte, 50+rng.Intn(1500))
		rng.Read(prog)
		if i%3 == 0 { // bias towards bursts, so the queue runs deep early
			for j := 4; j < len(prog); j += 7 {
				prog[j] = 4 + 8*byte(rng.Intn(32))
			}
		}
		n, d := checkOrder(t, prog)
		events += n
		if d {
			deep++
		}
	}
	if events < 100_000 || deep < 100 {
		t.Errorf("300 programs logged %d lines and %d built a wheel: too few to mean anything", events, deep)
	}
}

func FuzzEventOrder(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 200, 1200} {
		for flavour := byte(0); flavour < 2; flavour++ {
			prog := make([]byte, n)
			rng.Read(prog)
			prog[0] = flavour
			f.Add(prog)
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) { checkOrder(t, prog) })
}
