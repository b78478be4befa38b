package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// A chained sleep or wait is a host-side shortcut: Proc.Chain and its steps
// must run exactly the callbacks, at the instants and in the order, of the
// plain Sleeps, Waits and code they stand for. A chain program is a few
// processes, each a script of sleeps, waits, waits on a predicate that events
// and processes flip, raises and scheduled events, some of it wrapped in
// chains; a few events of its own raise, flip and Stop, and it may set
// MaxEvents. checkChain runs it twice — chains as chains, and chains written
// out as the plain code — on a Sim and on a 2-lane Kernel, and compares the
// two logs line by line: every callback and every op a process completes,
// with the time, then each Run's outcome and the queue's Fired, Now and
// Pending. TestChainMatchesPlain feeds it random programs; FuzzChain (seed
// corpus under testdata/fuzz) lets the fuzzer write them.

// The ops of a process script.
const (
	opSleep = iota // blocking: Sleep(d)
	opWait         // blocking: Wait on signal g
	opUntil        // blocking while ready[g] is false: Wait on g until it is true
	opRaise        // raise signal g
	opFlip         // flip ready[g]
	opAfter        // schedule an event d from now that logs, and flips ready[g]
	opChain        // process level only: the body as one chain (body[0] is its first sleep)
	opKinds
)

type chainOp struct {
	kind int
	d    Time
	g    int
	body []chainOp
}

// chainEvent is one of the program's own events: at its time it logs and
// raises g, flips ready[g] or stops the run.
type chainEvent struct {
	at   Time
	kind int // 0: raise, 1: flip, 2: Stop
	g    int
}

type chainProg struct {
	sigs      int
	procs     [][]chainOp
	events    []chainEvent
	maxEvents uint64 // on the Sim only
	lookahead Time   // of the Kernel
}

// chainDeltas are the sleeps and event times a program draws: zero, a tick,
// a few short ones, one past most lookaheads.
var chainDeltas = []Time{0, 0, 1, 2, 3, 5, 8, 13, 40, 100}

// decodeChain reads a program from bytes; running out of them reads zeros.
func decodeChain(prog []byte) chainProg {
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	var c chainProg
	c.sigs = 1 + next()%2
	c.lookahead = []Time{1, 3, 7, 20, 64}[next()%5]
	if m := next(); m%4 == 0 {
		c.maxEvents = uint64(5 + m)
	}
	op := func(level int) chainOp {
		o := chainOp{kind: next() % opKinds, d: chainDeltas[next()%len(chainDeltas)], g: next() % c.sigs}
		if o.kind == opChain && level > 0 {
			o.kind = opSleep
		}
		return o
	}
	for n := 1 + next()%4; n > 0; n-- {
		var script []chainOp
		for k := next() % 10; k > 0; k-- {
			o := op(0)
			if o.kind == opChain {
				o.body = []chainOp{{kind: opSleep, d: o.d}}
				for b := next() % 8; b > 0; b-- {
					o.body = append(o.body, op(1))
				}
			}
			script = append(script, o)
		}
		c.procs = append(c.procs, script)
	}
	for n := next() % 8; n > 0; n-- {
		c.events = append(c.events, chainEvent{at: Time(next() % 120), kind: next() % 5 % 3, g: next() % c.sigs})
	}
	return c
}

// chainRun is one program running on one Sim (a Kernel lane).
type chainRun struct {
	c       *chainProg
	s       *Sim
	sigs    []*Signal
	ready   []bool
	chained bool // run chains as chains
	stops   bool // honour the program's Stop events
	log     []string
}

func (r *chainRun) note(who string, what ...any) {
	r.log = append(r.log, fmt.Sprint(int64(r.s.now), " ", who, " ", fmt.Sprint(what...)))
}

// start spawns the program's processes and schedules its events; a process
// first sleeps delay, which staggers the lanes of a Kernel.
func (r *chainRun) start(delay Time) {
	r.sigs = make([]*Signal, r.c.sigs)
	for i := range r.sigs {
		r.sigs[i] = &Signal{}
	}
	r.ready = make([]bool, r.c.sigs)
	for i, script := range r.c.procs {
		who := fmt.Sprint("P", i)
		r.s.Go(who, func(p *Proc) {
			p.Sleep(delay)
			r.plain(p, who, script)
			r.note(who, "ends")
		})
	}
	for i, ev := range r.c.events {
		r.s.At(ev.at+delay, func() {
			r.note("E", i)
			switch ev.kind {
			case 0:
				r.sigs[ev.g].Raise()
			case 1:
				r.ready[ev.g] = !r.ready[ev.g]
			case 2:
				if r.stops {
					r.s.Stop()
				}
			}
		})
	}
}

// act runs a non-blocking op, from a process body or from a step.
func (r *chainRun) act(who string, o chainOp) {
	switch o.kind {
	case opRaise:
		r.sigs[o.g].Raise()
	case opFlip:
		r.ready[o.g] = !r.ready[o.g]
	case opAfter:
		r.s.After(o.d, func() {
			r.note(who, "'s event")
			r.ready[o.g] = !r.ready[o.g]
		})
	}
}

// plain runs a script as process code; a chain is run as a chain, or as the
// plain script of its body.
func (r *chainRun) plain(p *Proc, who string, ops []chainOp) {
	for i, o := range ops {
		switch o.kind {
		case opSleep:
			p.Sleep(o.d)
		case opWait:
			r.sigs[o.g].Wait(p)
		case opUntil:
			for !r.ready[o.g] {
				r.sigs[o.g].Wait(p)
			}
		case opChain:
			if r.chained {
				p.Chain(o.body[0].d, &chainStep{r: r, who: who + ">", body: o.body})
			} else {
				r.plain(p, who+">", o.body)
			}
		default:
			r.act(who, o)
		}
		r.note(who, "op ", i)
	}
}

// chainStep runs a chain's body from a process's wake-ups: the blocking op at
// pc has just been served.
type chainStep struct {
	r    *chainRun
	who  string
	body []chainOp
	pc   int
}

func (st *chainStep) Step(*Proc) Next {
	r := st.r
	if o := st.body[st.pc]; o.kind == opUntil && !r.ready[o.g] {
		return WaitFor(r.sigs[o.g])
	}
	for {
		r.note(st.who, "op ", st.pc)
		if st.pc++; st.pc == len(st.body) {
			return Resume()
		}
		switch o := st.body[st.pc]; o.kind {
		case opSleep:
			return SleepFor(o.d)
		case opWait:
			return WaitFor(r.sigs[o.g])
		case opUntil:
			if !r.ready[o.g] {
				return WaitFor(r.sigs[o.g])
			}
		default:
			r.act(st.who, o)
		}
	}
}

// outcome is how a Run ended, the same text whichever stack a panic left.
func outcome(run func()) (out string) {
	defer func() {
		switch v := recover().(type) {
		case nil:
		case *Panic:
			out = fmt.Sprint("panic: ", v.Value)
		default:
			out = fmt.Sprint("panic: ", v)
		}
	}()
	run()
	return "ok"
}

// runChainSim runs the program on a Sim: Run until it neither stops nor
// panics, at most three times.
func runChainSim(c *chainProg, chained bool) (log []string, parks uint64) {
	s := New()
	s.MaxEvents = c.maxEvents
	r := &chainRun{c: c, s: s, chained: chained, stops: true}
	r.start(0)
	for i := 0; i < 3; i++ {
		out := outcome(s.Run)
		r.note("Run", out)
		if out != "ok" || !s.stopped {
			break
		}
	}
	r.note("end", "fired ", s.Fired, " pending ", s.Pending())
	return r.log, s.Parks
}

// runChainKernel runs the program on each lane of a 2-lane Kernel, lane i's
// processes and events i ticks late, without Stop or MaxEvents.
func runChainKernel(c *chainProg, chained bool) (log []string, parks uint64) {
	k := NewKernel(2, c.lookahead)
	runs := make([]*chainRun, 2)
	for i := range runs {
		runs[i] = &chainRun{c: c, s: k.Lane(i), chained: chained}
		runs[i].start(Time(i))
	}
	out := outcome(k.Run)
	for i, r := range runs {
		r.note("Kernel.Run", out)
		r.note("end", "fired ", r.s.Fired, " pending ", r.s.Pending())
		log = append(log, fmt.Sprint("lane ", i))
		log = append(log, r.log...)
		parks += r.s.Parks
	}
	return log, parks
}

// checkChain runs prog both ways on both engines and compares; it reports
// the parks the plain and the chained runs took, summed.
func checkChain(t *testing.T, prog []byte) (plain, chained uint64) {
	t.Helper()
	c := decodeChain(prog)
	for _, engine := range []struct {
		name string
		run  func(*chainProg, bool) ([]string, uint64)
	}{{"Sim", runChainSim}, {"Kernel", runChainKernel}} {
		want, wp := engine.run(&c, false)
		got, gp := engine.run(&c, true)
		plain, chained = plain+wp, chained+gp
		if err := sameLog(got, want); err != nil {
			t.Fatalf("program %x on a %s: %v", prog, engine.name, err)
		}
	}
	return plain, chained
}

func sameLog(got, want []string) error {
	end := []string{"<end>"}
	for i := range max(len(got), len(want)) {
		g, w := slices.Concat(got, end)[min(i, len(got))], slices.Concat(want, end)[min(i, len(want))]
		if g != w {
			return fmt.Errorf("chained line %d is %q, plain %q", i, g, w)
		}
	}
	return nil
}

func TestChainMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var plain, chained uint64
	for i := 0; i < 500; i++ {
		prog := make([]byte, 20+rng.Intn(300))
		rng.Read(prog)
		p, c := checkChain(t, prog)
		plain, chained = plain+p, chained+c
	}
	// The chains must have been chains: parking less is all they are for.
	if chained >= plain {
		t.Errorf("chained runs parked %d times against the plain runs' %d: the chains did not stand in for the switches", chained, plain)
	}
}

func FuzzChain(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 60, 300} {
		prog := make([]byte, n)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { checkChain(t, prog) })
}

// TestChainStepAnswersAreQueuedAsPlainCalls pins the rule behind the
// equivalence on the smallest case: a wait a step answers joins the signal's
// waiters in order with the plain ones, and a chained sleep's wake-up takes
// the very seq a Sleep there would.
func TestChainStepAnswersAreQueuedAsPlainCalls(t *testing.T) {
	for _, chained := range []bool{false, true} {
		s := New()
		c := chainProg{sigs: 1, procs: [][]chainOp{
			{{kind: opChain, d: 1, body: []chainOp{{kind: opSleep, d: 1}, {kind: opWait}, {kind: opSleep, d: 2}}}},
			{{kind: opSleep, d: 2}, {kind: opWait}, {kind: opSleep, d: 2}},
		}, events: []chainEvent{{at: 5}}}
		r := &chainRun{c: &c, s: s, chained: chained}
		r.start(0)
		s.Run()
		want := []string{"1 P0> op 0", "2 P1 op 0", "5 E 0", "5 P0> op 1", "5 P1 op 1",
			"7 P0> op 2", "7 P0 op 0", "7 P0 ends", "7 P1 op 2", "7 P1 ends"}
		if err := sameLog(r.log, want); err != nil {
			t.Errorf("chained %v: %v", chained, err)
		}
		if want := map[bool]uint64{false: 6, true: 5}[chained]; s.Parks != want {
			t.Errorf("chained %v: %d parks, want %d (P1 four times; P0 twice, once when its raise and sleep are a chain)", chained, s.Parks, want)
		}
	}
}
