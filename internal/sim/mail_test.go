package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// The mail run as a property: a kernel lane that has built its wheel takes
// each window's merged mail as one sorted run beside the wheel instead of
// filing every post through At. TestMergedMailSkipsTheWheel pins where the
// mail goes; TestKernelMailProperty and FuzzKernelMail (seed corpus under
// testdata/fuzz) run random programs of local scheduling, posts, runs, Stop
// and MaxEvents on a 1-lane and a 2-lane Kernel and on refKernel, which runs
// the same window protocol over refQueue lanes and merges mail literally: sort
// by (time, source node, source sequence), then At each post at the start of
// the next window.

// TestMergedMailSkipsTheWheel: mail merged into a deep lane — due within the
// wheel's span, beyond it, and at instants its local events hold — sits in
// no bucket, not in the run and not in the heap, and the lane dispatches it
// among its local events in (time, sequence) order.
func TestMergedMailSkipsTheWheel(t *testing.T) {
	k := NewKernel(1, 50*Nanosecond)
	l := k.Lane(0)
	for i := 0; i < 2*deepAt; i++ {
		l.At(Time(1+i%9)*Nanosecond, func() {})
	}
	if l.far == nil {
		t.Fatal("128 queued events built no wheel")
	}
	local := l.seq
	for i := 0; i < 40; i++ {
		at := Time(1+i*7%11) * Nanosecond // colliding with the local instants
		if i%8 == 0 {
			at = wheelSpan + Time(i)*Microsecond // beyond the wheel's span
		}
		k.Post(0, 0, at, int32(i%3), uint64(i), func() {})
	}
	k.merge(0, k.out[k.Windows&1])
	for i, nd := range l.far.head {
		for ; nd != nil; nd = nd.next {
			if nd.ev.seq > local {
				t.Errorf("merged post %d is filed in bucket %d", nd.ev.seq, i)
			}
		}
	}
	for _, ev := range slices.Concat(l.far.run, l.heap) {
		if ev.seq > local {
			t.Errorf("merged post %d is in the run or the heap", ev.seq)
		}
	}
	if n := l.Pending(); n != 2*deepAt+40 {
		t.Errorf("Pending() = %d after the merge, want %d", n, 2*deepAt+40)
	}
	var order []event
	for l.Pending() > 0 {
		order = append(order, l.pop())
	}
	if len(order) != 2*deepAt+40 || !slices.IsSortedFunc(order, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	}) {
		t.Errorf("the lane dispatched %d events, not all of them in (time, sequence) order", len(order))
	}
}

// mailKernel is what a mail program needs of a kernel.
type mailKernel interface {
	lane(i int) orderQueue
	post(src, dst int, at Time, node int32, seq uint64, fn func())
	run()
	runUntil(Time)
	windows() uint64
}

type realKernel struct{ *Kernel }

func (k realKernel) lane(i int) orderQueue { return k.Lane(i) }
func (k realKernel) post(src, dst int, at Time, node int32, seq uint64, fn func()) {
	k.Post(src, dst, at, node, seq, fn)
}
func (k realKernel) run()            { k.Run() }
func (k realKernel) runUntil(t Time) { k.RunUntil(t) }
func (k realKernel) windows() uint64 { return k.Windows }

// refKernel is the reference: Kernel's window protocol on one goroutine,
// lanes in index order, over refQueue lanes, with the merge done literally.
type refKernel struct {
	lanes     []*refQueue
	lookahead Time
	out       [2][][]post // [window parity][src*lanes+dst]
	window    uint64
	horizon   Time
}

func newRefKernel(lanes int, lookahead Time) *refKernel {
	r := &refKernel{lookahead: lookahead, horizon: -1}
	for range lanes {
		r.lanes = append(r.lanes, &refQueue{})
	}
	for p := range r.out {
		r.out[p] = make([][]post, lanes*lanes)
	}
	return r
}

func (r *refKernel) lane(i int) orderQueue { return r.lanes[i] }
func (r *refKernel) windows() uint64       { return r.window }

func (r *refKernel) post(src, dst int, at Time, node int32, seq uint64, fn func()) {
	if at <= r.horizon {
		panic("ref: post inside the window")
	}
	box := &r.out[r.window&1][src*len(r.lanes)+dst]
	*box = append(*box, post{at: at, srcNode: node, srcSeq: seq, fn: fn})
}

// merge sorts lane dst's mail by (time, source node, source sequence) and
// schedules it with At.
func (r *refKernel) merge(dst int, mail [][]post) {
	var b []post
	for src := range r.lanes {
		b = append(b, mail[src*len(r.lanes)+dst]...)
		mail[src*len(r.lanes)+dst] = nil
	}
	slices.SortFunc(b, func(p, o post) int {
		return cmp.Or(cmp.Compare(p.at, o.at), cmp.Compare(p.srcNode, o.srcNode), cmp.Compare(p.srcSeq, o.srcSeq))
	})
	for _, p := range b {
		r.lanes[dst].At(p.at, p.fn)
	}
}

func (r *refKernel) loop(limit Time) {
	for {
		mail := r.out[r.window&1]
		m := Never
		for dst, l := range r.lanes {
			if len(l.pending) > 0 {
				m = min(m, l.pending[0].at)
			}
			for src := range r.lanes {
				for _, p := range mail[src*len(r.lanes)+dst] {
					m = min(m, p.at)
				}
			}
		}
		if m == Never || m > limit {
			for dst := range r.lanes {
				r.merge(dst, mail)
			}
			return
		}
		r.horizon = m + r.lookahead - 1
		r.window++
		for i, l := range r.lanes {
			r.merge(i, mail)
			l.RunUntil(r.horizon)
		}
	}
}

func (r *refKernel) run() {
	r.loop(Never)
	r.horizon = -1
}

func (r *refKernel) runUntil(t Time) {
	r.loop(t)
	for _, l := range r.lanes {
		if l.Now() < t {
			l.RunUntil(t)
		}
	}
	r.horizon = -1
}

// mailLine is one observation of a mail program: a callback on a lane or a
// step of the program itself (a run, or the scheduling between runs), when,
// and what Pending() said there — the lane's, or every lane's summed for a
// step.
type mailLine struct {
	lane int
	orderLine
}

// mailProgram interprets prog on k, whose lanes number lanes. The first
// byte picks the flavour (a sleeping process on every lane, or MaxEvents and
// panicking events) and the lookahead; the program ends at the first panic.
func mailProgram(k mailKernel, lanes int, prog []byte) (log []mailLine) {
	const budget = 3000 // events and posts a program may schedule
	if len(prog) == 0 {
		return nil
	}
	pos, scheduled := 0, 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	flavour := next()
	look := []Time{bucketWidth, 50 * Nanosecond, 200 * Nanosecond}[flavour/2%3]
	// Local deltas reach the instants posts land on (the lookahead plus a
	// post delta) as well as the event-order ones; posts land from one
	// lookahead to a few hundred nanoseconds out, as a torus hop's do.
	ahead := []Time{0, 1, bucketWidth, 55 * Nanosecond, 131 * Nanosecond, 465 * Nanosecond}
	local := slices.Concat(orderDeltas, []Time{look, look + 1})
	for _, d := range ahead {
		local = append(local, look+d)
	}
	seqs := make([]uint64, 2*lanes) // two posting nodes a lane
	note := func(lane int, what string, id int) {
		q := k.lane(lane)
		log = append(log, mailLine{lane, orderLine{q.Now(), what, id, q.Pending()}})
	}
	var act func(lane int, inEvent bool)
	fire := func(lane, id int) func() {
		return func() {
			note(lane, "event ", id)
			act(lane, true)
		}
	}
	send := func(src, dst, node int, at Time) {
		scheduled++
		seqs[node]++
		k.post(src, dst, at, int32(node), seqs[node], fire(dst, scheduled))
	}
	act = func(lane int, inEvent bool) {
		q := k.lane(lane)
		for n := next() % 4; n > 0; n-- {
			op, d := next(), local[next()%len(local)]
			if scheduled >= budget {
				return
			}
			node, dst := 2*lane+op>>3&1, next()%lanes
			at := q.Now() + look + ahead[op>>4%len(ahead)]
			switch op % 8 {
			case 0, 1:
				scheduled++
				q.After(d, fire(lane, scheduled))
			case 2:
				scheduled++
				q.At(q.Now()+max(d, 0), fire(lane, scheduled))
			case 3: // local events that share one instant
				for ties := 2 + op/8; ties > 0 && scheduled < budget; ties-- {
					scheduled++
					q.After(d, fire(lane, scheduled))
				}
			case 4, 5:
				send(lane, dst, node, at)
			case 6: // posts from both of the lane's nodes at one instant
				for ties := 2 + op/32; ties > 0 && scheduled < budget; ties-- {
					send(lane, dst, 2*lane+ties&1, at)
				}
			case 7:
				if inEvent && flavour&1 == 0 && op&8 != 0 {
					panic(fmt.Sprint("program panic at ", int64(q.Now())))
				}
				q.Stop()
			}
		}
	}
	// drive runs one step of the program and reports whether it panicked.
	drive := func(what string, step func()) (panicked bool) {
		defer func() {
			if recover() != nil {
				what, panicked = what+" panicked", true
			}
			pending := 0
			for i := range lanes {
				pending += k.lane(i).Pending()
			}
			log = append(log, mailLine{-1, orderLine{k.lane(0).Now(), what, 0, pending}})
		}()
		step()
		return false
	}
	if flavour&1 == 1 {
		for i := range lanes {
			ds := make([]Time, 20)
			for j := range ds {
				ds[j] = local[next()%len(local)]
			}
			k.lane(i).sleeper(ds, func(j int) {
				note(i, "sleeper woke ", j)
				act(i, false)
			})
		}
	} else if m := next(); m&3 == 0 {
		for i := range lanes {
			k.lane(i).setMaxEvents(uint64(40 + 8*m))
		}
	}
	for pos < len(prog) {
		if drive("act", func() { act(next()%lanes, false) }) {
			return log
		}
		step := next()
		if step%4 == 0 {
			if drive("Run", k.run) {
				return log
			}
			continue
		}
		until := k.lane(0).Now() + local[next()%len(local)]*Time(1+step/4)
		if drive("RunUntil", func() { k.runUntil(until) }) {
			return log
		}
	}
	for i := range lanes {
		k.lane(i).setMaxEvents(0)
	}
	drive(fmt.Sprint("last Run, window ", k.windows()), k.run)
	return append(log, mailLine{-1, orderLine{what: fmt.Sprint("windows ", k.windows())}})
}

// checkMail runs prog on a real and a reference kernel of 1 and of 2 lanes
// and compares their logs line by line. It reports the lines logged and
// whether a lane's mail went to a mail run.
func checkMail(t *testing.T, prog []byte) (lines int, mailRun bool) {
	t.Helper()
	// One P: every window runs inline on the coordinator, lanes in index
	// order, as the reference runs them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for lanes := 1; lanes <= 2; lanes++ {
		look := []Time{bucketWidth, 50 * Nanosecond, 200 * Nanosecond}[int(prog[0])/2%3]
		k := NewKernel(lanes, look)
		got := mailProgram(realKernel{k}, lanes, prog)
		want := mailProgram(newRefKernel(lanes, look), lanes, prog)
		for i := range max(len(got), len(want)) {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				end := []mailLine{{-1, orderLine{what: "<end>"}}}
				t.Fatalf("program %x on %d lanes: log line %d is %+v, the reference says %+v", prog, lanes, i,
					slices.Concat(got, end)[min(i, len(got))], slices.Concat(want, end)[min(i, len(want))])
			}
		}
		lines += len(want)
		for i := range lanes {
			if w := k.Lane(i).far; w != nil && cap(w.mail) > 0 {
				mailRun = true
			}
		}
	}
	return lines, mailRun
}

func TestKernelMailProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	lines, runs := 0, 0
	for i := 0; i < 200; i++ {
		prog := make([]byte, 50+rng.Intn(1500))
		rng.Read(prog)
		if i%2 == 0 { // bias towards bursts, so the lanes run deep early
			for j := 5; j < len(prog); j += 7 {
				prog[j] = 3 + 8*byte(rng.Intn(32))
			}
		}
		n, mailRun := checkMail(t, prog)
		lines += n
		if mailRun {
			runs++
		}
	}
	if lines < 100_000 || runs < 50 {
		t.Errorf("200 programs logged %d lines and %d merged mail into a mail run: too few to mean anything", lines, runs)
	}
}

func FuzzKernelMail(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{16, 300, 1500} {
		for flavour := byte(0); flavour < 6; flavour += 3 {
			prog := make([]byte, n)
			rng.Read(prog)
			prog[0] = flavour
			f.Add(prog)
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 0 {
			checkMail(t, prog)
		}
	})
}

// TestSortPostsMatchesSortFunc: the batch sort agrees with slices.SortFunc on
// the post order at every length up to 300, on random batches with tied
// instants and on the orders that unbalance a quicksort's partitions —
// sorted, reversed, organ pipe, sawtooth — at every length that reaches
// its fallback.
func TestSortPostsMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := map[string]func(i, n int) Time{
		"random":     func(i, n int) Time { return Time(rng.Intn(n/2 + 1)) },
		"sorted":     func(i, n int) Time { return Time(i) },
		"reversed":   func(i, n int) Time { return Time(n - i) },
		"organ pipe": func(i, n int) Time { return Time(min(i, n-i)) },
		"sawtooth":   func(i, n int) Time { return Time(i % 17) },
	}
	for name, at := range shapes {
		for n := 0; n < 300; n++ {
			b := make([]post, n)
			for i := range b {
				b[i] = post{at: at(i, n), srcNode: int32(rng.Intn(3)), srcSeq: uint64(rng.Intn(1 << 20))}
			}
			want := slices.Clone(b)
			slices.SortFunc(want, func(p, o post) int {
				return cmp.Or(cmp.Compare(p.at, o.at), cmp.Compare(p.srcNode, o.srcNode), cmp.Compare(p.srcSeq, o.srcSeq))
			})
			sortPosts(b)
			for i := range want {
				if b[i].at != want[i].at || b[i].srcNode != want[i].srcNode || b[i].srcSeq != want[i].srcSeq {
					t.Fatalf("%s, %d posts: position %d holds %+v, want %+v", name, n, i, b[i], want[i])
				}
			}
		}
	}
}
