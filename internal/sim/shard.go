// Sharded parallel event kernel: N per-shard event lanes (each a complete
// Sim with its own event queue) advanced in lock-step
// windows under conservative lookahead — the classic Chandy–Misra/null-
// message discipline, specialized to a fabric whose minimum cross-shard
// handoff latency is a known constant.
//
// The synchronization protocol, per window:
//
//  1. The coordinator computes m, the minimum next-event time across all
//     lanes — each lane's own next event, which whoever ran the lane published
//     at the end of the last window, and the earliest post in each outbox the
//     last window filled, a minimum Post keeps beside the mail — and the
//     window horizon h = m + lookahead − 1. It reads no queue and no mail.
//  2. Every lane first merges its own mail — the posts the previous window
//     addressed to it, sorted by (time, source node, source sequence), keys
//     that depend only on the simulated workload, never on the shard count,
//     and given the lane's next insertion sequences in that order, into the
//     mail run beside its wheel (or through At while the lane has none) — so
//     each lane's tie-breaking insertion sequence is identical at any shard
//     count, and then runs RunUntil(h). This window's posts go to the
//     outboxes of the other parity, which nobody reads until the next one.
//     The lanes are spread over W = min(lanes, GOMAXPROCS) workers that stay
//     on their Ps for the whole Run (worker 0 is the coordinator; worker w
//     owns lanes w, w+W, …). The coordinator publishes the window number to
//     each worker holding an event or mail due at or before h, runs the other
//     lanes itself (its own, and the idle workers' merges and clock lifts),
//     then waits for the signalled workers' done-epochs. With at most one
//     such worker the whole window runs on the coordinator: a cross-core
//     hand-off costs more than an idle lane. Within the window a lane may
//     freely schedule local events; other nodes are reached through Post.
//  3. Repeat until every lane is empty and no mail is pending; the
//     coordinator then merges what the last window posted, so every event is
//     in a lane when Run or RunUntil returns.
//
// Each direction of the barrier is a gate: an atomic epoch the waiter polls,
// parking only past a bounded budget, so a window whose workers arrive in
// time does no channel operation, lock or clock read. The epoch store orders
// all its publisher wrote before it: horizon, window number and — through the
// coordinator, who waited for its writer — the mail on the way out; lane
// state, next-event times, laneBusy and a *Panic on the way back.
//
// Safety argument: a model registered with lookahead L promises that every
// cross-node handoff posted while executing an event at time t targets a
// time strictly greater than t + L − 1 ≥ h (in this repository the fabric's
// per-hop wire latency plus a non-zero link occupancy provides L =
// Params.HopLatency). Posts therefore always land beyond the current
// horizon, no lane ever receives mail in its past, and At's monotonicity
// panic (merge's own, on a lane with a mail run) doubles as the runtime check.
// Post additionally asserts it.
//
// Determinism argument (why shards=1 and shards=N produce bit-identical
// simulated results): the window sequence depends only on global minimum
// event times, which the partition does not change; within a window each
// lane executes only its own nodes' events in (time, insertion-seq) order;
// and every inter-node handoff — including between nodes that share a lane
// — travels through the mailbox with shard-invariant sort keys, all of a
// window's mail being merged before the next window runs. A lane sorting its
// own mail inserts it in the order one global sort would have given that
// lane (a total order restricted to a subset is that subset's order).
// Induction over windows gives identical per-node event sequences at any
// shard count. See DESIGN.md §11.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
)

// post is one cross-lane mailbox entry.
type post struct {
	at      Time
	srcNode int32  // simulated node that posted (sort key, shard-invariant)
	srcSeq  uint64 // that node's post sequence (sort key, shard-invariant)
	fn      func()
}

// outbox is what one lane has posted to another during the windows of one
// parity. min is the earliest of its posts' times (Never when it is empty), so
// the coordinator learns when a lane's mail falls due without reading the mail.
type outbox struct {
	posts []post
	min   Time
}

// Kernel is a sharded parallel event kernel. Build one with NewKernel,
// schedule initial work on its lanes (Lane), then call Run. Lanes must not
// be touched by other goroutines while Run executes, except through Post
// from within lane event handlers.
type Kernel struct {
	lanes     []*Sim
	lookahead Time

	// out[p][src*shards+dst] is the SPSC mailbox from lane src to lane dst
	// for windows of parity p: whoever runs lane src appends to it during
	// such a window, whoever runs lane dst empties it during the next one
	// (merge), while lane src posts into the other set. Slices are reused —
	// steady-state posting and merging allocate nothing.
	out   [2][]outbox
	batch [][]post // batch[dst]: lane dst's scratch for sorting its mail

	// next[i] is the time of lane i's next event, Never when it has none:
	// written by whoever ran the lane, at the end of each window, so that the
	// coordinator reads one word of a lane between windows and no queue.
	next []Time

	// workers[w] is worker w's side of the window barrier (index 0, the
	// coordinator, is unused); stride is W, the number of workers the
	// current Run spreads the lanes over.
	workers []worker
	stride  int

	// ticks are the registered barrier ticks (Every), the hook shard-aware
	// observers hang off.
	ticks []*ktick

	// Host-execution profiler (hostprof.go); nil unless EnableHostProfile.
	// laneBusy[i] is lane i's busy time for the current window, written
	// only by the goroutine that ran the lane and read by the coordinator
	// after the window (a worker's done-epoch is the happens-before edge).
	prof     *hostProf
	laneBusy []int64

	// The workers read the fields above every window; the coordinator
	// writes the ones below every window, so those sit on other cache lines.
	_ [64]byte

	horizon Time   // current window horizon, for the Post safety assert
	inline  uint64 // windows run wholly on the coordinator

	// Windows counts synchronization windows executed, for diagnostics.
	Windows uint64
}

// ktick is one registered periodic barrier tick.
type ktick struct {
	next   Time
	period Time
	fn     func(Time)
}

// Every registers fn to run at window barriers, once for each multiple of
// period (the first at t = period). At each barrier the coordinator fires —
// in (tick time, registration) order — every pending tick whose time lies
// strictly below the next window's minimum event time m, passing the tick
// time as the canonical timestamp.
//
// Why this is the observer hook: at a barrier every worker is joined
// (happens-before through its done-epoch), every lane's clock sits
// at the previous horizon, and the set of executed events — everything at
// or before that horizon — is shard-invariant (see the determinism argument
// above). A tick may therefore read, and at barrier time even write, any
// lane's model state without races, and whatever it records is byte-
// identical at every shard count. The observation can lag the tick time by
// at most lookahead−1: events in (tick, horizon] of the window containing
// the tick have already executed. That smear is bounded by one hop latency
// and is itself shard-invariant.
//
// Ticks are not lane events: they occupy no heap, never extend the run, and
// stop firing at quiescence (a tick due beyond the last event never fires —
// callers wanting an end-of-run snapshot take it after Run returns). fn
// must not schedule lane events or post mail; it runs on the coordinator,
// outside any window.
func (k *Kernel) Every(period Time, fn func(Time)) {
	if period <= 0 {
		panic("sim: kernel tick period must be positive")
	}
	k.ticks = append(k.ticks, &ktick{next: period, period: period, fn: fn})
}

// fireTicks runs every registered tick due strictly before m, in (time,
// registration) order. The strict < keeps ties on registration order and
// guarantees every event at or before a tick's time has executed when it
// fires.
func (k *Kernel) fireTicks(m Time) {
	for {
		var due *ktick
		for _, t := range k.ticks {
			if t.next < m && (due == nil || t.next < due.next) {
				due = t
			}
		}
		if due == nil {
			return
		}
		at := due.next
		due.next += due.period
		due.fn(at)
	}
}

// NewKernel returns a kernel with the given number of lanes. lookahead is
// the conservative synchronization bound: the minimum virtual-time distance
// of any cross-node handoff, as registered by the fabric model. It must be
// positive.
func NewKernel(shards int, lookahead Time) *Kernel {
	if shards < 1 {
		panic("sim: kernel needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: kernel lookahead must be positive")
	}
	k := &Kernel{
		lanes:     make([]*Sim, shards),
		lookahead: lookahead,
		batch:     make([][]post, shards),
		next:      make([]Time, shards),
		workers:   make([]worker, min(shards, 64)), // window's forked set is a uint64
		horizon:   -1,
	}
	for i := range k.lanes {
		k.lanes[i] = New()
	}
	for p := range k.out {
		k.out[p] = make([]outbox, shards*shards)
		for i := range k.out[p] {
			k.out[p][i].min = Never
		}
	}
	for w := 1; w < len(k.workers); w++ {
		k.workers[w].work.wake = make(chan struct{}, 1)
		k.workers[w].done.wake = make(chan struct{}, 1)
	}
	return k
}

// Shards returns the lane count.
func (k *Kernel) Shards() int { return len(k.lanes) }

// Lookahead returns the synchronization bound.
func (k *Kernel) Lookahead() Time { return k.lookahead }

// Lane returns lane i's simulator. Model components of a node are built
// entirely on the node's lane.
func (k *Kernel) Lane(i int) *Sim { return k.lanes[i] }

// Post schedules fn at absolute time at on lane dst's node state. It must
// be called from lane src's executing event (or before Run), with srcNode
// and srcSeq forming a shard-invariant total order over the posting node's
// handoffs (a per-node counter). The target time must lie beyond the
// current window horizon — the lookahead contract.
func (k *Kernel) Post(src, dst int, at Time, srcNode int32, srcSeq uint64, fn func()) {
	if at <= k.horizon {
		panic(fmt.Sprintf("sim: cross-shard post at %v violates lookahead window ending %v", at, k.horizon))
	}
	ob := &k.out[k.Windows&1][src*len(k.lanes)+dst]
	ob.posts = append(ob.posts, post{at: at, srcNode: srcNode, srcSeq: srcSeq, fn: fn})
	if at < ob.min {
		ob.min = at
	}
}

// merge moves lane dst's mail out of one parity's outboxes into the lane, in
// the deterministic (time, source node, source sequence) order. It is the one
// place mail is sorted and scheduled. Whoever runs the lane calls it, on the
// previous window's mail before RunUntil; the coordinator calls it for every
// lane, on what the last window posted, when the window loop ends.
func (k *Kernel) merge(dst int, mail []outbox) {
	b := k.batch[dst]
	for src := range k.lanes {
		ob := &mail[src*len(k.lanes)+dst]
		if len(ob.posts) == 0 {
			continue
		}
		b = append(b, ob.posts...)
		// Clear the closure slots so merged posts are released, keeping the
		// backing array pooled for the window after next.
		clear(ob.posts)
		ob.posts, ob.min = ob.posts[:0], Never
	}
	// The key is a total order (a node never reuses a sequence number), so
	// any correct sort produces the same batch; and a global sort restricted
	// to one destination is that destination's sort.
	sortPosts(b)
	l := k.lanes[dst]
	switch {
	case len(b) == 0:
	case l.far != nil:
		// A deep lane takes the batch as it stands: its mail run is kept in
		// dispatch order beside the wheel.
		if b[0].at < l.now {
			panic(fmt.Sprintf("sim: scheduling at %v before now %v", b[0].at, l.now))
		}
		l.far.merge(l, b)
	default:
		for i := range b {
			l.At(b[i].at, b[i].fn)
		}
	}
	clear(b)
	k.batch[dst] = b[:0]
}

// before orders mailbox entries by (time, source node, source sequence).
func (p *post) before(o *post) bool {
	if p.at != o.at {
		return p.at < o.at
	}
	if p.srcNode != o.srcNode {
		return p.srcNode < o.srcNode
	}
	return p.srcSeq < o.srcSeq
}

// sortPosts sorts b by before, in place. A window's batch is a few dozen
// posts in little order: a quicksort (median-of-three pivot, insertion sort
// below 12 posts) whose comparisons inline sorts it a fifth faster than
// slices.SortFunc, whose comparator copies both posts at each call. A
// partition that keeps coming out lopsided hands its range to
// slices.SortFunc, so the worst case stays n log n.
func sortPosts(b []post) {
	for depth := 2 * bits.Len(uint(len(b))); len(b) > 12; depth-- {
		if depth == 0 {
			slices.SortFunc(b, func(p, o post) int {
				if p.before(&o) {
					return -1
				}
				return 1
			})
			return
		}
		m, l := len(b)/2, len(b)-1
		if b[m].before(&b[0]) {
			b[0], b[m] = b[m], b[0]
		}
		if b[l].before(&b[m]) {
			b[m], b[l] = b[l], b[m]
			if b[m].before(&b[0]) {
				b[0], b[m] = b[m], b[0]
			}
		}
		pivot := b[m]
		i, j := 0, l
		for {
			for b[i].before(&pivot) {
				i++
			}
			for pivot.before(&b[j]) {
				j--
			}
			if i >= j {
				break
			}
			b[i], b[j] = b[j], b[i]
			i, j = i+1, j-1
		}
		if j+1 < len(b)-j-1 { // recurse into the smaller side
			sortPosts(b[:j+1])
			b = b[j+1:]
		} else {
			sortPosts(b[j+1:])
			b = b[:j+1]
		}
	}
	for i := 1; i < len(b); i++ {
		p, k := b[i], i
		for ; k > 0 && p.before(&b[k-1]); k-- {
			b[k] = b[k-1]
		}
		b[k] = p
	}
}

// Run executes the sharded simulation to completion: windows advance until
// every lane is drained and no mail is pending. Like Sim.Run, coroutine
// processes still blocked at global quiescence are deadlocked and Run
// panics with a Deadlock.
func (k *Kernel) Run() {
	hp := k.prof
	if hp != nil {
		hp.horizon = 0 // no target: progress reports show an unknown ETA
		hp.mark = time.Now()
	}
	k.runWindows(Never)
	k.horizon = -1
	p := k.blockedProcs()
	if hp != nil {
		hp.tail()
	}
	if p > 0 {
		panic(Deadlock(fmt.Sprintf("sim: deadlock: %d process(es) still blocked across %d lanes with no pending events or mail", p, len(k.lanes))))
	}
}

// RunUntil executes whole synchronization windows until every event at or
// before t has run, then advances each lane's clock to at least t and fires
// the barrier ticks due through t.
//
// The effective horizon rounds UP to the next window barrier: the window
// whose minimum event time m lies at or before t runs to its full horizon
// m+lookahead−1, so events within lookahead−1 beyond t may execute with it.
// That smear is bounded by one hop latency and — like the window sequence
// itself — depends only on global minimum event times, never on the
// partition, so a horizon-driven run is bit-identical at every shard count
// and its window prefix is exactly what a plain Run would have executed.
//
// Unlike Run, barrier ticks due at or before t fire even when the lanes are
// already quiescent (events exhausted): a periodic monitor registered with
// Every keeps observing under a RunUntil-driven loop exactly as a classic
// Sim's self-rescheduling monitor does, without keeping the machine alive.
// Processes still blocked past the horizon are legal here — only Run's
// final quiescence performs the deadlock check.
func (k *Kernel) RunUntil(t Time) {
	hp := k.prof
	if hp != nil {
		hp.horizon = t
		hp.mark = time.Now()
	}
	k.runWindows(t)
	// The last window may have stopped short of t (next event beyond t, or
	// none at all); lift the remaining lane clocks so Now() reads t, exactly
	// like Sim.RunUntil. Lanes the last horizon already carried past t keep
	// their (shard-invariant) later clock.
	for _, l := range k.lanes {
		if l.Now() < t {
			l.RunUntil(t)
		}
	}
	k.horizon = -1
	if len(k.ticks) > 0 {
		k.fireTicks(t + 1)
	}
	if hp != nil {
		hp.tail()
		hp.horizon = 0
	}
}

// runWindows advances the window protocol while the minimum next-event time
// lies at or before limit. On return all mail is merged into lanes (the loop's
// exit does what the next window's runners would have) and the next pending
// event, if any, lies beyond limit. The coordinator runs under a lane=0 pprof
// label (it executes lane 0's events itself), so CPU profiles attribute every
// sample to a lane.
func (k *Kernel) runWindows(limit Time) {
	pprof.Do(context.Background(), pprof.Labels("lane", "0"), func(context.Context) {
		k.windowLoop(limit)
	})
}

func (k *Kernel) windowLoop(limit Time) {
	k.stride = min(len(k.workers), runtime.GOMAXPROCS(0))
	if k.stride > 1 {
		k.startWorkers()
		defer k.stopWorkers()
	}
	for i, l := range k.lanes { // the caller may have scheduled on the lanes
		k.next[i] = l.due()
	}
	hp := k.prof
	// hp.mark is the running segment boundary: the profiled wall-clock is an
	// unbroken chain of drain segments (coordinator bookkeeping, lanes idle)
	// and window-execution segments (fork to join), each ending where the
	// next begins, so WallNs == DrainNs + ExecNs with no unattributed gaps.
	// The chain opens at Run's entry and its last drain segment is closed by
	// hp.tail, so worker start-up and shutdown are inside it too.
	for {
		// What the last window posted (or the caller, before the first) is
		// merged by the next window's runners; here its minima join the lanes'
		// own next-event times, which is all the coordinator needs of it.
		mail := k.out[k.Windows&1]
		m := Never
		for dst := range k.next {
			for src := range k.lanes {
				k.next[dst] = min(k.next[dst], mail[src*len(k.lanes)+dst].min)
			}
			m = min(m, k.next[dst])
		}
		if m == Never || m > limit {
			for dst := range k.lanes {
				k.merge(dst, mail)
			}
			return
		}
		if len(k.ticks) > 0 {
			k.fireTicks(m)
		}
		h := m + k.lookahead - 1
		k.horizon = h
		k.Windows++
		var forkAt time.Time
		if hp != nil {
			forkAt = time.Now()
			d := forkAt.Sub(hp.mark)
			hp.drainNs += int64(d)
			hp.wallNs += int64(d)
		}
		k.window(h)
		if hp != nil {
			hp.mark = time.Now()
			exec := hp.mark.Sub(forkAt)
			hp.wallNs += int64(exec)
			hp.window(k, exec)
		}
	}
}

// due is the time of the lane's next event, Never when it has none.
func (s *Sim) due() Time {
	if at, ok := s.nextAt(); ok {
		return at
	}
	return Never
}

// window runs every lane to h. forked is the set of workers signalled: those
// holding an event or mail due at or before h, when more than one does. The
// coordinator runs everyone else's lanes — its own, and each idle worker's:
// a merge of mail that is not due yet and an O(1) clock lift.
func (k *Kernel) window(h Time) {
	var forked uint64
	for i, at := range k.next {
		if at <= h {
			forked |= 1 << (i % k.stride)
		}
	}
	if forked&(forked-1) == 0 { // at most one worker has anything to do
		forked = 0
		k.inline++
	}
	forked &^= 1
	for w := 1; w < k.stride; w++ {
		if forked>>w&1 != 0 {
			k.workers[w].work.publish(k.Windows)
		}
	}
	var failed *Panic
	for w := 0; w < k.stride && failed == nil; w++ {
		if forked>>w&1 == 0 {
			failed = k.runLanes(w, h)
		}
	}
	for w := 1; w < k.stride; w++ {
		if forked>>w&1 != 0 {
			k.workers[w].done.await(k.Windows)
			if failed == nil {
				failed = k.workers[w].failed
			}
		}
	}
	if failed != nil {
		panic(failed)
	}
}

// runLanes is one window of worker w's lanes (w, w+W, …): each takes in the
// mail the previous window posted to it, runs to h and publishes when its
// next event is due, all of it timed into laneBusy when the profiler is on.
// A panic on a worker's stack would kill the program past any recover in
// Run's caller, so whichever goroutine ran the lane it comes back attributed
// and the coordinator re-raises it.
func (k *Kernel) runLanes(w int, h Time) (failed *Panic) {
	i := w
	defer func() {
		if r := recover(); r != nil {
			failed = wrapPanic(r, "lane "+strconv.Itoa(i), k.lanes[i].now)
		}
	}()
	mail := k.out[(k.Windows+1)&1]
	for ; i < len(k.lanes); i += k.stride {
		var t0 time.Time
		if k.laneBusy != nil {
			t0 = time.Now()
		}
		k.merge(i, mail)
		k.lanes[i].RunUntil(h)
		k.next[i] = k.lanes[i].due()
		if k.laneBusy != nil {
			k.laneBusy[i] = int64(time.Since(t0))
		}
	}
	return nil
}

// A gate's poll budget: spinTight polls back to back (about a microsecond),
// polls that yield the P up to spinYield (a millisecond or two — longer than
// an ordinary straggler or drain, since a park and its wake-up are two trips
// through the scheduler), then a park, so a long-idle worker frees its core.
const (
	spinTight = 1_000
	spinYield = 20_000
	stopEpoch = math.MaxUint64 // published in place of a window number: exit
)

// gate is one direction of the barrier: a rising epoch its one publisher
// stores and its one waiter polls; parks counts the waiter's parks.
type gate struct {
	epoch  atomic.Uint64
	asleep atomic.Bool
	wake   chan struct{} // one slot: at most one wake-up is ever in flight
	parks  uint64
}

// worker is one worker's barrier state, padded so that no two workers'
// polled words share a cache line.
type worker struct {
	work   gate   // coordinator → worker: run the window with this number
	done   gate   // worker → coordinator: that window is finished
	failed *Panic // the window's panic, written before done is published
	_      [64]byte
}

func (g *gate) publish(e uint64) {
	g.epoch.Store(e)
	if g.asleep.Load() && g.asleep.CompareAndSwap(true, false) {
		g.wake <- struct{}{}
	}
}

// await returns the epoch once it has reached min. Parking is the usual
// store-flag-then-recheck: whoever swaps asleep back to false owns the
// wake-up, so the publisher sends exactly when the waiter receives.
func (g *gate) await(min uint64) uint64 {
	for spins := 0; ; spins++ {
		if e := g.epoch.Load(); e >= min {
			return e
		}
		switch {
		case spins < spinTight:
		case spins < spinYield:
			runtime.Gosched()
		default:
			g.parks++
			g.asleep.Store(true)
			if g.epoch.Load() < min || !g.asleep.CompareAndSwap(true, false) {
				<-g.wake
			}
			spins = 0
		}
	}
}

// startWorkers launches workers 1..W-1 for one Run/RunUntil, each under the
// pprof label of its lowest lane.
func (k *Kernel) startWorkers() {
	for w := 1; w < k.stride; w++ {
		ws := &k.workers[w]
		ws.work.epoch.Store(0)
		ws.done.epoch.Store(0)
		first := k.Windows + 1
		go pprof.Do(context.Background(), pprof.Labels("lane", strconv.Itoa(w)), func(context.Context) {
			e := ws.work.await(first)
			for ; e != stopEpoch; e = ws.work.await(e + 1) {
				ws.failed = k.runLanes(w, k.horizon)
				ws.done.publish(e)
			}
			ws.done.publish(e)
		})
	}
}

// stopWorkers releases the workers and waits until each has let go of the
// kernel — on a panicking window's way out too.
func (k *Kernel) stopWorkers() {
	for w := 1; w < k.stride; w++ {
		k.workers[w].work.publish(stopEpoch)
		k.workers[w].done.await(stopEpoch)
	}
}

// blockedProcs sums live coroutine processes across lanes at quiescence.
func (k *Kernel) blockedProcs() int {
	total := 0
	for _, l := range k.lanes {
		total += int(l.procs)
	}
	return total
}

// Now returns the kernel's clock: every lane shares the same window
// horizon, so lane 0's time stands for the machine's.
func (k *Kernel) Now() Time { return k.lanes[0].Now() }
