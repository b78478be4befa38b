package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Tests for the window barrier (shard.go: gate, worker, window): worker
// lifetime, workers owning several lanes, the park path, panic attribution
// and the allocation-free forked window.

// withProcs runs fn at the given GOMAXPROCS.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// waitFor polls cond (an event another goroutine is about to cause) and
// fails the test if it does not come true. It is called from lane handlers
// on worker goroutines too, so it never calls FailNow.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return
		}
	}
}

// TestKernelWorkersDoNotOutliveTheCall: workers are released, and gone,
// when Run/RunUntil returns — after a thousand stepped horizons and after a
// Run that panicked. A worker has published its last epoch a few
// instructions before it exits, so the count is given a moment to settle.
func TestKernelWorkersDoNotOutliveTheCall(t *testing.T) {
	withProcs(4, func() {
		base := runtime.NumGoroutine()
		settled := func() bool { return runtime.NumGoroutine() <= base }

		k := NewKernel(4, 100)
		runTokens(k, 8, 12)
		for at := Time(10); at <= 10_000; at += 10 {
			k.RunUntil(at)
		}
		k.Run()
		waitFor(t, "workers to exit after 1000 RunUntil steps", settled)

		k = NewKernel(4, 100)
		runTokens(k, 8, 4)
		k.Lane(2).At(300, func() { panic("boom") })
		if r := recovered(k.Run); r == nil {
			t.Fatal("Run did not panic")
		}
		waitFor(t, "workers to exit after a panicking Run", settled)
	})
}

// TestKernelWorkerOwnsSeveralLanes: with fewer Ps than lanes a worker runs
// lanes w, w+W, … and the per-node event logs are still those of one lane —
// evenly (8 lanes over 2 workers) and unevenly (over 3).
func TestKernelWorkerOwnsSeveralLanes(t *testing.T) {
	const nodes, hops = 8, 6
	ref := shardTrace(t, nodes, 1, hops)
	for _, procs := range []int{2, 3} {
		withProcs(procs, func() {
			if got := shardTrace(t, nodes, 8, hops); got != ref {
				t.Errorf("8 lanes at GOMAXPROCS=%d diverge from 1 lane:\nref:\n%s\ngot:\n%s", procs, ref, got)
			}
		})
	}
}

// idleLaneTrace runs a model in which node 1 fires once, idles for thousands
// of windows while node 0 ticks, and is reached again near the end by a post
// from node 0, in a window node 0 is busy in too. midway runs inside node
// 0's handler halfway through.
func idleLaneTrace(k *Kernel, midway func()) string {
	const L, ticks = Time(100), 4000
	lane1 := k.Shards() - 1
	var log []string
	var seq uint64
	n := 0
	var tick func()
	tick = func() {
		n++
		switch {
		case n == ticks/2 && midway != nil:
			midway()
		case n == ticks:
			seq++
			k.Post(0, lane1, k.Lane(0).Now()+L, 0, seq, func() {
				log = append(log, fmt.Sprintf("n1 woken at %d", k.Lane(lane1).Now()))
			})
		}
		if n < ticks+2 {
			k.Lane(0).After(L, tick)
		}
	}
	k.Lane(0).At(10, tick)
	k.Lane(lane1).At(10, func() { log = append(log, "n1 first at 10") })
	k.Run()
	log = append(log, fmt.Sprintf("ticks %d windows %d end %d", n, k.Windows, k.Now()))
	return strings.Join(log, "\n")
}

// TestKernelBarrierParks drives both directions onto the channel: a worker
// whose lane idles for thousands of (inline) windows parks and is woken by
// the window that reaches it, and a worker left waiting by a barrier tick
// that outlasts the poll budget parks and is woken by the next window.
// Either way the results are the one-lane results.
func TestKernelBarrierParks(t *testing.T) {
	ref := idleLaneTrace(NewKernel(1, 100), nil)
	withProcs(2, func() {
		k := NewKernel(2, 100)
		k.EnableHostProfile()
		asleep := &k.workers[1].work.asleep
		got := idleLaneTrace(k, func() { waitFor(t, "the idle lane's worker to park", asleep.Load) })
		if got != ref {
			t.Errorf("idle lane: 2 lanes diverge from 1:\nref:\n%s\ngot:\n%s", ref, got)
		}
		if p := k.Profile(); p.Parks == 0 || p.InlineWindows < 3000 || p.InlineWindows > p.Windows {
			t.Errorf("idle lane: profile reports %d parks and %d of %d windows inline; want the worker parked through ~4000 inline windows",
				p.Parks, p.InlineWindows, p.Windows)
		}

		const nodes, hops = 8, 6
		slow := func(k *Kernel) {
			k.EnableHostProfile()
			asleep := &k.workers[1].work.asleep
			k.Every(250, func(Time) { waitFor(t, "the worker to park during a slow tick", asleep.Load) })
			k.Run()
			if parks := k.Profile().Parks; parks < 2 {
				t.Errorf("slow tick: %d parks, want one per tick", parks)
			}
		}
		if got, ref := shardTraceDriven(t, nodes, 2, hops, slow), shardTrace(t, nodes, 1, hops); got != ref {
			t.Errorf("slow tick: 2 lanes diverge from 1:\nref:\n%s\ngot:\n%s", ref, got)
		}
	})
}

// TestKernelCoordinatorParks: the other gate. A lane on a worker that runs
// past the coordinator's poll budget puts the coordinator on the channel.
func TestKernelCoordinatorParks(t *testing.T) {
	withProcs(2, func() {
		k := NewKernel(2, 100)
		asleep := &k.workers[1].done.asleep
		ran := false
		k.Lane(0).At(10, func() {})
		k.Lane(1).At(10, func() {
			waitFor(t, "the coordinator to park", asleep.Load)
			ran = true
		})
		k.Run()
		if !ran || k.workers[1].done.parks == 0 {
			t.Errorf("ran=%v, coordinator parks=%d", ran, k.workers[1].done.parks)
		}
	})
}

// TestKernelLanePanicAttribution: whichever goroutine ran the lane, a
// handler panic arrives once, as a *Panic naming the lane and the time; of
// two panics in one window the same one wins every time — the lower lane of
// one worker, the lower worker of two.
func TestKernelLanePanicAttribution(t *testing.T) {
	cases := []struct {
		procs  int
		panics []int // lanes whose handler at t=9 panics
		want   string
	}{
		{2, []int{3}, "lane 3"},    // worker 1's second lane
		{2, []int{1, 3}, "lane 1"}, // both lanes of worker 1
		{2, []int{2}, "lane 2"},    // the coordinator's second lane
		{4, []int{2, 3}, "lane 2"}, // workers 2 and 3
		{4, []int{0, 1}, "lane 0"}, // the coordinator and worker 1
		{1, []int{3}, "lane 3"},    // no workers at all
	}
	for _, c := range cases {
		withProcs(c.procs, func() {
			for rep := 0; rep < 20; rep++ {
				k := NewKernel(4, 100)
				for i := 0; i < 4; i++ {
					k.Lane(i).At(5, func() {})
				}
				for _, lane := range c.panics {
					k.Lane(lane).At(9, func() { panic(fmt.Sprintf("lane %d broke", lane)) })
				}
				e, ok := recovered(k.Run).(*Panic)
				if !ok || e.Where != c.want || e.At != 9 || e.Value != c.want+" broke" {
					t.Fatalf("GOMAXPROCS=%d panics in %v: recovered %v, want *Panic from %s at 9", c.procs, c.panics, e, c.want)
				}
			}
		})
	}
}

// TestKernelForkedWindowAllocatesNothing, beside TestKernelDrainAllocatesNothing:
// 10 000 windows forked across two workers, each lane posting to the other in
// every one, allocate nothing per window — only the run's fixed start-up
// (worker goroutines and their pprof labels).
func TestKernelForkedWindowAllocatesNothing(t *testing.T) {
	withProcs(2, func() {
		k := NewKernel(2, 100)
		var ticks, mail [2]int
		var seq [2]uint64
		var tick [2]func()
		land := [2]func(){func() { mail[0]++ }, func() { mail[1]++ }}
		limit := 0
		for lane := 0; lane < 2; lane++ {
			s := k.Lane(lane)
			tick[lane] = func() {
				ticks[lane]++
				seq[lane]++
				k.Post(lane, 1-lane, s.Now()+100, int32(lane), seq[lane], land[1-lane])
				if ticks[lane] < limit {
					s.After(100, tick[lane])
				}
			}
		}
		run := func(windows int) uint64 {
			limit += windows
			for lane := 0; lane < 2; lane++ {
				k.Lane(lane).After(100, tick[lane])
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k.Run()
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		run(100) // grow the mailboxes, the batch and the lane heaps once
		const windows = 10_000
		allocs := run(windows)
		if allocs > windows/100 {
			t.Errorf("%d forked windows allocated %d objects, want 0 per window", windows, allocs)
		}
		if ticks != [2]int{windows + 100, windows + 100} || mail != ticks || k.inline > 4 {
			t.Errorf("ticks %v, mail %v, %d of %d windows inline: the windows were not forked", ticks, mail, k.inline, k.Windows)
		}
	})
}
