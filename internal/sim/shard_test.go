package sim

import (
	"fmt"
	"strings"
	"testing"
)

// shardTrace runs a small token-passing model — N logical nodes passing
// counters around with cross-node latency ≥ lookahead — over the given
// shard count and returns each node's event log concatenated in node
// order. The log must be invariant under resharding.
func shardTrace(t *testing.T, nodes, shards int, hops int) string {
	return shardTraceDriven(t, nodes, shards, hops, func(k *Kernel) { k.Run() })
}

func shardTraceDriven(t *testing.T, nodes, shards int, hops int, drive func(*Kernel)) string {
	t.Helper()
	const L = Time(100)
	k := NewKernel(shards, L)
	laneOf := func(n int) int { return n * shards / nodes }
	logs := make([][]string, nodes)
	seqs := make([]uint64, nodes)

	// step executes at node n: log, then hand the token to two other nodes
	// (fan-out of 2 exercises same-timestamp ties through the mailbox).
	var step func(n, remaining int, tok int)
	step = func(n, remaining, tok int) {
		now := k.Lane(laneOf(n)).Now()
		logs[n] = append(logs[n], fmt.Sprintf("n%d t%d tok%d", n, now, tok))
		if remaining == 0 {
			return
		}
		for i, dst := range []int{(n + 3) % nodes, (n + 5) % nodes} {
			dst := dst
			at := now + L + Time(tok%3)
			tok2 := tok*2 + i
			seqs[n]++
			k.Post(laneOf(n), laneOf(dst), at, int32(n), seqs[n], func() {
				step(dst, remaining-1, tok2)
			})
		}
	}
	for n := 0; n < nodes; n++ {
		n := n
		k.Lane(laneOf(n)).At(Time(10+n%2), func() { step(n, hops, n) })
	}
	drive(k)
	var sb strings.Builder
	for n := 0; n < nodes; n++ {
		for _, l := range logs[n] {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestKernelReshardingInvariance is the kernel-level bit-identity check:
// the same model produces the same per-node event logs at any shard count.
func TestKernelReshardingInvariance(t *testing.T) {
	const nodes, hops = 8, 6
	ref := shardTrace(t, nodes, 1, hops)
	if !strings.Contains(ref, "tok") || len(ref) == 0 {
		t.Fatalf("reference trace empty")
	}
	for _, shards := range []int{2, 3, 4, 8} {
		got := shardTrace(t, nodes, shards, hops)
		if got != ref {
			t.Errorf("shards=%d trace diverges from shards=1:\nref:\n%s\ngot:\n%s", shards, ref, got)
		}
	}
}

// TestKernelLookaheadViolationPanics: a cross-lane post inside the current
// window is a broken model contract and must be caught, not silently
// misordered.
func TestKernelLookaheadViolationPanics(t *testing.T) {
	k := NewKernel(2, 100)
	k.Lane(0).At(10, func() {
		// at == now is far inside the horizon (10+100-1).
		k.Post(0, 1, 10, 0, 1, func() {})
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected lookahead-violation panic")
		} else if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	k.Run()
}

// TestKernelDeadlockPanics: a coroutine still parked when every lane and
// mailbox is empty is a deadlock, reported like Sim.Run does.
func TestKernelDeadlockPanics(t *testing.T) {
	k := NewKernel(2, 100)
	s := k.Lane(1)
	sig := &Signal{}
	s.Go("stuck", func(p *Proc) { sig.Wait(p) })
	k.Lane(0).At(5, func() {})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected deadlock panic")
		} else if !strings.Contains(fmt.Sprint(r), "deadlock") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	k.Run()
}

// TestKernelQuiescentTimes: after Run, every lane sits at the same final
// horizon, so the machine clock is well-defined and shard-invariant.
func TestKernelQuiescentTimes(t *testing.T) {
	var finish []Time
	for _, shards := range []int{1, 2, 4} {
		k := NewKernel(shards, 55)
		for i := 0; i < shards; i++ {
			k.Lane(i).At(Time(40+i), func() {})
		}
		k.Run()
		for i := 1; i < shards; i++ {
			if k.Lane(i).Now() != k.Lane(0).Now() {
				t.Errorf("shards=%d: lane %d at %v, lane 0 at %v", shards, i, k.Lane(i).Now(), k.Lane(0).Now())
			}
		}
		finish = append(finish, k.Now())
	}
	// Note the *absolute* finish time is allowed to differ across these
	// three kernels (the lanes hold different initial events); what matters
	// is intra-kernel agreement, checked above.
	_ = finish
}

// TestKernelRunUntilPrefixInvariance: a run driven by RunUntil horizons
// then finished with Run produces exactly the per-node event logs of a
// plain Run, at every shard count — the window prefix executed by RunUntil
// is what Run would have executed, and the resumed run continues it.
func TestKernelRunUntilPrefixInvariance(t *testing.T) {
	const nodes, hops = 8, 6
	ref := shardTrace(t, nodes, 1, hops)
	stepped := func(k *Kernel) {
		for h := Time(50); h <= 900; h += 50 {
			k.RunUntil(h)
			if now := k.Lane(0).Now(); now < h {
				t.Fatalf("after RunUntil(%d) lane 0 sits at %d", h, now)
			}
		}
		k.Run()
	}
	for _, shards := range []int{1, 2, 4} {
		if got := shardTraceDriven(t, nodes, shards, hops, stepped); got != ref {
			t.Errorf("shards=%d: RunUntil-driven trace diverges from plain Run:\nref:\n%s\ngot:\n%s", shards, ref, got)
		}
	}
}

// TestKernelRunUntilHorizonRounding pins the documented semantics: the
// window containing the limit runs to its full barrier (events within
// lookahead−1 beyond t execute with it), later events wait, and the lane
// clocks never read below t afterwards.
func TestKernelRunUntilHorizonRounding(t *testing.T) {
	k := NewKernel(2, 100)
	var fired []Time
	for _, at := range []Time{200, 250, 320, 700} {
		at := at
		k.Lane(1).At(at, func() { fired = append(fired, at) })
	}
	// Window m=200, horizon 299: 200 and 250 run, 320 (beyond the barrier)
	// and 700 do not — even though 320 > t was never requested.
	k.RunUntil(210)
	if want := []Time{200, 250}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("RunUntil(210) executed %v, want %v", fired, want)
	}
	for i := 0; i < 2; i++ {
		if now := k.Lane(i).Now(); now < 210 {
			t.Fatalf("lane %d at %v after RunUntil(210)", i, now)
		}
	}
	k.RunUntil(320)
	if want := []Time{200, 250, 320}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("RunUntil(320) executed %v, want %v", fired, want)
	}
	k.Run()
	if want := []Time{200, 250, 320, 700}; fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("final Run executed %v, want %v", fired, want)
	}
}

// TestKernelRunUntilTicksPastQuiescence: barrier ticks due at or before the
// horizon fire even after the lanes run dry — the property that lets a
// sharded machine's sampler keep sampling under a RunUntil-driven loop.
func TestKernelRunUntilTicksPastQuiescence(t *testing.T) {
	k := NewKernel(2, 100)
	var ticks []Time
	k.Every(100, func(at Time) { ticks = append(ticks, at) })
	k.Lane(0).At(10, func() {})
	k.RunUntil(550)
	if want := []Time{100, 200, 300, 400, 500}; fmt.Sprint(ticks) != fmt.Sprint(want) {
		t.Fatalf("ticks after RunUntil(550) = %v, want %v", ticks, want)
	}
	// A second horizon keeps the cadence without refiring anything.
	k.RunUntil(800)
	if want := []Time{100, 200, 300, 400, 500, 600, 700, 800}; fmt.Sprint(ticks) != fmt.Sprint(want) {
		t.Fatalf("ticks after RunUntil(800) = %v, want %v", ticks, want)
	}
	k.Run() // quiescent already; must not panic or fire more ticks
	if len(ticks) != 8 {
		t.Fatalf("Run after RunUntil fired extra ticks: %v", ticks)
	}
}

// TestKernelWindowCountInvariance: the window sequence depends only on the
// model, never on the partition.
func TestKernelWindowCountInvariance(t *testing.T) {
	var ref uint64
	for i, shards := range []int{1, 2, 4} {
		k := NewKernel(shards, 100)
		laneOf := func(n int) int { return n * shards / 4 }
		var seq uint64
		var ping func(n, depth int)
		ping = func(n, depth int) {
			if depth == 0 {
				return
			}
			now := k.Lane(laneOf(n)).Now()
			seq++
			dst := (n + 1) % 4
			k.Post(laneOf(n), laneOf(dst), now+150, int32(n), seq, func() { ping(dst, depth-1) })
		}
		k.Lane(0).At(1, func() { ping(0, 10) })
		k.Run()
		if i == 0 {
			ref = k.Windows
		} else if k.Windows != ref {
			t.Errorf("shards=%d: %d windows, want %d", shards, k.Windows, ref)
		}
	}
}

// TestKernelDrainAllocatesNothing pins the mailboxes' steady state: posting a
// window's mail — none, one or many posts, from both lanes — and merging it
// into its destination lane sorts and schedules it without allocating, and
// every post lands exactly once, in key order. A thin-window job runs tens of
// thousands of windows per second of wall-clock, so one allocation here is
// most of its total.
func TestKernelDrainAllocatesNothing(t *testing.T) {
	for _, posts := range []int{0, 1, 64} {
		k := NewKernel(2, 10*Nanosecond)
		var landed []int32
		land := make([]func(), posts+1)
		for i := range land {
			land[i] = func() { landed = append(landed, int32(i)) }
		}
		at := Time(0)
		var seq uint64
		window := func() {
			at += k.Lookahead()
			// Posted in descending key order, so the sort has work to do.
			for i := posts; i > 0; i-- {
				seq++
				k.Post(i&1, 1, at, int32(i), seq, land[i])
			}
			mail := k.out[k.Windows&1]
			for dst := 0; dst < 2; dst++ {
				k.merge(dst, mail)
			}
			for i := range mail {
				if len(mail[i].posts) != 0 || mail[i].min != Never {
					t.Fatalf("outbox %d holds %d posts (min %v) after the merge", i, len(mail[i].posts), mail[i].min)
				}
			}
			if got := k.Lane(0).Pending() + k.Lane(1).Pending(); got != posts {
				t.Fatalf("%d events pending after merging %d posts", got, posts)
			}
			landed = landed[:0]
			k.Lane(1).RunUntil(at)
			for i, node := range landed {
				if node != int32(i+1) {
					t.Fatalf("post %d of the window came from node %d: %v", i, node, landed)
				}
			}
			if len(landed) != posts {
				t.Fatalf("%d of %d posts landed", len(landed), posts)
			}
		}
		window() // grow the outboxes, the batch and the lane queue once
		if got := testing.AllocsPerRun(50, window); got != 0 {
			t.Errorf("a window with %d posts allocates %.0f objects, want 0", posts, got)
		}
	}
}

// mergeTrace runs a model that sends all its work through the mailboxes — a
// node posts to itself, to a neighbour (often on its own lane) and to node 0,
// where the posts of every node visited in the same round fall on one instant
// and only (source node, source sequence) orders them — starting from mail
// posted before the run, and returns the per-node (time, label) logs.
func mergeTrace(lanes int, drive func(*Kernel)) string {
	const L, nodes, depth = Time(100), 12, 4
	k := NewKernel(lanes, L)
	laneOf := func(n int) int { return n * lanes / nodes }
	logs := make([][]string, nodes)
	seqs := make([]uint64, nodes)
	post := func(from, to int, at Time, fn func()) {
		seqs[from]++
		k.Post(laneOf(from), laneOf(to), at, int32(from), seqs[from], fn)
	}
	var visit func(n, ttl int, label string)
	visit = func(n, ttl int, label string) {
		now := k.Lane(laneOf(n)).Now()
		logs[n] = append(logs[n], fmt.Sprint(int64(now), " ", label))
		if ttl == 0 {
			return
		}
		next := (n + 1) % nodes
		post(n, n, now+L+Time(n%3), func() { visit(n, ttl-1, label+"s") })
		post(n, next, now+L, func() { visit(next, ttl-1, label+"n") })
		post(n, 0, (now/L+2)*L, func() { visit(0, 0, label+"z") })
	}
	for n := 0; n < nodes; n++ {
		post(n, n, Time(10+n%2), func() { visit(n, depth, fmt.Sprint("from", n, ":")) })
	}
	drive(k)
	var sb strings.Builder
	for n, log := range logs {
		fmt.Fprintf(&sb, "node %d: %s\n", n, strings.Join(log, ", "))
	}
	return sb.String()
}

// TestKernelMergeDeterminism: each lane sorting and scheduling its own mail
// gives every node the log one lane gives it — at every lane count, with no
// workers, a worker owning two lanes and a worker per lane, in one Run and
// stepped through RunUntil horizons that leave mail beyond them.
func TestKernelMergeDeterminism(t *testing.T) {
	ref := mergeTrace(1, (*Kernel).Run)
	if strings.Count(ref, ",") < 400 || !strings.Contains(ref, "z, ") {
		t.Fatalf("the reference log is too thin to order anything:\n%s", ref)
	}
	stepped := func(k *Kernel) {
		for h := Time(0); h < 800; h += 70 {
			k.RunUntil(h)
		}
		k.Run()
	}
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			for lanes := 1; lanes <= 4; lanes++ {
				if got := mergeTrace(lanes, (*Kernel).Run); got != ref {
					t.Errorf("GOMAXPROCS=%d, %d lanes diverge from 1 lane:\nref:\n%s\ngot:\n%s", procs, lanes, ref, got)
				}
				if got := mergeTrace(lanes, stepped); got != ref {
					t.Errorf("GOMAXPROCS=%d, %d lanes stepped diverge from one Run on 1 lane:\nref:\n%s\ngot:\n%s", procs, lanes, ref, got)
				}
			}
		})
	}
}

// TestKernelMailBeyondTheLimit: mail due after a RunUntil's limit is in its
// lane when the call returns — Pending counts it — and the next call delivers
// it; mail posted between calls is taken up the same way.
func TestKernelMailBeyondTheLimit(t *testing.T) {
	for lanes := 1; lanes <= 2; lanes++ {
		k := NewKernel(lanes, 100)
		far := lanes - 1
		var landed []Time
		land := func() { landed = append(landed, k.Lane(far).Now()) }
		k.Lane(0).At(10, func() { k.Post(0, far, 500, 0, 1, land) })
		k.RunUntil(200)
		if len(landed) != 0 || k.Lane(far).Pending() != 1 {
			t.Fatalf("%d lanes: after RunUntil(200) %v landed and %d events pend on the far lane, want none and 1", lanes, landed, k.Lane(far).Pending())
		}
		k.Post(0, far, 400, 0, 2, land) // from the driver, between calls
		k.RunUntil(450)
		if fmt.Sprint(landed) != "[400ps]" || k.Lane(far).Pending() != 1 {
			t.Fatalf("%d lanes: after RunUntil(450) %v landed, %d pending; want [400ps] and 1", lanes, landed, k.Lane(far).Pending())
		}
		k.Run()
		if fmt.Sprint(landed) != "[400ps 500ps]" {
			t.Fatalf("%d lanes: %v landed in all, want [400ps 500ps]", lanes, landed)
		}
	}
}
