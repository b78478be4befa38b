package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

// scriptedMix schedules a little of everything a Sleep can meet on s: two
// sleepers whose wake-ups interleave and collide, timed and zero-delay events
// between them, a process woken by Raise that then sleeps, and a process
// spawned by an event. Every callback reports through rec.
func scriptedMix(s *Sim, rec func(label string)) {
	sig := &Signal{}
	s.Go("A", func(p *Proc) {
		rec("A starts")
		p.Sleep(10)
		rec("A slept to 10")
		p.Sleep(10) // collides with B's and C's wake-ups and the event at 20
		rec("A slept to 20")
		s.After(0, func() { rec("A's zero-delay event") })
		p.Sleep(0)
		rec("A slept 0")
		p.Sleep(15)
		rec("A slept to 35, raises")
		sig.Raise()
		rec("A raised")
		p.Sleep(5)
		rec("A slept to 40")
	})
	s.Go("B", func(p *Proc) {
		rec("B starts")
		p.Sleep(5)
		rec("B slept to 5")
		p.Sleep(15)
		rec("B slept to 20")
		p.Sleep(20)
		rec("B slept to 40")
	})
	s.Go("W", func(p *Proc) {
		rec("W starts, waits")
		sig.Wait(p)
		rec("W woken by the raise")
		p.Sleep(2)
		rec("W slept to 37")
		p.Sleep(3)
		rec("W slept to 40")
	})
	s.At(7, func() { rec("event at 7") })
	s.At(12, func() {
		rec("event at 12 spawns C")
		s.Go("C", func(p *Proc) {
			rec("C starts")
			p.Sleep(8)
			rec("C slept to 20")
			p.Sleep(30)
			rec("C slept to 50")
		})
	})
	s.At(20, func() {
		rec("event at 20")
		s.After(0, func() { rec("its zero-delay event") })
	})
}

// logTo returns a recorder appending "<now in ps> <label>" to log.
func logTo(s *Sim, log *[]string) func(label string) {
	return func(label string) { *log = append(*log, fmt.Sprint(int64(s.Now()), " ", label)) }
}

// mixLog runs scriptedMix on s under drive and returns the (time, label)
// sequence of its callbacks.
func mixLog(s *Sim, drive func()) []string {
	var log []string
	scriptedMix(s, logTo(s, &log))
	drive()
	return log
}

// mixOrder is what scriptedMix logged at PR 16 (5d38e23), when every Sleep
// parked and the run loop alone dispatched; it fired 21 events.
var mixOrder = []string{
	"0 A starts", "0 B starts", "0 W starts, waits", "5 B slept to 5", "7 event at 7", "10 A slept to 10",
	"12 event at 12 spawns C", "12 C starts", "20 event at 20", "20 B slept to 20", "20 A slept to 20",
	"20 C slept to 20", "20 its zero-delay event", "20 A's zero-delay event", "20 A slept 0",
	"35 A slept to 35, raises", "35 W woken by the raise", "35 A raised", "37 W slept to 37",
	"40 B slept to 40", "40 A slept to 40", "40 W slept to 40", "50 C slept to 50",
}

const mixFired = 21

func wantMix(t *testing.T, what string, got []string, fired uint64) {
	t.Helper()
	if !reflect.DeepEqual(got, mixOrder) || fired != mixFired {
		t.Errorf("%s: fired %d events in the order\n %q\nwant %d in the order\n %q", what, fired, got, mixFired, mixOrder)
	}
}

// TestSleepKeepsDispatchOrder: a Sleep that stays on the CPU runs the same
// callbacks in the same order as one that parks. Only A ever finds itself next
// in line: its five sleeps dispatch everyone else's events in place, B, C and
// W are woken from inside A's loop and park (B's three sleeps, C's two, W's
// wait and — woken by a Raise, then from the loop — its two sleeps).
func TestSleepKeepsDispatchOrder(t *testing.T) {
	s := New()
	wantMix(t, "Run", mixLog(s, s.Run), s.Fired)
	if s.Parks != 8 {
		t.Errorf("Parks = %d, want 8", s.Parks)
	}

	lone := New()
	lone.Go("lone", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Time(i % 3))
		}
	})
	lone.Run()
	if lone.Parks != 0 || lone.Fired != 101 || lone.Now() != 99 {
		t.Errorf("lone sleeper: Parks %d Fired %d Now %v, want 0, 101, 99ps", lone.Parks, lone.Fired, lone.Now())
	}
}

// TestSleepPastRunUntilParks: the horizon of a RunUntil bounds what a sleeper
// may dispatch. A wake-up beyond it is left for a later run.
func TestSleepPastRunUntilParks(t *testing.T) {
	s := New()
	var woke []Time
	s.Go("p", func(p *Proc) {
		for _, d := range []Time{10, 10, 100, 10} {
			p.Sleep(d)
			woke = append(woke, p.Now())
		}
	})
	check := func(now Time, parks uint64, want ...Time) {
		t.Helper()
		if s.Now() != now || s.Parks != parks || !reflect.DeepEqual(woke, want) {
			t.Errorf("Now %v Parks %d woke %v, want %v %d %v", s.Now(), s.Parks, woke, now, parks, want)
		}
	}
	s.RunUntil(40) // 10 and 20 in place; 120 is past the horizon
	check(40, 1, 10, 20)
	s.RunUntil(119)
	check(119, 1, 10, 20)
	s.RunUntil(120) // the run loop resumes it; 130 is past this horizon too
	check(120, 2, 10, 20, 120)
	s.Run()
	check(130, 2, 10, 20, 120, 130)
}

// TestSleepSteppedMatchesSingleShot: driving scriptedMix through RunUntil
// horizons that cut between, on and past its wake-ups, then finishing with
// Run, fires the same events in the same order as one Run — on a Sim and on
// each lane of a 1- and a 2-lane Kernel, whose short windows make most sleeps
// park and a few stay.
func TestSleepSteppedMatchesSingleShot(t *testing.T) {
	stepped := func(runUntil func(Time), run func()) func() {
		return func() {
			for h := Time(0); h < 60; h += 3 {
				runUntil(h)
			}
			run()
		}
	}
	s := New()
	wantMix(t, "stepped Sim", mixLog(s, stepped(s.RunUntil, s.Run)), s.Fired)

	for _, lanes := range []int{1, 2} {
		for _, step := range []bool{false, true} {
			k := NewKernel(lanes, 4)
			drive := k.Run
			if step {
				drive = stepped(k.RunUntil, k.Run)
			}
			logs := make([][]string, lanes)
			for i := range logs {
				scriptedMix(k.Lane(i), logTo(k.Lane(i), &logs[i]))
			}
			drive()
			for i, log := range logs {
				wantMix(t, fmt.Sprintf("%d-lane Kernel, stepped=%v, lane %d", lanes, step, i), log, k.Lane(i).Fired)
			}
		}
	}
}

// TestStopFromEventDispatchedInPlace: Stop ends Run after the event that
// called it even when a sleeping process was the one dispatching; the sleeper
// parks with its wake-up queued and a second Run carries on.
func TestStopFromEventDispatchedInPlace(t *testing.T) {
	s := New()
	var log []string
	rec := logTo(s, &log)
	s.Go("sleeper", func(p *Proc) {
		p.Sleep(10)
		rec("woke")
		p.Sleep(10)
		rec("woke")
	})
	s.At(5, func() {
		if !s.dispatching {
			t.Error("the event at 5 was not dispatched by the sleeper")
		}
		rec("stop")
		s.Stop()
	})
	s.At(6, func() { rec("event") })
	s.Run()
	if want := []string{"5 stop"}; !reflect.DeepEqual(log, want) || s.Pending() != 2 || s.dispatching {
		t.Fatalf("after Stop: log %q, %d pending, dispatching=%v; want %q, 2, false", log, s.Pending(), s.dispatching, want)
	}
	s.Run()
	if want := []string{"5 stop", "6 event", "10 woke", "20 woke"}; !reflect.DeepEqual(log, want) || s.Fired != 5 {
		t.Errorf("after the second Run: log %q, Fired %d; want %q, 5", log, s.Fired, want)
	}
}

// TestMaxEventsTripsInPlace: the guard counts events a sleeper dispatches and
// the wake-up it takes in place exactly as the run loop would, and trips at
// the same event.
func TestMaxEventsTripsInPlace(t *testing.T) {
	s := New()
	s.MaxEvents = 3
	s.Go("sleeper", func(p *Proc) { p.Sleep(10) })
	for at := Time(1); at <= 4; at++ {
		s.At(at, func() {})
	}
	e, ok := recovered(s.Run).(*Panic)
	if !ok || e.Where != "event dispatched from process sleeper" || e.At != 3 || e.Value != "sim: exceeded MaxEvents=3 at 3ps" || s.Fired != 4 {
		t.Errorf("inside an in-place dispatch: %v (Fired %d), want the guard tripping at 3ps on the 4th event", e, s.Fired)
	}

	s = New()
	s.MaxEvents = 1
	s.Go("sleeper", func(p *Proc) { p.Sleep(10) })
	e, ok = recovered(s.Run).(*Panic)
	if !ok || e.Where != "event dispatched from process sleeper" || e.At != 10 || e.Value != "sim: exceeded MaxEvents=1 at 10ps" || s.Fired != 2 {
		t.Errorf("on an in-place wake: %v (Fired %d), want the guard tripping at 10ps on the 2nd event", e, s.Fired)
	}
}

// TestOnlyOneProcessDispatches: Q is resumed by its own wake-up — a whole
// event — but from inside D's loop, and sleeps past D's wake-up. Were Q to
// dispatch it would have to resume D, which sits beneath it on the stack; it
// parks, and D takes its own wake-up.
func TestOnlyOneProcessDispatches(t *testing.T) {
	s := New()
	var log []string
	rec := logTo(s, &log)
	s.Go("D", func(p *Proc) {
		rec("D starts")
		p.Sleep(10)
		if s.dispatching || s.Parks != 2 {
			t.Errorf("D woke with dispatching=%v after %d parks, want false after Q's 2", s.dispatching, s.Parks)
		}
		rec("D woke")
	})
	s.Go("Q", func(p *Proc) {
		rec("Q starts")
		p.Sleep(3)
		rec("Q woke")
		p.Sleep(20)
		rec("Q woke")
	})
	s.Run()
	if want := []string{"0 D starts", "0 Q starts", "3 Q woke", "10 D woke", "23 Q woke"}; !reflect.DeepEqual(log, want) || s.Parks != 2 {
		t.Errorf("log %q, Parks %d; want %q, 2", log, s.Parks, want)
	}
}

// TestSleepInPlaceCostsNothingThatGrows: 10,000 sleeps that each dispatch an
// event in place allocate nothing, start no goroutine and leave the
// coroutine's stack — the sleeper's frames and the events' on top of them —
// as deep as it was.
func TestSleepInPlaceCostsNothingThatGrows(t *testing.T) {
	depth := func() int { return runtime.Callers(0, make([]uintptr, 256)) }
	s := New()
	sleeping, measuring := true, false
	ticks, shallowest, deepest := 0, 256, 0
	var tick func()
	tick = func() {
		if measuring {
			ticks++
			shallowest, deepest = min(shallowest, depth()), max(deepest, depth())
		}
		if sleeping {
			s.After(2, tick)
		}
	}
	s.Go("sleeper", func(p *Proc) {
		s.After(1, tick)
		for i := 0; i < 100; i++ { // the queues reach their capacity
			p.Sleep(2)
		}
		var before, after runtime.MemStats
		body, goroutines := depth(), runtime.NumGoroutine()
		measuring = true
		runtime.ReadMemStats(&before)
		for i := 0; i < 10_000; i++ {
			p.Sleep(2)
		}
		runtime.ReadMemStats(&after)
		measuring, sleeping = false, false
		// Both counts are the whole process's: goroutines earlier tests left
		// winding down may allocate a little, or exit, meanwhile.
		if n := after.Mallocs - before.Mallocs; n >= 100 {
			t.Errorf("%d allocations over 10,000 in-place sleeps", n)
		}
		if d, g := depth(), runtime.NumGoroutine(); d != body || g > goroutines {
			t.Errorf("sleeper's stack depth %d -> %d, goroutines %d -> %d", body, d, goroutines, g)
		}
	})
	s.Run()
	if s.Parks != 0 || ticks != 10_000 || shallowest != deepest {
		t.Errorf("Parks %d, %d events dispatched in place at stack depths %d..%d; want 0, 10000, one depth",
			s.Parks, ticks, shallowest, deepest)
	}
}

// TestSimKeepsItsCacheLinesToItself pins the size the layout comment on Sim
// explains (measurements in DESIGN.md §7).
func TestSimKeepsItsCacheLinesToItself(t *testing.T) {
	if n := unsafe.Sizeof(Sim{}); n > 128 {
		t.Errorf("Sim is %d bytes, want at most 128", n)
	}
}
