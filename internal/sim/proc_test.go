package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// recovered runs fn and returns what it panicked with (nil if it returned).
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// wantProcPanic checks r is a panic attributed to where, raised by explode.
func wantProcPanic(t *testing.T, r any, where string, at Time, value any) {
	t.Helper()
	e, ok := r.(*Panic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *sim.Panic", r, r)
	}
	if e.Where != where || e.At != at || e.Value != value {
		t.Errorf("panic = {%q %v %v}, want {%q %v %v}", e.Where, e.At, e.Value, where, at, value)
	}
	if !strings.Contains(string(e.Stack), "sim.explode") {
		t.Errorf("stack does not show the panicking frame:\n%s", e.Stack)
	}
	if msg := e.Error(); !strings.Contains(msg, where) || !strings.Contains(msg, fmt.Sprint(value)) {
		t.Errorf("message %q does not name %q and %v", msg, where, value)
	}
}

//go:noinline
func explode(v any) { panic(v) }

// TestProcPanicSurfacesFromRun: a panic in a process body unwinds Run, so a
// recover in Run's caller sees it, attributed with the process name and the
// virtual time.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	s := New()
	s.Go("bystander", func(p *Proc) { p.Sleep(10 * Microsecond) })
	s.Go("boom", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		explode("kaboom")
	})
	r := recovered(s.Run)
	wantProcPanic(t, r, "process boom", 3*Microsecond, "kaboom")
}

// TestNestedProcPanicWrappedOnce: a process woken from inside another
// process's body panics; the panic crosses both coroutines and is still
// attributed, once, to the process that raised it.
func TestNestedProcPanicWrappedOnce(t *testing.T) {
	s := New()
	sig := &Signal{}
	s.Go("inner", func(p *Proc) {
		sig.Wait(p)
		explode("inner broke")
	})
	s.Go("outer", func(p *Proc) {
		p.Sleep(Microsecond)
		sig.Raise()
		t.Error("outer continued past a wake that panicked")
	})
	wantProcPanic(t, recovered(s.Run), "process inner", Microsecond, "inner broke")
}

// TestEventPanicUnderSleeperNamesTheEvent: an event callback that panics while
// a sleeping process is dispatching it unwinds through that process's
// coroutine, yet surfaces from Run once, attributed to the event — the
// sleeper carried it, it did not cause it — with the callback's stack; on a
// kernel lane too. What the sleeper's own body does afterwards is still its own.
func TestEventPanicUnderSleeperNamesTheEvent(t *testing.T) {
	s := New()
	s.Go("sleeper", func(p *Proc) { p.Sleep(10 * Microsecond) })
	s.At(4*Microsecond, func() { explode("handler broke") })
	wantProcPanic(t, recovered(s.Run), "event dispatched from process sleeper", 4*Microsecond, "handler broke")

	k := NewKernel(2, 100)
	k.Lane(0).At(5, func() {})
	k.Lane(1).Go("sleeper", func(p *Proc) { p.Sleep(50) })
	k.Lane(1).At(9, func() { explode("handler broke") })
	wantProcPanic(t, recovered(k.Run), "event dispatched from process sleeper", 9, "handler broke")

	s = New()
	s.Go("sleeper", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		explode("body broke")
	})
	s.At(4*Microsecond, func() {})
	wantProcPanic(t, recovered(s.Run), "process sleeper", 10*Microsecond, "body broke")
	if s.Parks != 0 {
		t.Errorf("the sleeper parked %d times, want every sleep in place", s.Parks)
	}
}

// TestKernelProcPanicSurfaces: the same through Kernel.Run, for a process on
// a worker lane (parallel workers) and on the inline GOMAXPROCS=1 path. A
// plain event-handler panic on a worker lane is recoverable too.
func TestKernelProcPanicSurfaces(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		k := NewKernel(2, 100)
		k.Lane(0).At(5, func() {})
		k.Lane(1).Go("boom", func(p *Proc) {
			p.Sleep(7)
			explode("kaboom")
		})
		wantProcPanic(t, recovered(k.Run), "process boom", 7, "kaboom")

		k = NewKernel(2, 100)
		k.Lane(0).At(5, func() {})
		k.Lane(1).At(9, func() { panic("handler broke") })
		r := recovered(k.Run)
		runtime.GOMAXPROCS(prev)
		if r == nil || !strings.Contains(fmt.Sprint(r), "handler broke") {
			t.Errorf("GOMAXPROCS=%d: handler panic recovered as %v", procs, r)
		}
		if e, ok := r.(*Panic); procs > 1 && (!ok || e.Where != "lane 1" || e.At != 9) {
			t.Errorf("worker-lane handler panic = %v, want *Panic from lane 1 at 9", r)
		}
	}
}

// TestWakeDeadProcessPanics: waking a process whose body has returned is a
// model bug and still panics by name.
func TestWakeDeadProcessPanics(t *testing.T) {
	s := New()
	p := s.Go("done", func(p *Proc) {})
	s.Run()
	if r := recovered(p.resume); r != "sim: waking dead process done" {
		t.Errorf("recovered %v", r)
	}
}

// TestDeadlockDiagnostics pins the deadlock messages, counts included:
// finished processes are not counted, blocked ones are, across lanes.
func TestDeadlockDiagnostics(t *testing.T) {
	s := New()
	sig := &Signal{}
	s.Go("finishes", func(p *Proc) { p.Sleep(2 * Microsecond) })
	s.Go("stuck1", func(p *Proc) { sig.Wait(p) })
	s.Go("stuck2", func(p *Proc) { p.Sleep(Microsecond); sig.Wait(p) })
	want := "sim: deadlock: 2 process(es) still blocked with no pending events at 2.00us"
	if r := recovered(s.Run); r != Deadlock(want) {
		t.Errorf("Sim.Run: %v\nwant %v", r, want)
	}

	k := NewKernel(2, 100)
	for lane, n := range []int{1, 2} {
		l := k.Lane(lane)
		sig := &Signal{}
		for i := 0; i < n; i++ {
			l.Go("stuck", func(p *Proc) { sig.Wait(p) })
		}
	}
	want = "sim: deadlock: 3 process(es) still blocked across 2 lanes with no pending events or mail"
	if r := recovered(k.Run); r != Deadlock(want) {
		t.Errorf("Kernel.Run: %v\nwant %v", r, want)
	}
}

// TestNestedRaiseRunsWokenFirst: Raise from inside a process body switches
// straight into each waiter, which runs to its next park before the raiser
// continues.
func TestNestedRaiseRunsWokenFirst(t *testing.T) {
	s := New()
	sig := &Signal{}
	var log []string
	for _, name := range []string{"w1", "w2"} {
		s.Go(name, func(p *Proc) {
			sig.Wait(p)
			log = append(log, name+" woke")
			p.Sleep(Microsecond)
			log = append(log, name+" slept")
		})
	}
	s.Go("raiser", func(p *Proc) {
		p.Sleep(Microsecond)
		log = append(log, "raise")
		sig.Raise()
		log = append(log, "raised")
	})
	s.Run()
	want := []string{"raise", "w1 woke", "w2 woke", "raised", "w1 slept", "w2 slept"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("log = %v\nwant  %v", log, want)
	}
}
