package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ps"},
		{500 * Picosecond, "500ps"},
		{75 * Nanosecond, "75.00ns"},
		{5390 * Nanosecond, "5.39us"},
		{2 * Microsecond, "2.00us"},
		{3*Millisecond + 500*Microsecond, "3.500ms"},
		{2 * Second, "2.0000s"},
		{Never, "never"},
		{-75 * Nanosecond, "-75.00ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestBytesAtExactRates(t *testing.T) {
	// One byte at 2.5 GB/s is exactly 400 ps (SeaStar link payload rate).
	if got := BytesAt(1, 2_500_000_000); got != 400*Picosecond {
		t.Errorf("1B @ 2.5GB/s = %v, want 400ps", got)
	}
	// 64-byte packet on the same link: 25.6 ns, rounded up to 25600 ps.
	if got := BytesAt(64, 2_500_000_000); got != 25600*Picosecond {
		t.Errorf("64B @ 2.5GB/s = %v, want 25.6ns", got)
	}
	// 8 MB at 1 GB/s is exactly 8388.608 us.
	if got := BytesAt(8<<20, 1_000_000_000); got != 8388608*Nanosecond {
		t.Errorf("8MB @ 1GB/s = %v", got)
	}
	if got := BytesAt(0, 1000); got != 0 {
		t.Errorf("0 bytes took %v", got)
	}
	if got := BytesAt(100, 0); got != 0 {
		t.Errorf("zero rate gave %v", got)
	}
}

func TestBytesAtRoundsUp(t *testing.T) {
	// 1 byte at 3 GB/s = 333.33 ps, must round up to 334.
	if got := BytesAt(1, 3_000_000_000); got != 334*Picosecond {
		t.Errorf("1B @ 3GB/s = %v, want 334ps", got)
	}
}

func TestBytesAtProperties(t *testing.T) {
	// Property: splitting a transfer in two never makes it faster, and the
	// result always covers the exact rational duration.
	f := func(n uint32, k uint16, rate uint32) bool {
		nn := int64(n%(1<<24)) + 1
		rr := int64(rate%3_000_000_000) + 1
		split := int64(k)%nn + 1
		whole := BytesAt(nn, rr)
		parts := BytesAt(split, rr) + BytesAt(nn-split, rr)
		if parts < whole {
			return false
		}
		// Exactness: whole must be >= true duration and < true + 2ps.
		truePs := float64(nn) * 1e12 / float64(rr)
		return float64(whole) >= truePs-0.5 && float64(whole) < truePs+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCycles(t *testing.T) {
	// One 500 MHz PowerPC cycle is exactly 2 ns.
	if got := Cycles(1, 500_000_000); got != 2*Nanosecond {
		t.Errorf("1 cycle @ 500MHz = %v, want 2ns", got)
	}
	// 1000 cycles at 2 GHz Opteron: 500 ns.
	if got := Cycles(1000, 2_000_000_000); got != 500*Nanosecond {
		t.Errorf("1000 cycles @ 2GHz = %v, want 500ns", got)
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.After(30*Nanosecond, func() { order = append(order, 3) })
	s.After(10*Nanosecond, func() { order = append(order, 1) })
	s.After(20*Nanosecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 30*Nanosecond {
		t.Errorf("final time %v", s.Now())
	}
}

func TestEventTieBreakIsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5*Nanosecond, func() { order = append(order, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-time events ran out of submission order: %v", order)
	}
}

func TestEventOrderingRandomized(t *testing.T) {
	// Property: events always fire in nondecreasing time order no matter the
	// submission order, including events scheduled from within events.
	rng := rand.New(rand.NewSource(42))
	s := New()
	var last Time = -1
	var schedule func(depth int)
	n := 0
	schedule = func(depth int) {
		if depth > 3 {
			return
		}
		for i := 0; i < 5; i++ {
			d := Time(rng.Intn(1000)) * Nanosecond
			n++
			s.After(d, func() {
				if s.Now() < last {
					t.Fatalf("time went backwards: %v after %v", s.Now(), last)
				}
				last = s.Now()
				schedule(depth + 1)
			})
		}
	}
	schedule(0)
	s.Run()
	if s.Fired == 0 {
		t.Fatal("nothing ran")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.After(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(5*Nanosecond, func() {})
	})
	s.Run()
}

func TestRunUntil(t *testing.T) {
	s := New()
	ran := 0
	s.After(10*Nanosecond, func() { ran++ })
	s.After(20*Nanosecond, func() { ran++ })
	s.RunUntil(15 * Nanosecond)
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if s.Now() != 15*Nanosecond {
		t.Errorf("now = %v, want 15ns", s.Now())
	}
	s.RunUntil(25 * Nanosecond)
	if ran != 2 {
		t.Errorf("ran = %d, want 2", ran)
	}
}

func TestStop(t *testing.T) {
	s := New()
	ran := 0
	s.After(1*Nanosecond, func() { ran++; s.Stop() })
	s.After(2*Nanosecond, func() { ran++ })
	s.Run()
	if ran != 1 {
		t.Errorf("ran = %d, want 1 (Stop should halt the loop)", ran)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
}

func TestProcSleep(t *testing.T) {
	s := New()
	var marks []Time
	s.Go("sleeper", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(5 * Microsecond)
		marks = append(marks, p.Now())
		p.Sleep(3 * Microsecond)
		marks = append(marks, p.Now())
	})
	s.Run()
	want := []Time{0, 5 * Microsecond, 8 * Microsecond}
	if len(marks) != 3 || marks[0] != want[0] || marks[1] != want[1] || marks[2] != want[2] {
		t.Errorf("marks = %v, want %v", marks, want)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					p.Sleep(10 * Nanosecond)
				}
			})
		}
		s.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatalf("nondeterministic length: %v vs %v", again, first)
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, again, first)
			}
		}
	}
}

func TestSignalWakesWaitersInOrder(t *testing.T) {
	s := New()
	sig := &Signal{}
	var order []string
	s.Go("w1", func(p *Proc) {
		sig.Wait(p)
		order = append(order, "w1")
	})
	s.Go("w2", func(p *Proc) {
		sig.Wait(p)
		order = append(order, "w2")
	})
	s.Go("raiser", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		sig.Raise()
		order = append(order, "raiser")
	})
	s.Run()
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" {
		t.Errorf("order = %v", order)
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected deadlock panic")
		}
	}()
	s := New()
	sig := &Signal{}
	s.Go("stuck", func(p *Proc) { sig.Wait(p) })
	s.Run()
}

func TestServerFIFO(t *testing.T) {
	s := New()
	sv := NewServer(s, "link")
	var done []Time
	// Three 10 ns jobs submitted together serialize back to back.
	for i := 0; i < 3; i++ {
		sv.Submit(10*Nanosecond, func() { done = append(done, s.Now()) })
	}
	s.Run()
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("job %d done at %v, want %v", i, done[i], want[i])
		}
	}
	if sv.Busy != 30*Nanosecond {
		t.Errorf("busy = %v", sv.Busy)
	}
	if sv.Jobs != 3 {
		t.Errorf("jobs = %d", sv.Jobs)
	}
}

func TestServerIdleGap(t *testing.T) {
	s := New()
	sv := NewServer(s, "link")
	var second Time
	sv.Submit(10*Nanosecond, nil)
	s.After(50*Nanosecond, func() {
		sv.Submit(10*Nanosecond, func() { second = s.Now() })
	})
	s.Run()
	if second != 60*Nanosecond {
		t.Errorf("second job done at %v, want 60ns (starts when submitted, not queued behind idle time)", second)
	}
}

func TestServerSubmitAfter(t *testing.T) {
	s := New()
	sv := NewServer(s, "stage")
	var done Time
	// Data not ready until t=100ns even though the server is free.
	sv.SubmitAfter(100*Nanosecond, 10*Nanosecond, func() { done = s.Now() })
	s.Run()
	if done != 110*Nanosecond {
		t.Errorf("done at %v, want 110ns", done)
	}
}

func TestServerProperties(t *testing.T) {
	// Property: with FIFO service, completion times are nondecreasing and
	// total busy time equals the sum of durations.
	f := func(durs []uint16) bool {
		s := New()
		sv := NewServer(s, "x")
		var sum Time
		var last Time = -1
		ok := true
		for _, d := range durs {
			dt := Time(d) * Nanosecond
			sum += dt
			sv.Submit(dt, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		s.Run()
		return ok && sv.Busy == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCreditsImmediateGrant(t *testing.T) {
	s := New()
	c := NewCredits(s, "fifo", 100)
	granted := false
	c.Take(40, func() { granted = true })
	s.Run()
	if !granted {
		t.Error("grant never happened")
	}
	if c.Available() != 60 {
		t.Errorf("available = %d, want 60", c.Available())
	}
}

func TestCreditsBackpressure(t *testing.T) {
	s := New()
	c := NewCredits(s, "fifo", 100)
	var order []int
	c.Take(80, func() { order = append(order, 1) })
	c.Take(80, func() { order = append(order, 2) }) // must wait
	c.Take(10, func() { order = append(order, 3) }) // fits, but FIFO: waits behind 2
	s.After(10*Nanosecond, func() { c.Put(80) })
	s.After(20*Nanosecond, func() { c.Put(80) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3] (strict FIFO)", order)
	}
	if c.Waits != 2 {
		t.Errorf("waits = %d, want 2", c.Waits)
	}
}

func TestCreditsOverflowPanics(t *testing.T) {
	s := New()
	c := NewCredits(s, "fifo", 10)
	defer func() {
		if recover() == nil {
			t.Error("expected overflow panic")
		}
	}()
	c.Put(1)
}

func TestCreditsConservation(t *testing.T) {
	// Property: after any balanced sequence of Take/Put, available returns
	// to capacity and every grant fired exactly once.
	f := func(reqs []uint8) bool {
		s := New()
		c := NewCredits(s, "p", 256)
		grants := 0
		taken := make([]int64, 0, len(reqs))
		for _, r := range reqs {
			n := int64(r)
			taken = append(taken, n)
			c.Take(n, func() { grants++ })
		}
		// Return credits gradually.
		for i, n := range taken {
			n := n
			s.After(Time(i)*Nanosecond+Nanosecond, func() { c.Put(n) })
		}
		s.Run()
		return grants == len(reqs) && c.Available() == 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	s := New()
	s.MaxEvents = 10
	var loop func()
	loop = func() { s.After(Nanosecond, loop) }
	s.After(Nanosecond, loop)
	defer func() {
		if recover() == nil {
			t.Error("expected runaway panic")
		}
	}()
	s.Run()
}
