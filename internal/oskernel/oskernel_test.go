package oskernel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"portals3/internal/model"
	"portals3/internal/sim"
)

func kernels(t testing.TB) (*sim.Sim, *Kernel, *Kernel) {
	t.Helper()
	s := sim.New()
	p := model.Defaults()
	return s, New(s, &p, Catamount, 0), New(s, &p, Linux, 1)
}

func TestTrapCosts(t *testing.T) {
	_, cat, lin := kernels(t)
	if cat.TrapCost() != 75*sim.Nanosecond {
		t.Errorf("Catamount trap = %v, want 75ns (§3.3)", cat.TrapCost())
	}
	if lin.TrapCost() <= cat.TrapCost() {
		t.Error("Linux syscalls must cost more than Catamount traps")
	}
}

func TestMemoryShapes(t *testing.T) {
	_, cat, lin := kernels(t)
	if segs := cat.NewRegion(1 << 20).Segments(); segs != 1 {
		t.Errorf("Catamount 1MB region has %d segments, want 1 (§3.3)", segs)
	}
	if segs := lin.NewRegion(1 << 20).Segments(); segs != 256 {
		t.Errorf("Linux 1MB region has %d segments, want 256 pages", segs)
	}
}

func TestPagedRegionReadWrite(t *testing.T) {
	_, _, lin := kernels(t)
	r := lin.NewRegion(10000)
	// Property: paged memory behaves exactly like flat memory.
	f := func(off uint16, data []byte) bool {
		o := int(off) % 9000
		if len(data) > 1000 {
			data = data[:1000]
		}
		r.WriteAt(o, data)
		got := make([]byte, len(data))
		r.ReadAt(o, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPagedRegionSpansPages(t *testing.T) {
	_, _, lin := kernels(t)
	r := lin.NewRegion(3 * 4096)
	span := make([]byte, 5000)
	for i := range span {
		span[i] = byte(i)
	}
	r.WriteAt(3000, span) // crosses two page boundaries
	got := make([]byte, 5000)
	r.ReadAt(3000, got)
	if !bytes.Equal(got, span) {
		t.Error("page-spanning write/read mismatch")
	}
}

func TestPagedRegionOutOfRangePanics(t *testing.T) {
	_, _, lin := kernels(t)
	r := lin.NewRegion(100)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.ReadAt(90, make([]byte, 20))
}

// panicOf runs fn and returns what it panicked with, nil if it returned.
func panicOf(fn func()) (v interface{}) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// backed reports whether the host has allocated any of r's bytes.
func backed(r Region) bool {
	switch r := r.(type) {
	case *contigRegion:
		return r.mem != nil
	case *pagedRegion:
		return r.pages != nil
	}
	panic("unknown region type")
}

// TestRegionAgainstFlatMemory: on both operating systems a region is flat
// memory of its length that starts as zeros — random reads, writes, segment
// queries and pins against a plain []byte, in-range accesses returning the
// oracle's bytes and out-of-range ones (negative, straddling the end, beyond
// it, zero-length included) panicking and changing nothing, whatever has or
// has not been written so far.
func TestRegionAgainstFlatMemory(t *testing.T) {
	_, cat, lin := kernels(t)
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 100, 4095, 4096, 4097, 10000, 3 * 4096}
	for trial := 0; trial < 400; trial++ {
		k := []*Kernel{cat, lin}[trial%2]
		n := sizes[rng.Intn(len(sizes))]
		r := k.NewRegion(n)
		oracle := make([]byte, n)
		wantSegs := 1
		if k.Kind == Linux {
			wantSegs = (n + 4095) / 4096
		}
		pinned := false
		for op := 0; op < 30; op++ {
			off := rng.Intn(n+5) - 2
			ln := rng.Intn(n + 3)
			if rng.Intn(2) == 0 {
				ln = rng.Intn(min(n, 16) + 1)
			}
			inRange := off >= 0 && off+ln <= n
			desc := fmt.Sprintf("%v region of %d, op %d: off %d len %d", k.Kind, n, op, off, ln)
			switch rng.Intn(5) {
			case 0, 1:
				data := make([]byte, ln)
				rng.Read(data)
				p := panicOf(func() { r.WriteAt(off, data) })
				if (p == nil) != inRange {
					t.Fatalf("%s: write panicked with %v, in range is %v", desc, p, inRange)
				}
				if inRange {
					copy(oracle[off:], data)
				}
			case 2, 3:
				got := bytes.Repeat([]byte{0xA5}, ln)
				p := panicOf(func() { r.ReadAt(off, got) })
				if (p == nil) != inRange {
					t.Fatalf("%s: read panicked with %v, in range is %v", desc, p, inRange)
				}
				if inRange && !bytes.Equal(got, oracle[off:off+ln]) {
					t.Fatalf("%s: read differs from flat memory", desc)
				}
			case 4:
				if pr, ok := r.(*pagedRegion); ok {
					if pr.Pinned() != pinned {
						t.Fatalf("%s: pinned = %v, want %v", desc, pr.Pinned(), pinned)
					}
					pr.Pin()
					pinned = true
				}
			}
			if r.Len() != n || r.Segments() != wantSegs {
				t.Fatalf("%s: Len %d Segments %d, want %d and %d", desc, r.Len(), r.Segments(), n, wantSegs)
			}
		}
		whole := make([]byte, n)
		r.ReadAt(0, whole)
		if !bytes.Equal(whole, oracle) {
			t.Fatalf("%v region of %d: final contents differ from flat memory", k.Kind, n)
		}
	}
}

// TestRangeCheckIgnoresBacking: a bad access fails with the same words on a
// region nobody has written and on one that is fully backed.
func TestRangeCheckIgnoresBacking(t *testing.T) {
	_, cat, lin := kernels(t)
	for _, k := range []*Kernel{cat, lin} {
		fresh, written := k.NewRegion(5000), k.NewRegion(5000)
		written.WriteAt(0, bytes.Repeat([]byte{1}, 5000))
		for _, c := range []struct{ off, n int }{{-1, 1}, {-1, 0}, {4990, 20}, {5000, 1}, {5001, 0}, {9000, 8}, {0, 5001}} {
			buf := make([]byte, c.n)
			for name, access := range map[string]func(Region){
				"read":  func(r Region) { r.ReadAt(c.off, buf) },
				"write": func(r Region) { r.WriteAt(c.off, buf) },
			} {
				before, after := panicOf(func() { access(fresh) }), panicOf(func() { access(written) })
				if before == nil || before != after {
					t.Errorf("%v %s off %d len %d: unwritten region panics with %v, written with %v",
						k.Kind, name, c.off, c.n, before, after)
				}
			}
		}
		if backed(fresh) {
			t.Errorf("%v: refused accesses allocated the region's backing", k.Kind)
		}
	}
}

// TestUntouchedMemoryCostsNothing: the host backs what has been written
// non-zero and no more — nothing for reads, empty writes (mpi.Barrier sends
// from a zero-byte region) or writes of zeros (a deposit of a buffer nobody
// wrote), the whole block on Catamount and only the touched pages on Linux
// for a real write. Once backed, a write of zeros overwrites like any other.
func TestUntouchedMemoryCostsNothing(t *testing.T) {
	_, cat, lin := kernels(t)
	for _, k := range []*Kernel{cat, lin} {
		for _, n := range []int{0, 1 << 20} {
			r := k.NewRegion(n)
			r.WriteAt(0, nil)
			r.WriteAt(n, []byte{})
			r.ReadAt(0, make([]byte, n))
			r.WriteAt(0, make([]byte, n))
			if n > 0 {
				r.WriteAt(4090, make([]byte, 10))
			}
			if backed(r) {
				t.Errorf("%v region of %d: reads, empty writes and zero writes allocated its backing", k.Kind, n)
			}
		}
		r := k.NewRegion(8192)
		r.WriteAt(4090, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
		r.WriteAt(4094, make([]byte, 4))
		got := make([]byte, 10)
		r.ReadAt(4090, got)
		if want := []byte{1, 2, 3, 4, 0, 0, 0, 0, 9, 10}; !bytes.Equal(got, want) {
			t.Errorf("%v: zeros written into backed memory read back as %v, want %v", k.Kind, got, want)
		}
	}
	r := lin.NewRegion(1 << 20).(*pagedRegion)
	r.WriteAt(4090, bytes.Repeat([]byte{7}, 10)) // straddles pages 0 and 1
	r.WriteAt(3*4096, make([]byte, 4096))        // zeros: page 3 stays unbacked
	if touched := backedPages(r); touched != 2 || r.Segments() != 256 {
		t.Errorf("10 bytes across a page boundary backed %d pages of %d segments, want 2 of 256", touched, r.Segments())
	}
}

// backedPages counts the pages of r the host has allocated.
func backedPages(r *pagedRegion) int {
	n := 0
	for _, pg := range r.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

func TestPinBookkeeping(t *testing.T) {
	_, _, lin := kernels(t)
	r := lin.NewRegion(100).(*pagedRegion)
	if r.Pinned() {
		t.Error("fresh region already pinned")
	}
	r.Pin()
	if !r.Pinned() {
		t.Error("Pin did not stick")
	}
}

func TestInterruptCoalescing(t *testing.T) {
	s, cat, _ := kernels(t)
	handled := 0
	cat.SetInterruptHandler(func() {
		handled++
		// A real handler drains and calls InterruptDone; hold it active
		// for a while to absorb raises.
		s.After(5*sim.Microsecond, cat.InterruptDone)
	})
	cat.RaiseInterrupt()
	cat.RaiseInterrupt() // absorbed: handler scheduled but not yet done
	s.After(20*sim.Microsecond, cat.RaiseInterrupt)
	s.Run()
	if handled != 2 {
		t.Errorf("handler ran %d times, want 2", handled)
	}
	if cat.Interrupts != 2 || cat.Coalesced != 1 {
		t.Errorf("interrupts=%d coalesced=%d, want 2/1", cat.Interrupts, cat.Coalesced)
	}
}

func TestInterruptCostsTwoMicroseconds(t *testing.T) {
	s, cat, _ := kernels(t)
	var at sim.Time
	cat.SetInterruptHandler(func() {
		at = s.Now()
		cat.InterruptDone()
	})
	cat.RaiseInterrupt()
	s.Run()
	if at != 2*sim.Microsecond {
		t.Errorf("handler entered at %v, want 2µs (§3.3)", at)
	}
}

func TestInterruptWithoutHandlerPanics(t *testing.T) {
	_, cat, _ := kernels(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	cat.RaiseInterrupt()
}

func TestAllocPidMonotonic(t *testing.T) {
	_, cat, _ := kernels(t)
	a, b := cat.AllocPid(), cat.AllocPid()
	if a == b || b != a+1 {
		t.Errorf("pids %d, %d", a, b)
	}
}

func TestKernelWorkChargesCycles(t *testing.T) {
	s, cat, _ := kernels(t)
	var at sim.Time
	cat.KernelWork(2000, func() { at = s.Now() }) // 2000 cycles @ 2 GHz = 1µs
	s.Run()
	if at != sim.Microsecond {
		t.Errorf("work completed at %v, want 1µs", at)
	}
}

func TestNoCoalesceTakesOneInterruptPerRaise(t *testing.T) {
	s, cat, _ := kernels(t)
	cat.NoCoalesce = true
	handled := 0
	cat.SetInterruptHandler(func() {
		handled++
		s.After(sim.Microsecond, cat.InterruptDone)
	})
	cat.RaiseInterrupt()
	cat.RaiseInterrupt() // queued, not coalesced
	cat.RaiseInterrupt()
	s.Run()
	if handled != 3 {
		t.Errorf("handler ran %d times, want 3 (no coalescing)", handled)
	}
	if cat.Interrupts != 3 || cat.Coalesced != 0 {
		t.Errorf("interrupts=%d coalesced=%d, want 3/0", cat.Interrupts, cat.Coalesced)
	}
}
