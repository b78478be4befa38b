// Package nal_test exercises the bridges and the API cost model through
// the machine layer (an external test package, since machine imports nal).
package nal_test

import (
	"testing"

	"portals3/internal/core"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/nal"
	"portals3/internal/oskernel"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

func TestBridgeCrossingCosts(t *testing.T) {
	s := sim.New()
	p := model.Defaults()
	cat := oskernel.New(s, &p, oskernel.Catamount, 0)
	lin := oskernel.New(s, &p, oskernel.Linux, 1)

	cases := []struct {
		br   nal.Bridge
		want sim.Time
	}{
		{nal.QKBridge{K: cat}, p.TrapOverhead},
		{nal.UKBridge{K: lin}, p.LinuxSyscallOverhead},
		{nal.KBridge{}, 0},
		{nal.AccelBridge{}, 0},
	}
	for _, c := range cases {
		if got := c.br.Cross(); got != c.want {
			t.Errorf("%s crossing cost %v, want %v", c.br.Name(), got, c.want)
		}
	}
}

func TestBridgeNames(t *testing.T) {
	names := map[string]nal.Bridge{
		"qkbridge": nal.QKBridge{},
		"ukbridge": nal.UKBridge{},
		"kbridge":  nal.KBridge{},
		"accel":    nal.AccelBridge{},
	}
	for want, br := range names {
		if br.Name() != want {
			t.Errorf("bridge name %q, want %q", br.Name(), want)
		}
	}
}

// apiCallCost measures a no-op API call (NIStatus) in a given mode/OS.
func apiCallCost(t *testing.T, kind oskernel.Kind, mode machine.Mode) sim.Time {
	t.Helper()
	p := model.Defaults()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	m := machine.New(p, tp)
	m.OSKind = func(topo.NodeID) oskernel.Kind { return kind }
	var took sim.Time
	if _, err := m.Spawn(0, "probe", mode, func(app *machine.App) {
		t0 := app.Proc.Now()
		app.API.NIStatus(core.SRDropCount)
		took = app.Proc.Now() - t0
	}); err != nil {
		t.Fatal(err)
	}
	m.Run()
	return took
}

func TestAPICallCostsByBridge(t *testing.T) {
	p := model.Defaults()
	api := p.HostCycles(p.HostAPICycles)
	if got := apiCallCost(t, oskernel.Catamount, machine.Generic); got != p.TrapOverhead+api {
		t.Errorf("Catamount generic call = %v, want trap+api = %v", got, p.TrapOverhead+api)
	}
	if got := apiCallCost(t, oskernel.Linux, machine.Generic); got != p.LinuxSyscallOverhead+api {
		t.Errorf("Linux generic call = %v, want syscall+api = %v", got, p.LinuxSyscallOverhead+api)
	}
	if got := apiCallCost(t, oskernel.Catamount, machine.Accelerated); got != api {
		t.Errorf("accelerated call = %v, want api only = %v (no system calls, §3.3)", got, api)
	}
}

func TestPagedBufferPutChargesPerPage(t *testing.T) {
	// A Linux sender putting from a paged buffer pays per-page DMA command
	// pre-computation (§3.3): the Put call itself takes measurably longer
	// than from a 1-segment buffer of the same size.
	cost := func(pages int) sim.Time {
		p := model.Defaults()
		tp, _ := topo.New(2, 1, 1, false, false, false)
		m := machine.New(p, tp)
		m.OSKind = func(topo.NodeID) oskernel.Kind { return oskernel.Linux }
		var took sim.Time
		var dst *machine.App
		dst, _ = m.Spawn(1, "rx", machine.Generic, func(app *machine.App) {
			eq, _ := app.API.EQAlloc(16)
			me, _ := app.API.MEAttach(4, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 1, 0, core.Retain, core.After)
			app.API.MDAttach(me, core.MDesc{Region: app.Alloc(1 << 20), Threshold: core.ThresholdInfinite,
				Options: core.MDOpPut, EQ: eq}, core.Retain)
			app.API.EQWait(eq)
		})
		m.Spawn(0, "tx", machine.Generic, func(app *machine.App) {
			app.Proc.Sleep(50 * sim.Microsecond)
			n := pages * 4096
			src := app.Alloc(n)
			md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
			t0 := app.Proc.Now()
			app.API.Put(md, core.NoAck, dst.ID(), 4, 1, 0, 0)
			took = app.Proc.Now() - t0
		})
		m.RunUntil(10 * sim.Millisecond)
		return took
	}
	p := model.Defaults()
	one, many := cost(1), cost(64)
	// The single-page buffer is one segment and charges nothing extra; the
	// 64-page buffer charges all 64 segments.
	wantDelta := p.HostCycles(64 * p.HostPerPageCycles)
	if many-one != wantDelta {
		t.Errorf("64-page put costs %v more than 1-page, want %v", many-one, wantDelta)
	}
}

// TestPutRegionChargesTheDescriptorsCurrentRegion: the per-page charge
// follows the region the library holds for the descriptor — after MDUpdate
// swaps a paged region in, PutRegion charges its pages — and a descriptor
// that is gone charges none and fails as the library says.
func TestPutRegionChargesTheDescriptorsCurrentRegion(t *testing.T) {
	p := model.Defaults()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	m := machine.New(p, tp)
	m.OSKind = func(topo.NodeID) oskernel.Kind { return oskernel.Linux }
	const pages = 8
	var dst *machine.App
	dst, _ = m.Spawn(1, "rx", machine.Generic, func(app *machine.App) {
		eq, _ := app.API.EQAlloc(16)
		me, _ := app.API.MEAttach(4, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 1, 0, core.Retain, core.After)
		app.API.MDAttach(me, core.MDesc{Region: app.Alloc(pages * 4096), Threshold: core.ThresholdInfinite,
			Options: core.MDOpPut, EQ: eq}, core.Retain)
		app.API.EQWait(eq)
		app.API.EQWait(eq)
	})
	var flat, paged, gone sim.Time
	var goneErr error
	m.Spawn(0, "tx", machine.Generic, func(app *machine.App) {
		// Each put is timed on a quiet node and left to complete before
		// the descriptor is touched again.
		put := func(md core.MDHandle) (sim.Time, error) {
			app.Proc.Sleep(50 * sim.Microsecond)
			t0 := app.Proc.Now()
			err := app.API.PutRegion(md, 0, pages*4096, core.NoAck, dst.ID(), 4, 1, 0, 0)
			took := app.Proc.Now() - t0
			app.Proc.Sleep(50 * sim.Microsecond)
			return took, err
		}
		md, _ := app.API.MDBind(core.MDesc{Region: core.SliceRegion(make([]byte, pages*4096)), Threshold: core.ThresholdInfinite})
		flat, _ = put(md)
		if err := app.API.MDUpdate(md, nil, &core.MDesc{Region: app.Alloc(pages * 4096), Threshold: core.ThresholdInfinite}, core.NoEQ); err != nil {
			t.Error(err)
		}
		paged, _ = put(md)
		if err := app.API.MDUnlink(md); err != nil {
			t.Error(err)
		}
		gone, goneErr = put(md)
	})
	m.RunUntil(10 * sim.Millisecond)
	if want := p.HostCycles(pages * p.HostPerPageCycles); paged-flat != want {
		t.Errorf("put from the swapped-in %d-page region costs %v more than from one segment, want %v", pages, paged-flat, want)
	}
	if gone != flat || goneErr != core.ErrInvalidHandle {
		t.Errorf("put from an unlinked descriptor: %v and %v, want %v (no per-page charge) and %v", gone, goneErr, flat, core.ErrInvalidHandle)
	}
}

func TestEQPollTimesOut(t *testing.T) {
	p := model.Defaults()
	tp, _ := topo.New(1, 1, 1, false, false, false)
	m := machine.New(p, tp)
	var err error
	var waited sim.Time
	m.Spawn(0, "poller", machine.Generic, func(app *machine.App) {
		eq, _ := app.API.EQAlloc(4)
		t0 := app.Proc.Now()
		_, _, err = app.API.EQPoll([]core.EQHandle{eq}, 10*sim.Microsecond)
		waited = app.Proc.Now() - t0
	})
	m.Run()
	if err != core.ErrEQEmpty {
		t.Errorf("EQPoll timeout returned %v, want ErrEQEmpty", err)
	}
	if waited != 10*sim.Microsecond {
		t.Errorf("EQPoll returned after %v, want the 10us timeout exactly", waited)
	}
}

// refPoll runs body as a process whose API (kbridge: no crossing cost) sits
// on a reference-NAL library with one queue, and puts a 1-byte message into
// that queue at each of the instants given; it arrives 1 us later. It
// returns the run's simulator.
func refPoll(puts []sim.Time, body func(api *nal.API, eq core.EQHandle)) *sim.Sim {
	s := sim.New()
	n := nal.NewRefNAL(s, sim.Microsecond, 1_000_000_000)
	rx := n.AddProcess(core.ProcessID{Nid: 1, Pid: 1}, 1, core.Limits{})
	tx := n.AddProcess(core.ProcessID{Nid: 0, Pid: 1}, 1, core.Limits{})
	eq, _ := rx.EQAlloc(16)
	me, _ := rx.MEAttach(4, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 1, 0, core.Retain, core.After)
	rx.MDAttach(me, core.MDesc{Region: make(core.SliceRegion, 1), Threshold: core.ThresholdInfinite,
		Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable, EQ: eq}, core.Retain)
	md, _ := tx.MDBind(core.MDesc{Region: make(core.SliceRegion, 1), Threshold: core.ThresholdInfinite, EQ: core.NoEQ})
	for _, at := range puts {
		s.At(at, func() { tx.Put(md, core.NoAck, rx.ID(), 4, 1, 0, 0) })
	}
	p := model.Defaults()
	s.Go("poller", func(proc *sim.Proc) { body(nal.NewAPI(proc, rx, nal.KBridge{}, &p), eq) })
	s.Run()
	return s
}

// TestEQPollDeadlineWakesOnlyItsCall: a poll that an event satisfies before
// its timeout leaves a deadline event behind, and that event must not wake
// the process from the poll it blocks in next. The second poll returns at
// the same instant, after as many parks, as when the first had no timeout.
func TestEQPollDeadlineWakesOnlyItsCall(t *testing.T) {
	run := func(timeout sim.Time) (first, second sim.Time, parks uint64) {
		s := refPoll([]sim.Time{0, 9 * sim.Microsecond}, func(api *nal.API, eq core.EQHandle) {
			for i, d := range []sim.Time{timeout, sim.Never} {
				if _, _, err := api.EQPoll([]core.EQHandle{eq}, d); err != nil {
					t.Errorf("timeout %v, poll %d: %v", timeout, i, err)
				}
				first, second = second, api.Proc.Now()
			}
		})
		return first, second, s.Parks
	}
	f, s, parks := run(5 * sim.Microsecond)
	wantF, wantS, wantParks := run(sim.Never)
	if f != wantF || f >= 5*sim.Microsecond || s != wantS || s < 10*sim.Microsecond || parks != wantParks {
		t.Errorf("polls returned at %v and %v after %d parks, want %v and %v after %d as with no timeout",
			f, s, parks, wantF, wantS, wantParks)
	}
}

// TestEQPollFreedQueue: a queue freed while a poll waits on it ends the poll
// with ErrInvalidHandle, at the next check.
func TestEQPollFreedQueue(t *testing.T) {
	var err error
	idx := -1
	var at sim.Time
	refPoll(nil, func(api *nal.API, eq core.EQHandle) {
		api.Proc.Sim().At(3*sim.Microsecond, func() { api.Lib().EQFree(eq) })
		_, idx, err = api.EQPoll([]core.EQHandle{eq}, sim.Never)
		at = api.Proc.Now()
	})
	p := model.Defaults()
	if want := 3*sim.Microsecond + p.HostCycles(p.HostAPICycles); err != core.ErrInvalidHandle || idx != 0 || at != want {
		t.Errorf("poll of a freed queue: %v on queue %d at %v, want %v on queue 0 at %v", err, idx, at, core.ErrInvalidHandle, want)
	}
}

func TestLockSerializesAPIAgainstDriver(t *testing.T) {
	// While the driver processes a header (lib locked), API calls from the
	// application must wait for the handler to finish.
	p := model.Defaults()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	m := machine.New(p, tp)
	var dst *machine.App
	blocked := false
	dst, _ = m.Spawn(1, "rx", machine.Generic, func(app *machine.App) {
		eq, _ := app.API.EQAlloc(16)
		me, _ := app.API.MEAttach(4, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 1, 0, core.Retain, core.After)
		app.API.MDAttach(me, core.MDesc{Region: app.Alloc(4096), Threshold: core.ThresholdInfinite,
			Options: core.MDOpPut, EQ: eq}, core.Retain)
		// Hammer a cheap API call; if any invocation takes much longer
		// than trap+api, it waited on the lock.
		base := p.TrapOverhead + p.HostCycles(p.HostAPICycles)
		for app.Proc.Now() < 200*sim.Microsecond {
			t0 := app.Proc.Now()
			app.API.NIStatus(core.SRDropCount)
			if app.Proc.Now()-t0 > base {
				blocked = true
			}
			app.Proc.Sleep(200 * sim.Nanosecond)
		}
	})
	m.Spawn(0, "tx", machine.Generic, func(app *machine.App) {
		app.Proc.Sleep(30 * sim.Microsecond)
		src := app.Alloc(16)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
		for i := 0; i < 20; i++ {
			app.API.Put(md, core.NoAck, dst.ID(), 4, 1, 0, 0)
			app.Proc.Sleep(3 * sim.Microsecond)
		}
	})
	m.RunUntil(300 * sim.Microsecond)
	if !blocked {
		t.Error("no API call ever waited on the kernel lock despite concurrent receives")
	}
}

func TestSendBacklogDrainsWhenPendingsFree(t *testing.T) {
	// More concurrent sends than TX pendings: the driver backlogs and all
	// messages still arrive.
	p := model.Defaults()
	p.NumGenericPendings = 8 // 4 TX pendings
	tp, _ := topo.New(2, 1, 1, false, false, false)
	m := machine.New(p, tp)
	// The receiver's RX pool is equally tiny; go-back-n keeps the incast
	// recoverable so the test can focus on the sender-side backlog.
	m.EnableGoBackN()
	const msgs = 24
	got := 0
	var dst *machine.App
	dst, _ = m.Spawn(1, "rx", machine.Generic, func(app *machine.App) {
		eq, _ := app.API.EQAlloc(256)
		me, _ := app.API.MEAttach(4, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 1, 0, core.Retain, core.After)
		app.API.MDAttach(me, core.MDesc{Region: app.Alloc(1 << 16), Threshold: core.ThresholdInfinite,
			Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable, EQ: eq}, core.Retain)
		for got < msgs {
			ev, err := app.API.EQWait(eq)
			if err != nil {
				return
			}
			if ev.Type == core.EventPutEnd {
				got++
			}
		}
	})
	m.Spawn(0, "tx", machine.Generic, func(app *machine.App) {
		app.Proc.Sleep(30 * sim.Microsecond)
		src := app.Alloc(1024)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
		for i := 0; i < msgs; i++ {
			if err := app.API.Put(md, core.NoAck, dst.ID(), 4, 1, 0, 0); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}
	})
	m.RunUntil(20 * sim.Millisecond)
	if got != msgs {
		t.Errorf("delivered %d of %d with a starved TX pool", got, msgs)
	}
}

func TestRefNALRunsPortalsSemantics(t *testing.T) {
	// The same library semantics over the reference NAL (§3.1/§3.2's
	// portability claim): no SeaStar, a plain latency/bandwidth transport.
	s := sim.New()
	n := nal.NewRefNAL(s, 10*sim.Microsecond, 100_000_000)
	a := n.AddProcess(core.ProcessID{Nid: 0, Pid: 1}, 1, core.Limits{})
	b := n.AddProcess(core.ProcessID{Nid: 1, Pid: 1}, 2, core.Limits{})

	// Receive side on b.
	eq, _ := b.EQAlloc(16)
	me, _ := b.MEAttach(4, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 9, 0, core.Retain, core.After)
	inbox := make(core.SliceRegion, 64)
	b.MDAttach(me, core.MDesc{Region: inbox, Threshold: core.ThresholdInfinite,
		Options: core.MDOpPut | core.MDOpGet | core.MDManageRemote | core.MDEventStartDisable, EQ: eq}, core.Retain)

	// Put from a.
	msg := core.SliceRegion("over the reference NAL")
	aeq, _ := a.EQAlloc(16)
	md, _ := a.MDBind(core.MDesc{Region: msg, Threshold: core.ThresholdInfinite,
		Options: core.MDEventStartDisable, EQ: aeq})
	var putEndAt sim.Time
	if err := a.Put(md, core.NoAck, b.ID(), 4, 9, 0, 0); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if string(inbox[:len(msg)]) != string(msg) {
		t.Fatalf("inbox = %q", inbox[:len(msg)])
	}
	ev, err := b.EQGet(eq)
	if err != nil || ev.Type != core.EventPutEnd {
		t.Fatalf("target event %v err %v", ev.Type, err)
	}
	putEndAt = ev.At
	// Delivery time = latency + size/bandwidth.
	want := 10*sim.Microsecond + sim.BytesAt(int64(len(msg)), 100_000_000)
	if putEndAt != want {
		t.Errorf("delivered at %v, want %v", putEndAt, want)
	}

	// Get back from b.
	dst := make(core.SliceRegion, len(msg))
	gmd, _ := a.MDBind(core.MDesc{Region: dst, Threshold: core.ThresholdInfinite,
		Options: core.MDEventStartDisable, EQ: aeq})
	if err := a.GetRegion(gmd, 0, len(msg), b.ID(), 4, 9, 0); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if string(dst) != string(msg) {
		t.Errorf("get returned %q", dst)
	}
}

func TestEQPollResolvesQueueIndex(t *testing.T) {
	p := model.Defaults()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	m := machine.New(p, tp)
	var b *machine.App
	gotIdx := -1
	b, _ = m.Spawn(1, "rx", machine.Generic, func(app *machine.App) {
		// Two queues; the message arrives on the second one.
		eq1, _ := app.API.EQAlloc(8)
		eq2, _ := app.API.EQAlloc(8)
		me, _ := app.API.MEAttach(4, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 1, 0, core.Retain, core.After)
		app.API.MDAttach(me, core.MDesc{Region: app.Alloc(64), Threshold: core.ThresholdInfinite,
			Options: core.MDOpPut | core.MDEventStartDisable, EQ: eq2}, core.Retain)
		_, idx, err := app.API.EQPoll([]core.EQHandle{eq1, eq2}, sim.Never)
		if err != nil {
			t.Errorf("EQPoll: %v", err)
		}
		gotIdx = idx
	})
	m.Spawn(0, "tx", machine.Generic, func(app *machine.App) {
		app.Proc.Sleep(30 * sim.Microsecond)
		md, _ := app.API.MDBind(core.MDesc{Region: app.Alloc(8), Threshold: core.ThresholdInfinite})
		app.API.Put(md, core.NoAck, b.ID(), 4, 1, 0, 0)
	})
	m.Run()
	if gotIdx != 1 {
		t.Errorf("EQPoll resolved index %d, want 1", gotIdx)
	}
}

// TestEQWaitIgnoresOtherQueues: a process blocked in EQWait on queue A while
// eight events land on its library's queue B pays nothing for them. Its
// resume instant and the run's event and park counts are those recorded when
// every queue had a signal of its own and B's posts woke nobody.
func TestEQWaitIgnoresOtherQueues(t *testing.T) {
	p := model.Defaults()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	m := machine.New(p, tp)
	const n = 8
	var resumed sim.Time
	var dst *machine.App
	dst, _ = m.Spawn(1, "rx", machine.Generic, func(app *machine.App) {
		a, _ := app.API.EQAlloc(16)
		b, _ := app.API.EQAlloc(16)
		for bits, eq := range []core.EQHandle{b, a} { // match bits 0 post to B, 1 to A
			me, _ := app.API.MEAttach(4, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, uint64(bits), 0, core.Retain, core.After)
			app.API.MDAttach(me, core.MDesc{Region: app.Alloc(64), Threshold: core.ThresholdInfinite,
				Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable, EQ: eq}, core.Retain)
		}
		ev, err := app.API.EQWait(a)
		resumed = app.Proc.Now()
		if q, _ := app.API.Lib().EQ(b); err != nil || ev.MatchBits != 1 || q.Pending() != n {
			t.Errorf("EQWait(A): event with match bits %d, %v, and %d events on B, want 1, no error and %d",
				ev.MatchBits, err, q.Pending(), n)
		}
	})
	m.Spawn(0, "tx", machine.Generic, func(app *machine.App) {
		app.Proc.Sleep(30 * sim.Microsecond)
		md, _ := app.API.MDBind(core.MDesc{Region: app.Alloc(8), Threshold: core.ThresholdInfinite})
		for i := 0; i <= n; i++ {
			app.API.Put(md, core.NoAck, dst.ID(), 4, uint64(i/n), 0, 0)
		}
	})
	m.Run()
	const wantResumed, wantFired, wantParks = 47_230_574 * sim.Picosecond, 219, 2
	if resumed != wantResumed || m.S.Fired != wantFired || m.S.Parks != wantParks {
		t.Errorf("EQWait(A) resumed at %v, the run fired %d events and parked %d times, want %v, %d and %d",
			resumed, m.S.Fired, m.S.Parks, wantResumed, wantFired, wantParks)
	}
}
