package machine

import (
	"bytes"
	"strings"
	"testing"

	"portals3/internal/core"
	"portals3/internal/model"
	"portals3/internal/oskernel"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

const testPtl = 4

// recvSetup posts a match-anything receive on testPtl over a fresh buffer
// and returns the pieces.
func recvSetup(t *testing.T, app *App, size int, opts core.MDOptions) (core.Region, core.EQHandle) {
	t.Helper()
	eq, err := app.API.EQAlloc(128)
	if err != nil {
		t.Fatal(err)
	}
	me, err := app.API.MEAttach(testPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 7, 0, core.Retain, core.After)
	if err != nil {
		t.Fatal(err)
	}
	buf := app.Alloc(size)
	if _, err := app.API.MDAttach(me, core.MDesc{
		Region: buf, Threshold: core.ThresholdInfinite,
		Options: opts, EQ: eq,
	}, core.Retain); err != nil {
		t.Fatal(err)
	}
	return buf, eq
}

// waitFor blocks until an event of the wanted type arrives on eq.
func waitFor(t *testing.T, app *App, eq core.EQHandle, want core.EventType) core.Event {
	t.Helper()
	for {
		ev, err := app.API.EQWait(eq)
		if err != nil && err != core.ErrEQDropped {
			t.Fatalf("EQWait: %v", err)
		}
		if ev.Type == want {
			return ev
		}
	}
}

func TestPutDeliversEndToEnd(t *testing.T) {
	m := NewPair(model.Defaults())
	payload := make([]byte, 70000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}

	var got []byte
	var putEnd core.Event
	recvID := make(chan core.ProcessID, 1)
	_ = recvID
	var receiver *App
	var err error
	receiver, err = m.Spawn(1, "receiver", Generic, func(app *App) {
		buf, eq := recvSetup(t, app, len(payload), core.MDOpPut)
		putEnd = waitFor(t, app, eq, core.EventPutEnd)
		got = make([]byte, putEnd.MLength)
		buf.ReadAt(0, got)
	})
	if err != nil {
		t.Fatal(err)
	}
	var sendEnd bool
	if _, err := m.Spawn(0, "sender", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond) // let the receiver post its ME
		eq, _ := app.API.EQAlloc(16)
		src := app.Alloc(len(payload))
		src.WriteAt(0, payload)
		md, err := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: eq})
		if err != nil {
			t.Errorf("MDBind: %v", err)
			return
		}
		if err := app.API.Put(md, core.NoAck, receiver.ID(), testPtl, 7, 0, 0xABCD); err != nil {
			t.Errorf("Put: %v", err)
			return
		}
		waitFor(t, app, eq, core.EventSendEnd)
		sendEnd = true
	}); err != nil {
		t.Fatal(err)
	}
	m.Run()

	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %d bytes", len(got))
	}
	if putEnd.HdrData != 0xABCD {
		t.Errorf("hdr data = %#x", putEnd.HdrData)
	}
	if putEnd.Initiator.Nid != 0 {
		t.Errorf("initiator = %v", putEnd.Initiator)
	}
	if !sendEnd {
		t.Error("sender never saw SEND_END")
	}
}

// onewayLatency measures a single ping-pong round trip of size bytes on the
// classic pair and returns RTT/2, NetPIPE-style.
func onewayLatency(t *testing.T, mode Mode, size int) sim.Time {
	t.Helper()
	return pingPong(t, NewPair(model.Defaults()), mode, size) / 2
}

// pingPong runs one put of size bytes from node 0 to node 1 and one back on
// the given two-node machine, and returns the round-trip time.
func pingPong(t *testing.T, m *Machine, mode Mode, size int) sim.Time {
	t.Helper()
	var rtt sim.Time

	var a, b *App
	b, _ = m.Spawn(1, "pong", mode, func(app *App) {
		buf, eq := recvSetup(t, app, 1<<20, core.MDOpPut)
		_ = buf
		waitFor(t, app, eq, core.EventPutEnd)
		// Reply with the same size.
		seq, _ := app.API.EQAlloc(16)
		src := app.Alloc(size)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: seq})
		if err := app.API.Put(md, core.NoAck, a.ID(), testPtl, 7, 0, 0); err != nil {
			t.Errorf("pong put: %v", err)
		}
		waitFor(t, app, seq, core.EventSendEnd)
	})
	a, _ = m.Spawn(0, "ping", mode, func(app *App) {
		_, eq := recvSetup(t, app, 1<<20, core.MDOpPut)
		app.Proc.Sleep(100 * sim.Microsecond) // both sides ready
		start := app.Proc.Now()
		seq, _ := app.API.EQAlloc(16)
		src := app.Alloc(size)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: seq})
		if err := app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0); err != nil {
			t.Errorf("ping put: %v", err)
		}
		waitFor(t, app, eq, core.EventPutEnd)
		rtt = app.Proc.Now() - start
	})
	m.Run()
	return rtt
}

func TestSmallMessageLatencyBallpark(t *testing.T) {
	lat := onewayLatency(t, Generic, 8)
	// The paper's one-byte put latency is 5.39 µs; the model must land in
	// that neighborhood (exact calibration is asserted by the NetPIPE
	// harness).
	if lat < 4*sim.Microsecond || lat > 7*sim.Microsecond {
		t.Errorf("8-byte one-way latency = %v, want ≈5.4µs", lat)
	}
}

func TestTwelveByteStep(t *testing.T) {
	at12 := onewayLatency(t, Generic, 12)
	at16 := onewayLatency(t, Generic, 16)
	gap := at16 - at12
	// Crossing the inline threshold adds a second interrupt plus a
	// command round trip (§6): expect a step of roughly 2-4 µs.
	if gap < 1500*sim.Nanosecond {
		t.Errorf("12→16 byte latency step = %v, want ≥1.5µs (the saved interrupt)", gap)
	}
	if gap > 5*sim.Microsecond {
		t.Errorf("12→16 byte latency step = %v suspiciously large", gap)
	}
}

func TestInterruptCounts(t *testing.T) {
	// Inline put: one interrupt at the receiver. Chunked put: two (§6).
	count := func(size int) uint64 {
		m := NewPair(model.Defaults())
		var b *App
		done := false
		b, _ = m.Spawn(1, "rx", Generic, func(app *App) {
			_, eq := recvSetup(t, app, 1<<20, core.MDOpPut)
			waitFor(t, app, eq, core.EventPutEnd)
			done = true
		})
		m.Spawn(0, "tx", Generic, func(app *App) {
			app.Proc.Sleep(50 * sim.Microsecond)
			src := app.Alloc(size)
			md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
			app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0)
		})
		m.Run()
		if !done {
			t.Fatalf("size %d never delivered", size)
		}
		return m.Node(1).Kernel.Interrupts
	}
	inline := count(8)
	chunked := count(4096)
	if inline != 1 {
		t.Errorf("inline put took %d interrupts at the receiver, want 1 (§6)", inline)
	}
	if chunked != 2 {
		t.Errorf("chunked put took %d interrupts at the receiver, want 2 (§6)", chunked)
	}
}

func TestGetEndToEnd(t *testing.T) {
	m := NewPair(model.Defaults())
	secret := []byte("data owned by the target process")
	var fetched []byte
	var b *App
	b, _ = m.Spawn(1, "target", Generic, func(app *App) {
		eq, _ := app.API.EQAlloc(16)
		me, _ := app.API.MEAttach(testPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 9, 0, core.Retain, core.After)
		buf := app.Alloc(len(secret))
		buf.WriteAt(0, secret)
		app.API.MDAttach(me, core.MDesc{Region: buf, Threshold: core.ThresholdInfinite, Options: core.MDOpGet, EQ: eq}, core.Retain)
		waitFor(t, app, eq, core.EventGetEnd)
	})
	m.Spawn(0, "initiator", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		eq, _ := app.API.EQAlloc(16)
		dst := app.Alloc(len(secret))
		md, _ := app.API.MDBind(core.MDesc{Region: dst, Threshold: core.ThresholdInfinite, EQ: eq})
		if err := app.API.Get(md, b.ID(), testPtl, 9, 0); err != nil {
			t.Errorf("Get: %v", err)
			return
		}
		ev := waitFor(t, app, eq, core.EventReplyEnd)
		fetched = make([]byte, ev.MLength)
		dst.ReadAt(0, fetched)
	})
	m.Run()
	if !bytes.Equal(fetched, secret) {
		t.Errorf("get fetched %q", fetched)
	}
}

func TestAcceleratedModeNoInterrupts(t *testing.T) {
	m := NewPair(model.Defaults())
	payload := []byte("accelerated payload bytes")
	var got []byte
	var b *App
	b, _ = m.Spawn(1, "rx", Accelerated, func(app *App) {
		buf, eq := recvSetup(t, app, 4096, core.MDOpPut)
		ev := waitFor(t, app, eq, core.EventPutEnd)
		got = make([]byte, ev.MLength)
		buf.ReadAt(0, got)
	})
	m.Spawn(0, "tx", Accelerated, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		eq, _ := app.API.EQAlloc(16)
		src := app.Alloc(len(payload))
		src.WriteAt(0, payload)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: eq})
		app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0)
		waitFor(t, app, eq, core.EventSendEnd)
	})
	m.Run()
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
	if irq := m.Node(0).Kernel.Interrupts + m.Node(1).Kernel.Interrupts; irq != 0 {
		t.Errorf("accelerated data path took %d interrupts, want 0 (§3.3)", irq)
	}
}

func TestAcceleratedBeatsGenericLatency(t *testing.T) {
	// Inline messages: offload saves the interrupt (2 µs) but pays for
	// matching on the 4×-slower PowerPC, so the net gain is moderate.
	gen := onewayLatency(t, Generic, 8)
	acc := onewayLatency(t, Accelerated, 8)
	if acc >= gen {
		t.Errorf("accelerated inline latency %v not better than generic %v", acc, gen)
	}
	if gen-acc < sim.Microsecond {
		t.Errorf("accelerated saves only %v on inline messages", gen-acc)
	}
	// Past the inline threshold generic mode pays two interrupts plus a
	// command round trip; the offloaded gain must grow accordingly (§3.3:
	// "it will be necessary to eliminate all interrupts from the data
	// path").
	gen16 := onewayLatency(t, Generic, 1024)
	acc16 := onewayLatency(t, Accelerated, 1024)
	if gen16-acc16 < 3*sim.Microsecond {
		t.Errorf("accelerated saves only %v on chunked messages, want >3µs (two interrupts + rx command)", gen16-acc16)
	}
}

func TestLinuxNodePagedBuffers(t *testing.T) {
	p := model.Defaults()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	m := New(p, tp)
	m.OSKind = func(topo.NodeID) oskernel.Kind { return oskernel.Linux }
	payload := make([]byte, 100000)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got []byte
	var b *App
	b, _ = m.Spawn(1, "rx", Generic, func(app *App) {
		buf, eq := recvSetup(t, app, len(payload), core.MDOpPut)
		ev := waitFor(t, app, eq, core.EventPutEnd)
		got = make([]byte, ev.MLength)
		buf.ReadAt(0, got)
	})
	m.Spawn(0, "tx", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		src := app.Alloc(len(payload))
		if src.Segments() < 2 {
			t.Error("Linux buffer should be paged")
		}
		src.WriteAt(0, payload)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
		app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0)
	})
	m.Run()
	if !bytes.Equal(got, payload) {
		t.Error("paged transfer corrupted data")
	}
}

func TestUkbridgeAndKbridgeCoexist(t *testing.T) {
	// A Linux node runs a kernel-level service (kbridge) and a user
	// application (ukbridge) sharing the network interface (§3.2).
	p := model.Defaults()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	m := New(p, tp)
	m.OSKind = func(topo.NodeID) oskernel.Kind { return oskernel.Linux }

	gotUser, gotKernel := false, false
	var userApp, kernApp *App
	userApp, _ = m.Spawn(1, "user-app", Generic, func(app *App) {
		_, eq := recvSetup(t, app, 4096, core.MDOpPut)
		waitFor(t, app, eq, core.EventPutEnd)
		gotUser = true
	})
	kernApp, _ = m.Spawn(1, "lustre-service", KernelService, func(app *App) {
		_, eq := recvSetup(t, app, 4096, core.MDOpPut)
		waitFor(t, app, eq, core.EventPutEnd)
		gotKernel = true
	})
	if userApp.Pid == kernApp.Pid {
		t.Fatal("pid collision")
	}
	m.Spawn(0, "client", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		src := app.Alloc(64)
		for _, dst := range []core.ProcessID{userApp.ID(), kernApp.ID()} {
			md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
			if err := app.API.Put(md, core.NoAck, dst, testPtl, 7, 0, 0); err != nil {
				t.Errorf("put to %v: %v", dst, err)
			}
		}
	})
	m.Run()
	if !gotUser || !gotKernel {
		t.Errorf("user=%v kernel=%v: bridges did not share the interface", gotUser, gotKernel)
	}
}

func TestPutWithAckEndToEnd(t *testing.T) {
	m := NewPair(model.Defaults())
	var b *App
	b, _ = m.Spawn(1, "rx", Generic, func(app *App) {
		recvSetup(t, app, 4096, core.MDOpPut)
		app.Proc.Sleep(sim.Millisecond)
	})
	sawAck := false
	m.Spawn(0, "tx", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		eq, _ := app.API.EQAlloc(16)
		src := app.Alloc(256)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: eq})
		app.API.Put(md, core.Ack, b.ID(), testPtl, 7, 0, 0)
		waitFor(t, app, eq, core.EventAck)
		sawAck = true
	})
	m.Run()
	if !sawAck {
		t.Error("ACK never arrived")
	}
}

func TestNIDistMatchesTopology(t *testing.T) {
	p := model.Defaults()
	tp, _ := topo.New(4, 1, 1, false, false, false)
	m := New(p, tp)
	var d0, d3 int
	m.Spawn(0, "app", Generic, func(app *App) {
		d0 = app.API.NIDist(0)
		d3 = app.API.NIDist(3)
	})
	m.Run()
	if d0 != 0 || d3 != 3 {
		t.Errorf("NIDist = %d,%d want 0,3", d0, d3)
	}
}

func TestGenericAndAcceleratedCoexistOnOneNode(t *testing.T) {
	// §4.1: "The existing [generic] implementation ... will continue to be
	// necessary and will run side-by-side with the accelerated
	// implementation." One Catamount node hosts both kinds; a remote
	// sender reaches each through the same SeaStar.
	m := NewPair(model.Defaults())
	gotGeneric, gotAccel := false, false
	var gen, acc *App
	gen, _ = m.Spawn(1, "generic-app", Generic, func(app *App) {
		_, eq := recvSetup(t, app, 4096, core.MDOpPut)
		waitFor(t, app, eq, core.EventPutEnd)
		gotGeneric = true
	})
	var err error
	acc, err = m.Spawn(1, "accel-app", Accelerated, func(app *App) {
		_, eq := recvSetup(t, app, 4096, core.MDOpPut)
		waitFor(t, app, eq, core.EventPutEnd)
		gotAccel = true
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Spawn(0, "client", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		src := app.Alloc(64)
		for _, dst := range []core.ProcessID{gen.ID(), acc.ID()} {
			md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
			if err := app.API.Put(md, core.NoAck, dst, testPtl, 7, 0, 0); err != nil {
				t.Errorf("put to %v: %v", dst, err)
			}
		}
	})
	m.Run()
	if !gotGeneric || !gotAccel {
		t.Fatalf("generic=%v accel=%v: modes did not coexist", gotGeneric, gotAccel)
	}
	// The generic delivery took interrupts; the accelerated one did not
	// add any (only the generic message's interrupts appear).
	if irq := m.Node(1).Kernel.Interrupts; irq == 0 {
		t.Error("generic app on the shared node should have used interrupts")
	}
}

// TestConstructorsValidateParams: A5 at a 4 KB chunk (a chunk larger than its
// 2 KB RX FIFO) fails when the machine is built, naming the fields, rather
// than as a credit request past the FIFO's capacity mid-run.
func TestConstructorsValidateParams(t *testing.T) {
	p := model.Defaults()
	p.RxFIFOBytes, p.ChunkBytes = 2<<10, 4<<10
	tp, err := topo.XT3Torus(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(){
		"NewPair":    func() { NewPair(p) },
		"New":        func() { New(p, tp) },
		"NewSharded": func() { NewSharded(p, tp, 2) },
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), "ChunkBytes 4096 exceeds RxFIFOBytes 2048") {
					t.Errorf("%s: panicked with %v, want the parameters' validation error", name, err)
				}
			}()
			build()
		}()
	}
}
