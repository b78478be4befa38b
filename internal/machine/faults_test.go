package machine

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"portals3/internal/core"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// onePut runs a single put of payload over machine m and returns the
// receiver's PUT_END event, the received bytes, and the completion time.
func onePut(t *testing.T, m *Machine, payload []byte) (core.Event, []byte, sim.Time) {
	t.Helper()
	var ev core.Event
	var got []byte
	var at sim.Time
	var b *App
	b, _ = m.Spawn(1, "rx", Generic, func(app *App) {
		buf, eq := recvSetup(t, app, len(payload), core.MDOpPut)
		ev = waitFor(t, app, eq, core.EventPutEnd)
		got = make([]byte, ev.MLength)
		buf.ReadAt(0, got)
		at = app.Proc.Now()
	})
	m.Spawn(0, "tx", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		src := app.Alloc(len(payload))
		src.WriteAt(0, payload)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
		app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0)
	})
	m.Run()
	return ev, got, at
}

func TestLinkCRCRetriesAreTransparent(t *testing.T) {
	// A lossy link: the 16-bit link CRC detects and retries (§2); the
	// application sees intact data, just later.
	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	clean := model.Defaults()
	dirty := model.Defaults()
	dirty.LinkBitErrorRate = 0.01

	mc := NewPair(clean)
	evC, gotC, atC := onePut(t, mc, payload)
	md := NewPair(dirty)
	evD, gotD, atD := onePut(t, md, payload)

	if evC.NIFail || evD.NIFail {
		t.Error("link-level retries must be invisible to Portals (no NI_FAIL)")
	}
	if !bytes.Equal(gotC, payload) || !bytes.Equal(gotD, payload) {
		t.Fatal("payload corrupted despite link CRC")
	}
	if md.Fab.Stats.LinkRetries == 0 {
		t.Error("lossy link produced no retries")
	}
	if atD <= atC {
		t.Errorf("retries should cost time: %v <= %v", atD, atC)
	}
}

func TestEndToEndCorruptionSurfacesAtAPI(t *testing.T) {
	// Corruption that evades the link CRC is caught by the end-to-end
	// CRC-32 (§2) and surfaces on the application's PUT_END as NIFail.
	m := NewPair(model.Defaults())
	m.Fab.CorruptNext(1)
	payload := make([]byte, 8192)
	ev, got, _ := onePut(t, m, payload)
	if !ev.NIFail {
		t.Error("corrupted delivery not flagged NIFail on the PUT_END event")
	}
	if bytes.Equal(got, payload) {
		t.Error("the payload was supposed to be corrupted")
	}
	// The receiver's status register records the CRC error.
	lib := m.Node(1).Generic.Lib(1)
	if lib.Status(core.SRCrcErrors) != 1 {
		t.Errorf("SRCrcErrors = %d", lib.Status(core.SRCrcErrors))
	}
}

func TestGoBackNMachineUnderLossyLinks(t *testing.T) {
	// Integration: go-back-n enabled machine with lossy links and a small
	// receive pool, a stream of messages — everything must arrive intact
	// and in order.
	p := model.Defaults()
	p.LinkBitErrorRate = 0.005
	p.NumGenericPendings = 32
	tp, _ := topo.New(2, 1, 1, false, false, false)
	m := New(p, tp)
	m.EnableGoBackN()

	const msgs = 30
	var got [][]byte
	var b *App
	b, _ = m.Spawn(1, "rx", Generic, func(app *App) {
		buf, eq := recvSetup(t, app, 4096, core.MDOpPut|core.MDManageRemote)
		for len(got) < msgs {
			ev, err := app.API.EQWait(eq)
			if err != nil {
				return
			}
			if ev.Type != core.EventPutEnd {
				continue
			}
			if ev.NIFail {
				t.Error("NIFail with zero end-to-end corruption configured")
			}
			data := make([]byte, ev.MLength)
			buf.ReadAt(0, data)
			got = append(got, data)
		}
	})
	m.Spawn(0, "tx", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		for i := 0; i < msgs; i++ {
			src := app.Alloc(1024)
			fillb := bytes.Repeat([]byte{byte(i + 1)}, 1024)
			src.WriteAt(0, fillb)
			eq, _ := app.API.EQAlloc(16)
			md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: eq})
			app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0)
			waitFor(t, app, eq, core.EventSendEnd)
		}
	})
	m.RunUntil(100 * sim.Millisecond)
	if len(got) != msgs {
		t.Fatalf("received %d of %d over lossy links", len(got), msgs)
	}
	for i, data := range got {
		for _, v := range data {
			if v != byte(i+1) {
				t.Fatalf("message %d corrupted or reordered", i)
			}
		}
	}
	if m.Fab.Stats.LinkRetries == 0 {
		t.Error("no link retries on a lossy run")
	}
}

func TestMessageToDeadPidIsDiscarded(t *testing.T) {
	// A put to a pid with no process must vanish without wedging anything;
	// subsequent traffic flows normally.
	m := NewPair(model.Defaults())
	delivered := false
	var b *App
	b, _ = m.Spawn(1, "rx", Generic, func(app *App) {
		_, eq := recvSetup(t, app, 4096, core.MDOpPut)
		waitFor(t, app, eq, core.EventPutEnd)
		delivered = true
	})
	m.Spawn(0, "tx", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		src := app.Alloc(4096)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
		// First to a dead pid, then to the real receiver.
		app.API.Put(md, core.NoAck, core.ProcessID{Nid: 1, Pid: 9999}, testPtl, 7, 0, 0)
		app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0)
	})
	m.Run()
	if !delivered {
		t.Error("traffic wedged after a message to a dead pid")
	}
	if m.Node(1).Generic.Drops == 0 {
		t.Error("dead-pid message not counted as a drop")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	// Two identical machines must produce bit-identical timing.
	run := func() sim.Time {
		m := NewPair(model.Defaults())
		_, _, at := onePut(t, m, make([]byte, 100000))
		return at
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical runs diverged: %v vs %v", a, b)
	}
}

func TestRandomTrafficEndToEndProperty(t *testing.T) {
	// Property over the full machine: random puts and gets of random sizes
	// in both directions, every delivery byte-exact, and accounting closed
	// (sends = deliveries, nothing lost, nothing duplicated).
	f := func(seed int64, script []byte) bool {
		if len(script) > 24 {
			script = script[:24]
		}
		rng := rand.New(rand.NewSource(seed))
		m := NewPair(model.Defaults())

		type xfer struct {
			get  bool
			size int
			seed byte
		}
		plan := make([]xfer, 0, len(script))
		for _, b := range script {
			plan = append(plan, xfer{
				get:  b&1 == 1,
				size: 1 + rng.Intn(20000),
				seed: b,
			})
		}
		okAll := true
		var b *App
		b, _ = m.Spawn(1, "peer", Generic, func(app *App) {
			// Expose a get-able pattern buffer and accept puts.
			eq, _ := app.API.EQAlloc(4096)
			// Bits 7: put inbox. Bits 8: a stable pattern exposed for gets.
			meP, _ := app.API.MEAttach(testPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
				7, 0, core.Retain, core.After)
			inbox := app.Alloc(32 << 10)
			app.API.MDAttach(meP, core.MDesc{Region: inbox, Threshold: core.ThresholdInfinite,
				Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable,
				EQ:      eq}, core.Retain)
			meG, _ := app.API.MEAttach(testPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
				8, 0, core.Retain, core.After)
			exposed := app.Alloc(32 << 10)
			pattern := make([]byte, 32<<10)
			for i := range pattern {
				pattern[i] = byte(i*13 + 7)
			}
			exposed.WriteAt(0, pattern)
			app.API.MDAttach(meG, core.MDesc{Region: exposed, Threshold: core.ThresholdInfinite,
				Options: core.MDOpGet | core.MDManageRemote | core.MDEventStartDisable,
				EQ:      eq}, core.Retain)
			// One END event per operation (START events disabled).
			for i := 0; i < len(plan); i++ {
				if _, err := app.API.EQWait(eq); err != nil {
					return
				}
			}
		})
		m.Spawn(0, "driver", Generic, func(app *App) {
			app.Proc.Sleep(50 * sim.Microsecond)
			eq, _ := app.API.EQAlloc(4096)
			for _, x := range plan {
				if x.get {
					dst := app.Alloc(x.size)
					md, _ := app.API.MDBind(core.MDesc{Region: dst, Threshold: core.ThresholdInfinite,
						Options: core.MDEventStartDisable, EQ: eq})
					if err := app.API.GetRegion(md, 0, x.size, b.ID(), testPtl, 8, 0); err != nil {
						okAll = false
						return
					}
					for {
						ev, err := app.API.EQWait(eq)
						if err != nil {
							okAll = false
							return
						}
						if ev.Type == core.EventReplyEnd {
							break
						}
					}
					got := make([]byte, x.size)
					dst.ReadAt(0, got)
					for i, v := range got {
						if v != byte(i*13+7) {
							okAll = false
							return
						}
					}
					app.API.MDUnlink(md)
				} else {
					src := app.Alloc(x.size)
					data := make([]byte, x.size)
					for i := range data {
						data[i] = x.seed + byte(i)
					}
					src.WriteAt(0, data)
					md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite,
						Options: core.MDEventStartDisable, EQ: eq})
					if err := app.API.PutRegion(md, 0, x.size, core.NoAck, b.ID(), testPtl, 7, 0, 0); err != nil {
						okAll = false
						return
					}
					for {
						ev, err := app.API.EQWait(eq)
						if err != nil {
							okAll = false
							return
						}
						if ev.Type == core.EventSendEnd {
							break
						}
					}
					app.API.MDUnlink(md)
				}
			}
		})
		m.RunUntil(sim.Second)
		lib := m.Node(1).Generic.Lib(b.Pid)
		sent := uint64(len(plan))
		recvd := lib.Status(core.SRRecvCount) + lib.Status(core.SRDropCount)
		return okAll && recvd == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPanickedNodeFilesOneReport: a starved receiver (panic policy) files
// one FailurePanic report and its NIC dies, while the rest of the machine
// keeps working.
func TestPanickedNodeFilesOneReport(t *testing.T) {
	p := model.Defaults()
	p.NumGenericPendings = 2 // one RX pending: trivially exhaustible
	tp, _ := topo.New(3, 1, 1, false, false, false)
	m := New(p, tp)

	var victim *App
	victim, _ = m.Spawn(1, "victim", Generic, func(app *App) {
		// Never drains its EQ: held pendings guarantee exhaustion.
		_, _ = recvSetup(t, app, 4096, core.MDOpPut)
		app.Proc.Sleep(10 * sim.Millisecond)
	})
	m.Spawn(0, "attacker", Generic, func(app *App) {
		app.Proc.Sleep(30 * sim.Microsecond)
		src := app.Alloc(16)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
		for i := 0; i < 4; i++ {
			app.API.Put(md, core.NoAck, victim.ID(), testPtl, 7, 0, 0)
			app.Proc.Sleep(2 * sim.Microsecond)
		}
		// Traffic to a healthy node still works after the victim died.
	})
	survived := false
	var peer *App
	peer, _ = m.Spawn(2, "peer-rx", Generic, func(app *App) {
		_, eq := recvSetup(t, app, 4096, core.MDOpPut)
		waitFor(t, app, eq, core.EventPutEnd)
		survived = true
	})
	m.Spawn(0, "peer-tx", Generic, func(app *App) {
		app.Proc.Sleep(500 * sim.Microsecond) // after the victim's death
		src := app.Alloc(16)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite})
		app.API.Put(md, core.NoAck, peer.ID(), testPtl, 7, 0, 0)
	})
	m.RunUntil(5 * sim.Millisecond)

	fails := m.Reports()
	if len(fails) != 1 || fails[0].Kind != FailurePanic || fails[0].Node != 1 {
		t.Fatalf("reports = %v, want node 1's panic", fails)
	}
	if !survived {
		t.Error("healthy nodes stopped working after an unrelated node death")
	}
	if !m.Node(1).NIC.Dead() {
		t.Error("panicked NIC not marked dead")
	}
}
