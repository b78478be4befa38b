package machine

import (
	"bytes"
	"testing"

	"portals3/internal/core"
	"portals3/internal/fabric"
	"portals3/internal/fw"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
)

// pingPongWithTelemetry runs k put rounds of size bytes on a fresh pair
// with telemetry enabled and returns the machine.
func pingPongWithTelemetry(t *testing.T, size, k int, sample sim.Time) *Machine {
	t.Helper()
	m := NewPair(model.Defaults())
	m.EnableTelemetry()
	if sample > 0 {
		m.StartSampler(sample)
	}

	// The receive descriptor's locally managed offset advances with every
	// arriving put, so the buffer must hold the whole block.
	if size*k > 1<<20 {
		t.Fatalf("test block %d bytes exceeds the receive buffer", size*k)
	}
	var a, b *App
	b, _ = m.Spawn(1, "pong", Generic, func(app *App) {
		buf, eq := recvSetup(t, app, 1<<20, core.MDOpPut)
		_ = buf
		src := app.Alloc(size)
		md, err := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: eq})
		if err != nil {
			t.Errorf("MDBind: %v", err)
			return
		}
		for i := 0; i < k; i++ {
			waitFor(t, app, eq, core.EventPutEnd)
			if err := app.API.Put(md, core.NoAck, a.ID(), testPtl, 7, 0, 0); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	})
	a, _ = m.Spawn(0, "ping", Generic, func(app *App) {
		buf, eq := recvSetup(t, app, 1<<20, core.MDOpPut)
		_ = buf
		app.Proc.Sleep(50 * sim.Microsecond) // let the peer post its ME
		src := app.Alloc(size)
		md, err := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: eq})
		if err != nil {
			t.Errorf("MDBind: %v", err)
			return
		}
		for i := 0; i < k; i++ {
			if err := app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			waitFor(t, app, eq, core.EventPutEnd)
		}
	})
	m.Run()
	return m
}

// TestTelemetryAttributionEndToEnd is the PR's acceptance check: a real
// exchange produces per-segment latency that partitions the end-to-end
// time (well within the 1% budget — exactly, by construction), and the
// decomposition survives both export formats.
func TestTelemetryAttributionEndToEnd(t *testing.T) {
	const rounds = 20
	m := pingPongWithTelemetry(t, 4096, rounds, 0)
	tel := m.Telemetry()
	if tel == nil {
		t.Fatal("telemetry not enabled")
	}

	e2e := tel.E2EHist()
	if e2e.Count() == 0 {
		t.Fatal("no completed message records")
	}
	// Both directions of every round are tracked.
	if e2e.Count() != 2*rounds {
		t.Errorf("completed records = %d, want %d", e2e.Count(), 2*rounds)
	}
	var segSum int64
	for s := telemetry.Seg(0); s < telemetry.NumSegs; s++ {
		h := tel.SegmentHist(s)
		if h.Count() != e2e.Count() {
			t.Errorf("segment %v count = %d, want %d", s, h.Count(), e2e.Count())
		}
		if h.Sum() <= 0 {
			t.Errorf("segment %v has zero total time", s)
		}
		segSum += h.Sum()
	}
	if segSum != e2e.Sum() {
		t.Errorf("segment sum %d != e2e sum %d", segSum, e2e.Sum())
	}

	// The decomposition must survive the JSON export round trip and the
	// Breakdown view must agree within the acceptance tolerance.
	var js bytes.Buffer
	if err := tel.WriteJSON(&js, m.S.Now()); err != nil {
		t.Fatal(err)
	}
	exp, err := telemetry.ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	bd, ok := exp.Breakdown()
	if !ok {
		t.Fatal("exported snapshot has no breakdown")
	}
	if bd.Messages != e2e.Count() {
		t.Errorf("breakdown messages = %d, want %d", bd.Messages, e2e.Count())
	}
	if bd.DriftPct > 1.0 {
		t.Errorf("segment sum drifts %.4f%% from e2e, budget is 1%%", bd.DriftPct)
	}
}

// TestTelemetryDeterministic: two identical runs export byte-identical
// telemetry — the simulator's determinism contract extends to the
// observability layer.
func TestTelemetryDeterministic(t *testing.T) {
	run := func() string {
		m := pingPongWithTelemetry(t, 1024, 8, 100*sim.Microsecond)
		var js bytes.Buffer
		if err := m.Telemetry().WriteJSON(&js, m.S.Now()); err != nil {
			t.Fatal(err)
		}
		return js.String()
	}
	if run() != run() {
		t.Error("JSON export differs between identical runs")
	}
}

// TestSamplerTicksAndSelfTerminates: the sampler takes periodic snapshots
// in virtual time, its counter series are monotone, and it does not keep
// the event loop alive (Run returning at all proves that).
func TestSamplerTicksAndSelfTerminates(t *testing.T) {
	m := pingPongWithTelemetry(t, 16384, 10, 50*sim.Microsecond)
	sp := m.sampler
	if sp == nil {
		t.Fatal("sampler not installed")
	}
	if sp.Samples < 2 {
		t.Fatalf("sampler took %d samples, want several", sp.Samples)
	}
	tel := m.Telemetry()
	for _, name := range []string{
		"fabric_messages_total", "fabric_delivered_total", "sim_events_fired_total",
	} {
		s := tel.SeriesFor(name)
		if len(s.Samples) != sp.Samples {
			t.Errorf("series %s has %d samples, want %d", name, len(s.Samples), sp.Samples)
		}
		for i := 1; i < len(s.Samples); i++ {
			if s.Samples[i].V < s.Samples[i-1].V {
				t.Errorf("series %s not monotone at %d: %v -> %v",
					name, i, s.Samples[i-1].V, s.Samples[i].V)
			}
			if s.Samples[i].T <= s.Samples[i-1].T {
				t.Errorf("series %s time not increasing at %d", name, i)
			}
		}
	}
	// Per-node series exist for both nodes.
	for node := 0; node < 2; node++ {
		s := tel.SeriesFor("node_fw_heartbeat_total", telemetry.NodeLabel(node))
		if len(s.Samples) == 0 {
			t.Errorf("node %d heartbeat series empty", node)
		}
	}
	// The per-node interrupt dispatch histogram is live in generic mode.
	h := tel.Reg.Histogram("host_irq_dispatch_ps", telemetry.NodeLabel(0))
	if h.Count() == 0 {
		t.Error("interrupt dispatch histogram empty on node 0")
	}
	if min := h.Min(); min < int64(m.P.InterruptOverhead) {
		t.Errorf("irq dispatch min %d below the %d ps interrupt overhead floor",
			min, int64(m.P.InterruptOverhead))
	}
}

// TestStatsStringGolden pins the counter table rendering.
func TestStatsStringGolden(t *testing.T) {
	s := Stats{
		Nodes: []NodeStats{
			{
				Node: 0, OS: "catamount", Interrupts: 42, Coalesced: 7,
				Firmware: fw.Stats{HeadersRx: 120, MsgsTx: 118, EventsPosted: 240},
				PPCBusy:  0.25, HTReadBusy: 0.031, HTWrBusy: 0.125,
			},
			{
				Node: 1, OS: "linux", Interrupts: 9, Coalesced: 0,
				Firmware: fw.Stats{HeadersRx: 5, MsgsTx: 6, EventsPosted: 11},
			},
		},
		Fabric: fabric.Stats{Messages: 124, Chunks: 1000, LinkRetries: 2, Delivered: 123},
	}
	want := "" +
		"  node os            irq   coal  hdrs-rx  msgs-tx   events    ppc%   htrd%   htwr%\n" +
		"     0 catamount      42      7      120      118      240   25.0%    3.1%   12.5%\n" +
		"     1 linux           9      0        5        6       11    0.0%    0.0%    0.0%\n" +
		"fabric: 124 messages, 1000 chunks, 2 link retries, 123 delivered\n"
	if got := s.String(); got != want {
		t.Errorf("Stats.String() mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCounterConsistencyMultiNode exchanges messages around a four-node
// line and checks the cross-layer counter invariants the counter view relies
// on: fabric delivery never exceeds injection, coalesced raises never
// exceed raise requests, inline deliveries never exceed headers, and
// firmware TX counts account for every fabric message.
func TestCounterConsistencyMultiNode(t *testing.T) {
	tp, err := topo.New(4, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	m := New(model.Defaults(), tp)
	m.EnableTelemetry()

	const nodes = 4
	sizes := []int{8, 4096, 70000} // inline, single-chunk, multi-chunk
	apps := make([]*App, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		apps[i], err = m.Spawn(topo.NodeID(i), "xchg", Generic, func(app *App) {
			buf, eq := recvSetup(t, app, 1<<20, core.MDOpPut)
			_ = buf
			app.Proc.Sleep(50 * sim.Microsecond)
			src := app.Alloc(1 << 20)
			md, err := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: eq})
			if err != nil {
				t.Errorf("MDBind: %v", err)
				return
			}
			dst := apps[(i+1)%nodes].ID()
			for _, sz := range sizes {
				if err := app.API.PutRegion(md, 0, sz, core.NoAck, dst, testPtl, 7, 0, 0); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				waitFor(t, app, eq, core.EventPutEnd) // my inbound message
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	m.Run()

	st := m.Stats()
	if st.Fabric.Delivered > st.Fabric.Messages {
		t.Errorf("delivered %d > messages %d", st.Fabric.Delivered, st.Fabric.Messages)
	}
	if st.Fabric.Messages == 0 {
		t.Fatal("no fabric traffic")
	}
	var sumTx, sumHdr uint64
	for _, n := range st.Nodes {
		raises := n.Interrupts + n.Coalesced
		if n.Coalesced > raises {
			t.Errorf("node %d: coalesced %d > raises %d", n.Node, n.Coalesced, raises)
		}
		if n.Interrupts == 0 {
			t.Errorf("node %d: generic-mode exchange took no interrupts", n.Node)
		}
		if n.Firmware.InlineRx > n.Firmware.HeadersRx {
			t.Errorf("node %d: inline-rx %d > headers-rx %d",
				n.Node, n.Firmware.InlineRx, n.Firmware.HeadersRx)
		}
		sumTx += n.Firmware.MsgsTx
		sumHdr += n.Firmware.HeadersRx
	}
	if sumTx != st.Fabric.Messages {
		t.Errorf("sum of firmware msgs-tx %d != fabric messages %d", sumTx, st.Fabric.Messages)
	}
	if sumHdr > st.Fabric.Messages {
		t.Errorf("sum of headers-rx %d > fabric messages %d", sumHdr, st.Fabric.Messages)
	}
	// Attribution should have closed the books on this quiesced machine:
	// every record either completed or was reclaimed, and the completed
	// count cannot exceed fabric deliveries.
	exp := m.Telemetry().Snapshot(m.S.Now())
	comp := exp.Metric("portals_msg_records_completed", "")
	if comp == nil || comp.Value == 0 {
		t.Fatal("no completed attribution records")
	}
	if uint64(comp.Value) > st.Fabric.Delivered {
		t.Errorf("completed records %v > delivered %d", comp.Value, st.Fabric.Delivered)
	}
}

// TestClassicObserverHandlesAreLive: on a classic machine the lane table has
// one entry, and Telemetry() hands back that entry's live instance — the
// very handle EnableTelemetry returned — not a merged copy, before and after
// the run. (Sharded machines merge per-lane instances into a fresh one.)
// The fabric records into the same telemetry and the same recorder as the
// nodes.
func TestClassicObserverHandlesAreLive(t *testing.T) {
	m := NewPair(model.Defaults())
	if m.Telemetry() != nil || m.TakeDump("before") != nil {
		t.Fatal("observers exist before Enable*")
	}
	tel, rec := m.EnableTelemetry(), m.EnableFlightRecorder(0)
	if m.EnableTelemetry() != tel || m.EnableFlightRecorder(0) != rec {
		t.Error("a second Enable* built new observers")
	}
	payload := bytes.Repeat([]byte{0x42}, 2048)
	if _, got, _ := onePut(t, m, payload); !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	if m.Telemetry() != tel {
		t.Error("Telemetry() is not the handle EnableTelemetry returned")
	}
	if m.Fab.Tel != tel || m.Fab.FR != rec {
		t.Error("the fabric records into different observers than the nodes")
	}

	tp, _ := topo.New(2, 1, 1, false, false, false)
	sm := NewSharded(model.Defaults(), tp, 1)
	if stel := sm.EnableTelemetry(); sm.Telemetry() == stel {
		t.Error("sharded Telemetry() returned lane 0's live instance, want a merge")
	}
}
