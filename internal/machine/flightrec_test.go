package machine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"portals3/internal/core"
	"portals3/internal/flightrec"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// runStallScenario is the forensics acceptance scenario: a go-back-n pair
// whose outbound link goes down for well past the retransmission timeout,
// with the flight recorder and stall detector on. The sender's flow makes
// no progress for the whole window — the stall detector must fire and
// snapshot a dump — and once the link restores, go-back-n redelivers. It
// returns the machine, the delivered payload, and the end-of-run dump.
func runStallScenario(t *testing.T, build func(model.Params) *Machine) (*Machine, []byte, []byte, *flightrec.Dump) {
	t.Helper()
	p := model.Defaults()
	p.Schedule = model.FaultSchedule{{Kind: model.SchedLinkDown, Node: 0,
		Dir: topo.Dir{Axis: topo.X, Sign: 1}, At: 0, Dur: 2 * sim.Millisecond}}
	m := build(p)
	m.EnableGoBackN()
	m.EnableFlightRecorder(0)
	m.StartStallDetector(400 * sim.Microsecond) // > GbnTimeout (150us)
	payload := bytes.Repeat([]byte{0x5a}, 4096)
	_, got, at := onePut(t, m, payload)
	if at < 2*sim.Millisecond {
		t.Errorf("delivery at %v inside the down window", at)
	}
	return m, payload, got, m.TakeDump("end of run")
}

func TestStallDetectorFiresAndRecovers(t *testing.T) {
	forEachPair(t, testStallDetectorFiresAndRecovers)
}

func testStallDetectorFiresAndRecovers(t *testing.T, build func(model.Params) *Machine) {
	m, payload, got, _ := runStallScenario(t, build)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across the stall")
	}

	var stall *FailureReport
	for i, r := range m.Reports() {
		if r.Kind == FailureStall {
			if stall != nil {
				t.Fatalf("stall reported more than once: %v", m.Reports())
			}
			stall = &m.Reports()[i]
		}
	}
	if stall == nil {
		t.Fatalf("no stall report; reports: %v", m.Reports())
	}
	if stall.Node != 0 {
		t.Errorf("stall on node %d, want 0 (the wedged sender)", stall.Node)
	}
	if stall.Dump == nil {
		t.Fatal("stall report carries no dump")
	}
	if stall.Dump.Trigger != "stall" {
		t.Errorf("dump trigger %q, want stall", stall.Dump.Trigger)
	}

	// The at-detection dump must show the wedged flow: unacked sends held on
	// node 0, a KStall marker, and the gbn retransmission churn.
	var n0 *flightrec.NodeDump
	for i := range stall.Dump.Nodes {
		if stall.Dump.Nodes[i].Node == 0 {
			n0 = &stall.Dump.Nodes[i]
		}
	}
	if n0 == nil {
		t.Fatal("stall dump has no node 0")
	}
	if n0.Occ.Unacked == 0 {
		t.Error("stall dump shows no unacked sends on the wedged node")
	}
	kinds := make(map[flightrec.Kind]int)
	for _, e := range n0.Events {
		kinds[e.Kind]++
	}
	for _, k := range []flightrec.Kind{flightrec.KStall, flightrec.KGbnTimeout, flightrec.KGbnRewind} {
		if kinds[k] == 0 {
			t.Errorf("stall dump node 0 has no %v event", k)
		}
	}
}

// TestStallDumpReconstructsCausalChain checks the tentpole contract: from
// the end-of-run dump alone, one span id reconstructs the faulted message's
// full hop timeline — serialized on the sender, rewound through go-back-n
// while the link was down, then accepted and delivered on the receiver.
func TestStallDumpReconstructsCausalChain(t *testing.T) {
	forEachPair(t, testStallDumpReconstructsCausalChain)
}

func testStallDumpReconstructsCausalChain(t *testing.T, build func(model.Params) *Machine) {
	_, _, _, final := runStallScenario(t, build)
	spans := final.Spans()
	if len(spans) != 1 {
		t.Fatalf("Spans() = %v, want exactly the one data message", spans)
	}
	tl := final.Span(spans[0])

	// The hop chain must include, in time order: TX serialize (node 0),
	// at least one rewind (node 0), the accepted header (node 1), and the
	// delivery (node 1).
	idx := func(k flightrec.Kind, node int) int {
		for i, e := range tl {
			if e.Kind == k && e.Node == node {
				return i
			}
		}
		return -1
	}
	ser := idx(flightrec.KTxSerialize, 0)
	rew := idx(flightrec.KGbnRewind, 0)
	rxh := idx(flightrec.KRxHeader, 1)
	done := idx(flightrec.KRxDone, 1)
	if ser < 0 || rew < 0 || rxh < 0 || done < 0 {
		t.Fatalf("span %d missing hops: serialize=%d rewind=%d rx-header=%d rx-done=%d\n%v",
			spans[0], ser, rew, rxh, done, tl)
	}
	if !(ser < rew && rew < rxh && rxh < done) {
		t.Fatalf("hop chain out of order: serialize=%d rewind=%d rx-header=%d rx-done=%d",
			ser, rew, rxh, done)
	}
	// The rewound retransmissions carry the same span: more than one
	// KTxHeader for one serialize.
	headers := 0
	for _, e := range tl {
		if e.Kind == flightrec.KTxHeader {
			headers++
		}
	}
	if headers < 2 {
		t.Errorf("span has %d header injections, want >= 2 (original + retransmission)", headers)
	}
}

// TestStallDumpDeterministic: the same seeded scenario twice encodes to
// byte-identical dumps — both the at-detection stall dump and the
// end-of-run snapshot.
func TestStallDumpDeterministic(t *testing.T) {
	forEachPair(t, testStallDumpDeterministic)
}

func testStallDumpDeterministic(t *testing.T, build func(model.Params) *Machine) {
	ma, _, _, finalA := runStallScenario(t, build)
	mb, _, _, finalB := runStallScenario(t, build)
	if !bytes.Equal(finalA.Bytes(), finalB.Bytes()) {
		t.Error("end-of-run dumps differ between same-seed runs")
	}
	ra, rb := ma.Reports(), mb.Reports()
	if len(ra) != len(rb) {
		t.Fatalf("report counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Dump == nil || rb[i].Dump == nil {
			continue
		}
		if !bytes.Equal(ra[i].Dump.Bytes(), rb[i].Dump.Bytes()) {
			t.Errorf("report %d dumps differ between same-seed runs", i)
		}
	}
}

// TestPanicReportCarriesExhaustDump: an incast that exhausts the receiver
// under the panic policy must file a FailurePanic report through the
// failure funnel, with a dump whose ring shows the exhaustion event.
func TestPanicReportCarriesExhaustDump(t *testing.T) {
	p := model.Defaults()
	p.NumGenericPendings = 16 // starve the receiver
	const senders, msgs, msgBytes = 4, 30, 2048
	tp, err := topo.New(senders+1, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, tp)
	m.EnableFlightRecorder(0)

	recv, err := m.Spawn(0, "incast-recv", Generic, func(app *App) {
		eq, _ := app.API.EQAlloc(8192)
		me, _ := app.API.MEAttach(3, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 1, 0, core.Retain, core.After)
		buf := app.Alloc(msgBytes)
		app.API.MDAttach(me, core.MDesc{Region: buf, Threshold: core.ThresholdInfinite,
			Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable, EQ: eq}, core.Retain)
		for {
			if _, err := app.API.EQWait(eq); err != nil && err != core.ErrEQDropped {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s <= senders; s++ {
		if _, err := m.Spawn(topo.NodeID(s), fmt.Sprintf("incast-tx%d", s), Generic, func(app *App) {
			app.Proc.Sleep(50 * sim.Microsecond)
			eq, _ := app.API.EQAlloc(1024)
			src := app.Alloc(msgBytes)
			md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite,
				Options: core.MDEventStartDisable, EQ: eq})
			for i := 0; i < msgs; i++ {
				if err := app.API.Put(md, core.NoAck, recv.ID(), 3, 1, 0, 0); err != nil {
					return
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The receiver is left waiting on its dead node's event queue: that
	// deadlock is the panic's consequence, so Run returns.
	m.Run()

	// A node dies once: the headers queued on its PowerPC when it panicked
	// exhaust the pool again, but file no report of their own.
	var panics []FailureReport
	for _, r := range m.Reports() {
		if r.Kind == FailurePanic {
			panics = append(panics, r)
		}
	}
	if len(panics) != 1 {
		t.Fatalf("incast filed %d panic reports, want 1; reports: %v", len(panics), m.Reports())
	}
	panicReport := &panics[0]
	if panicReport.Node != 0 {
		t.Errorf("panic on node %d, want 0", panicReport.Node)
	}
	if panicReport.Dump == nil {
		t.Fatal("panic report carries no dump")
	}
	found := false
	for _, nd := range panicReport.Dump.Nodes {
		if nd.Node != 0 {
			continue
		}
		for _, e := range nd.Events {
			if e.Kind == flightrec.KExhaust {
				found = true
			}
		}
	}
	if !found {
		t.Error("panic dump has no KExhaust event on the panicked node")
	}
}

// TestSourceExhaustionLivelockIsAStall: on a 3³ torus whose NICs hold 8
// source structures, 26 peers incast into node 5 under go-back-n. The
// first 8 flows claim the hot node's sources, which are never reclaimed;
// every other flow is NACKed for ever and retransmits on its timer, so the
// job never ends (Run would not return; the test runs to a horizon). The
// NACKed headers and the retransmitted chunks are not progress, so the
// stall detector must file a report — counting every arriving header, it
// never did — and the hot node's must name the pool that ran dry, while
// no sender's names any.
func TestSourceExhaustionLivelockIsAStall(t *testing.T) {
	p := model.Defaults()
	p.NumSources = 8
	tp, err := topo.XT3Torus(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := NewSharded(p, tp, 1)
	m.EnableGoBackN()
	m.StartStallDetector(400 * sim.Microsecond)
	const hot, msgs, msgBytes = 5, 2, 1024
	recv, err := m.Spawn(hot, "incast-recv", Generic, func(app *App) {
		_, eq := recvSetup(t, app, msgBytes, core.MDOpPut|core.MDManageRemote|core.MDEventStartDisable)
		for {
			if _, err := app.API.EQWait(eq); err != nil && err != core.ErrEQDropped {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < tp.Nodes(); s++ {
		if s == hot {
			continue
		}
		if _, err := m.Spawn(topo.NodeID(s), fmt.Sprintf("incast-tx%d", s), Generic, func(app *App) {
			app.Proc.Sleep(50 * sim.Microsecond)
			md, _ := app.API.MDBind(core.MDesc{Region: app.Alloc(msgBytes), Threshold: core.ThresholdInfinite})
			for i := 0; i < msgs; i++ {
				if err := app.API.Put(md, core.NoAck, recv.ID(), testPtl, 7, 0, 0); err != nil {
					return
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.RunUntil(10 * sim.Millisecond)

	stalls, named := 0, false
	for _, r := range m.Reports() {
		if r.Kind != FailureStall {
			continue
		}
		stalls++
		switch pool := strings.Contains(r.Reason, "pool empty"); {
		case r.Node == hot:
			named = named || strings.Contains(r.Reason, "sources pool empty")
		case pool:
			t.Errorf("a sender's report names a pool: %v", r)
		}
	}
	if stalls == 0 {
		t.Fatalf("a source-exhaustion livelock filed no stall report; reports: %v", m.Reports())
	}
	if !named {
		t.Errorf("no report of node %d names its empty source pool; reports: %v", hot, m.Reports())
	}
}

// TestDeadlockWithoutAPanicReportStillPanics: a process left blocked on a
// healthy machine is a bug in the program, and Run says so.
func TestDeadlockWithoutAPanicReportStillPanics(t *testing.T) {
	m := NewPair(model.Defaults())
	if _, err := m.Spawn(0, "waits-forever", Generic, func(app *App) {
		eq, _ := app.API.EQAlloc(1)
		app.API.EQWait(eq)
	}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if _, ok := r.(sim.Deadlock); !ok {
			t.Errorf("Run recovered %v, want a sim.Deadlock", r)
		}
	}()
	m.Run()
	t.Error("Run returned with a process blocked and no panic report")
}

// TestLedgerImbalanceFilesReport: a run where an injected drop is never
// recovered (no go-back-n) leaves the fault ledger open at quiescence;
// Machine.Run must file a single machine-scoped FailureLedger report with a
// dump, not panic.
func TestLedgerImbalanceFilesReport(t *testing.T) {
	p := model.Defaults()
	p.Faults = []model.FaultRule{model.NewFault(model.FaultDrop, model.FrameData, 1)}
	m := NewPair(p)
	m.EnableFlightRecorder(0)
	var b *App
	b, _ = m.Spawn(1, "rx", Generic, func(app *App) {
		recvSetup(t, app, 4096, core.MDOpPut|core.MDManageRemote)
	})
	m.Spawn(0, "tx", Generic, func(app *App) {
		app.Proc.Sleep(10 * sim.Microsecond)
		eq, _ := app.API.EQAlloc(8)
		src := app.Alloc(8)
		md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite,
			Options: core.MDEventStartDisable, EQ: eq})
		app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0)
	})
	m.Run()
	m.Run() // a second quiescence must not duplicate the report

	var ledgers []FailureReport
	for _, r := range m.Reports() {
		if r.Kind == FailureLedger {
			ledgers = append(ledgers, r)
		}
	}
	if len(ledgers) != 1 {
		t.Fatalf("got %d ledger reports, want 1; reports: %v", len(ledgers), m.Reports())
	}
	if ledgers[0].Node != -1 {
		t.Errorf("ledger report node %d, want -1 (machine scope)", ledgers[0].Node)
	}
	if ledgers[0].Dump == nil {
		t.Error("ledger report carries no dump")
	}
}

// TestOccupancyGaugesExported: the sampler must export the firmware
// occupancy series and watermark gauges per node.
func TestOccupancyGaugesExported(t *testing.T) {
	p := model.Defaults()
	m := NewPair(p)
	m.StartSampler(20 * sim.Microsecond)
	payload := bytes.Repeat([]byte{0x11}, 4096)
	_, got, _ := onePut(t, m, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	e := m.Telemetry().Snapshot(m.S.Now())
	wantSeries := map[string]bool{
		"node_fw_rx_pendings_free": false, "node_fw_tx_pendings_free": false,
		"node_fw_sources_free": false, "node_evq_depth": false,
	}
	for _, s := range e.Series {
		if _, ok := wantSeries[s.Name]; ok && len(s.Values) > 0 {
			wantSeries[s.Name] = true
		}
	}
	for name, seen := range wantSeries {
		if !seen {
			t.Errorf("series %s missing from export", name)
		}
	}
	wantGauges := map[string]bool{
		"node_fw_rx_pendings_low": false, "node_fw_tx_pendings_low": false,
		"node_fw_sources_low": false, "node_evq_high": false,
	}
	for _, mt := range e.Metrics {
		if _, ok := wantGauges[mt.Name]; ok {
			wantGauges[mt.Name] = true
			if mt.Name == "node_fw_tx_pendings_low" && mt.Labels == `node="0"` && mt.Value >= float64(p.NumGenericPendings/2) {
				t.Errorf("tx pendings low-water %g never moved below the pool total", mt.Value)
			}
		}
	}
	for name, seen := range wantGauges {
		if !seen {
			t.Errorf("gauge %s missing from export", name)
		}
	}
}

// TestFlightRecorderOffIsFree: with the recorder off, nothing is recorded
// and no dump is produced — the off path must stay nil end to end.
func TestFlightRecorderOffIsFree(t *testing.T) {
	p := model.Defaults()
	m := NewPair(p)
	payload := bytes.Repeat([]byte{0x22}, 1024)
	_, got, _ := onePut(t, m, payload)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	if m.rec != nil {
		t.Fatal("recorder exists without EnableFlightRecorder")
	}
	if d := m.TakeDump("x"); d != nil {
		t.Fatal("TakeDump produced a dump with the recorder off")
	}
}
