package machine

import (
	"fmt"
	"math"

	"portals3/internal/flightrec"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// This file is the machine's forensics loop: the flight recorder wiring,
// the single failure funnel every detector reports through, the stall
// detector, and the dump snapshotting that turns a failure into a
// post-mortem artifact (rendered by cmd/p3stat).

// FailureKind classifies a FailureReport.
type FailureKind int

// Failure kinds.
const (
	// FailurePanic is a node firmware panic (resource exhaustion under the
	// panic policy, or an explicit OnPanic).
	FailurePanic FailureKind = iota
	// FailureStall is the stall detector firing: a node held open work with
	// no forward progress for a full detection window.
	FailureStall
	// FailureLedger is a fault-ledger imbalance at quiescence: an injected
	// fault was neither recovered nor condemned, so a message vanished.
	FailureLedger
)

func (k FailureKind) String() string {
	switch k {
	case FailurePanic:
		return "panic"
	case FailureStall:
		return "stall"
	case FailureLedger:
		return "ledger"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// FailureReport is the single funnel for machine-detected failures. Node
// panics, stall detections and ledger imbalances all land here; when the
// flight recorder is on, a node's first report carries a dump snapshotted
// at detection time (fileReport).
type FailureReport struct {
	Kind   FailureKind
	Node   topo.NodeID // -1 for machine-scoped failures (ledger)
	Reason string
	At     sim.Time
	// Dump is the machine snapshot taken at detection; nil when the flight
	// recorder is off, on a node's later reports and on a sharded
	// machine's panics.
	Dump *flightrec.Dump
}

func (r FailureReport) String() string {
	if r.Node < 0 {
		return fmt.Sprintf("%s at %v: %s", r.Kind, r.At, r.Reason)
	}
	return fmt.Sprintf("%s on node %d at %v: %s", r.Kind, r.Node, r.At, r.Reason)
}

// Reports returns every failure the machine has detected, in detection
// order.
func (m *Machine) Reports() []FailureReport {
	return append([]FailureReport(nil), m.reports...)
}

// fileReport is the single failure funnel: record the report and, when the
// flight recorder is running and the caller vouches for dump safety (dump
// is true only on the classic machine, at kernel barrier ticks, or after
// Run — anywhere every lane's state is quiescent and readable), attach a
// dump stamped at the detection time to a node's first report. The run's
// first report holds every node's ring, as does a machine-scoped report's
// (node -1: the ledger, at most one per run); a node's first report after
// that holds its own ring alone, and its later reports carry no dump — a
// detector that keeps tripping costs a report line, not a ring per report.
func (m *Machine) fileReport(kind FailureKind, node topo.NodeID, reason string, at sim.Time, dump bool) {
	r := FailureReport{Kind: kind, Node: node, Reason: reason, At: at}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dumpEvents > 0 && dump && !m.reported[node] {
		all := node < 0 || len(m.reports) == 0
		r.Dump = m.takeDumpAt(reason, kind.String(), int(node), at, all)
	}
	if m.reported == nil {
		m.reported = make(map[topo.NodeID]bool)
	}
	m.reported[node] = true
	m.reports = append(m.reports, r)
}

// installFailureHandler is called at node construction. The handler files
// the panic as a FailurePanic report (Reports) and kills the firmware
// (blackholing its traffic) instead of crashing the process; a dead node's
// later exhaustions — headers already queued on its PowerPC — file
// nothing more, so a node files one report however it died. Set
// Node(n).NIC.OnPanic yourself to restore the crash-hard behavior. The
// report goes through fileReport, so a panic with the flight recorder on
// also snapshots a dump — on a classic machine only: a sharded node panics
// on a lane worker mid-window, where snapshotting the other lanes would
// race.
func (m *Machine) installFailureHandler(n *Node) {
	nic := n.NIC
	id := n.ID
	nic.OnPanic = func(reason string) {
		if nic.Dead() {
			return
		}
		// nic.S is the node's own lane, so the timestamp is race-free on a
		// sharded machine too; the funnel itself serializes internally.
		m.fileReport(FailurePanic, id, reason, nic.S.Now(), !m.Sharded())
		nic.Kill()
	}
}

// EnableFlightRecorder starts per-node flight recording, with ringEvents
// events per node (flightrec.DefaultRingEvents when <= 0) in every dump —
// the end-of-run one Artifacts writes and each failure report's — and
// returns the recorder. A ring grows as it fills, so a bound larger than
// the run's event count (math.MaxInt, say) keeps every event: the whole
// timeline. Existing and subsequently built nodes are wired. Like
// telemetry, enable it before spawning processes; a machine without it
// pays one pointer test per record site.
func (m *Machine) EnableFlightRecorder(ringEvents int) *flightrec.Recorder {
	if m.dumpEvents == 0 {
		if ringEvents <= 0 {
			ringEvents = flightrec.DefaultRingEvents
		}
		// No ring holds 2^31 events in memory, so the bound saturates there.
		m.dumpEvents = int32(min(ringEvents, math.MaxInt32))
		if m.rec == nil {
			m.arm(flightrec.NewRecorder(len(m.nodes), ringEvents))
		}
	}
	return m.rec
}

// arm makes rec the machine's one recorder: every lane's fabric and every
// node, built or to be built, records into it.
func (m *Machine) arm(rec *flightrec.Recorder) {
	m.rec = rec
	for i := range m.lanes {
		m.lanes[i].fab.FR = rec
	}
	for _, n := range m.nodes {
		if n != nil {
			m.wireFlightRec(n)
		}
	}
}

// wireFlightRec builds one node's ring and points its components at it.
func (m *Machine) wireFlightRec(n *Node) {
	r := m.rec.Ring(int(n.ID))
	n.NIC.FR = r
	n.Kernel.FR = r
}

// TakeDump snapshots every instantiated node's flight-recorder ring and
// occupancy watermarks into a dump with the "snapshot" trigger — the
// end-of-run artifact. Returns nil when the recorder is off.
func (m *Machine) TakeDump(reason string) *flightrec.Dump {
	if m.dumpEvents == 0 {
		return nil
	}
	return m.takeDumpAt(reason, "snapshot", -1, m.S.Now(), true)
}

// takeDumpAt snapshots the occupancy and the newest dumpEvents events of
// every instantiated node's ring (all), or of node's alone, with an
// explicit timestamp — the canonical tick time when called from a kernel
// barrier, where lane clocks sit at the previous horizon rather than the
// tick time itself.
func (m *Machine) takeDumpAt(reason, trigger string, node int, at sim.Time, all bool) *flightrec.Dump {
	d := &flightrec.Dump{Reason: reason, Trigger: trigger, At: at, Node: node}
	for _, n := range m.nodes {
		if n == nil || !all && int(n.ID) != node {
			continue
		}
		ring := m.rec.Ring(int(n.ID))
		occ := n.NIC.Occupancy()
		occ.EvQueueDepth = n.Generic.EvQueueDepth()
		occ.EvQueueHigh = n.Generic.EvQueueHigh()
		events := ring.Newest(int(m.dumpEvents))
		d.Nodes = append(d.Nodes, flightrec.NodeDump{
			Node:    int(n.ID),
			Occ:     occ,
			Dropped: ring.Dropped() + uint64(ring.Len()-len(events)),
			Events:  events,
		})
	}
	return d
}

// checkLedger audits the fault plane at quiescence: every injected fault
// must have been recovered or condemned. An imbalance means a message
// vanished without an owner — it files a (single) FailureLedger report
// rather than panicking, so the run's dumps and telemetry survive for the
// post-mortem.
func (m *Machine) checkLedger() {
	if m.ledgerReported {
		return
	}
	st, ok := m.FaultSnapshot()
	if !ok || st.Open() == 0 {
		return
	}
	m.ledgerReported = true
	// Post-Run, so even a sharded machine is quiescent: dump safely.
	m.fileReport(FailureLedger, -1,
		fmt.Sprintf("fault ledger imbalance at quiescence: %d open (%s)", st.Open(), st),
		m.S.Now(), true)
}

// StallDetector watches every instantiated node for open work with no
// forward progress across a virtual-time window — the failure mode panics
// and ledgers cannot catch: nothing crashed, nothing vanished, the machine
// is simply stuck (a lost flow-control frame with no timer, a requeue that
// never pumps). It fires once per stall episode per node; progress re-arms
// it.
type StallDetector struct {
	m      *Machine
	window sim.Time

	lastProg map[topo.NodeID]uint64   // progress counter at the last tick
	lastMove map[topo.NodeID]sim.Time // when progress last advanced
	tripped  map[topo.NodeID]bool     // already reported this episode

	// Stalls counts detections, for tests and reports.
	Stalls int
}

// StartStallDetector begins stall watching with the given detection window:
// a node holding open work (queued transmits, open receive streams, unacked
// go-back-n sends, undrained driver events) whose progress counter does not
// advance for a full window is reported as stalled, with a dump. Ticks run
// every window/4 through Machine.every and self-terminate, like the
// sampler, so Machine.Run still returns; on a sharded machine they are
// barrier ticks, so the cross-node progress reads and the attached dump are
// race-free and detections land at identical virtual times at every shard
// count.
func (m *Machine) StartStallDetector(window sim.Time) *StallDetector {
	if m.stall != nil {
		return m.stall
	}
	sd := &StallDetector{
		m:        m,
		window:   window,
		lastProg: make(map[topo.NodeID]uint64),
		lastMove: make(map[topo.NodeID]sim.Time),
		tripped:  make(map[topo.NodeID]bool),
	}
	m.stall = sd
	period := window / 4
	if period <= 0 {
		period = 1
	}
	m.every(period, sd.checkAt)
	return sd
}

// checkAt examines every node once at the given canonical time.
func (sd *StallDetector) checkAt(now sim.Time) {
	m := sd.m
	for _, n := range m.nodes {
		if n == nil {
			continue
		}
		id := n.ID
		prog := n.NIC.Progress()
		last, seen := sd.lastProg[id]
		if !seen || prog != last {
			sd.lastProg[id] = prog
			sd.lastMove[id] = now
			sd.tripped[id] = false
			continue
		}
		open := n.NIC.OpenWork() + n.Generic.EvQueueDepth()
		if open == 0 || sd.tripped[id] || now-sd.lastMove[id] < sd.window {
			continue
		}
		sd.tripped[id] = true
		sd.Stalls++
		n.NIC.FR.Record(flightrec.KStall, now, 0, uint32(open), 0)
		// Stall checks run at safe points on every machine kind (classic
		// event, sharded barrier tick), so dumps are always allowed.
		m.fileReport(FailureStall, id, fmt.Sprintf(
			"no forward progress for %v with %d open work items%s", now-sd.lastMove[id], open, emptyPools(n.NIC.Occupancy())),
			now, true)
	}
}

// emptyPools names each firmware pool with no free entry, for a stall
// report's reason: a node whose sources are all claimed NACKs every new
// flow for ever, and its report should say so.
func emptyPools(o flightrec.Occupancy) string {
	var s string
	for _, p := range []struct {
		name        string
		free, total int
	}{
		{"sources", o.SourcesFree, o.SourcesTotal},
		{"RX pendings", o.RxPendFree, o.RxPendTotal},
		{"TX pendings", o.TxPendFree, o.TxPendTotal},
	} {
		if p.free == 0 && p.total > 0 {
			s += fmt.Sprintf("; %s pool empty (0 of %d free)", p.name, p.total)
		}
	}
	return s
}
