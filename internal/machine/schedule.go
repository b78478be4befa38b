package machine

import (
	"portals3/internal/fabric"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// Declarative fault-schedule application (model.FaultSchedule): the path
// the one way to run timed faults, on every machine. A driver goroutine
// mutating a fault plane mid-run is something only a single-lane machine
// could tolerate; a schedule instead compiles to events planted at machine
// construction, so by the time the kernel runs, every fault activation is
// an ordinary lane-local event.
//
// Every machine keeps one fault plane per source node (injections are
// filtered where they happen), so link-down and stall state must be
// visible to every plane: each timed entry becomes one event per node, on
// that node's own lane, mutating only that node's plane. Events are
// planted iterating nodes in id order with the schedule in spec order —
// insertion order per (lane, time) is therefore a pure function of the
// schedule and the node→lane map's restriction to that lane, making the
// whole application bit-identical at every shard count. Stall resumes
// flush held injections through the normal hopwise launch path, whose
// first cross-lane post is at least one link occupancy plus HopLatency
// away — beyond the kernel's lookahead horizon, like any injection.
//
// Burst entries never appear here: they compile to windowed fault rules
// installed on the planes at construction (FaultSchedule.Rules).

// applySchedule plants Params.Schedule's timed entries. Called once from
// New/NewSharded; panics on a schedule that does not validate against the
// machine's topology, before any virtual time has passed.
func (m *Machine) applySchedule() {
	if len(m.P.Schedule) == 0 {
		return
	}
	if err := m.P.Schedule.Validate(m.Topo); err != nil {
		panic("machine: " + err.Error())
	}
	timed := m.P.Schedule.Timed()
	if len(timed) == 0 {
		return
	}
	for id := 0; id < m.Topo.Nodes(); id++ {
		nid := topo.NodeID(id)
		ln, _ := m.home(nid)
		m.planScheduleOn(ln.sim, ln.fab.Plane(nid), id, timed)
	}
}

// planScheduleOn plants node self's view of the timed entries, on its
// plane and its lane's simulator.
func (m *Machine) planScheduleOn(s *sim.Sim, pl *fabric.FaultPlane, self int, timed []model.ScheduleEntry) {
	for _, e := range timed {
		e := e
		node := topo.NodeID(e.Node)
		switch e.Kind {
		case model.SchedLinkDown:
			s.At(e.At, func() { pl.LinkDown(node, e.Dir) })
			s.At(e.At+e.Dur, func() { pl.LinkUp(node, e.Dir) })
		case model.SchedStall:
			s.At(e.At, func() { pl.StallNode(node) })
			s.At(e.At+e.Dur, func() { pl.ResumeNode(node) })
		case model.SchedRestart:
			// A restarting node neither receives (stall) nor forwards: every
			// link leaving its router goes down, so traffic routed through it
			// is lost and recovered by go-back-n, as on the real machine.
			dirs := nodeDirs(m.Topo, node)
			s.At(e.At, func() {
				pl.StallNode(node)
				for _, d := range dirs {
					pl.LinkDown(node, d)
				}
			})
			s.At(e.At+e.Dur, func() {
				for _, d := range dirs {
					pl.LinkUp(node, d)
				}
				pl.ResumeNode(node)
			})
		case model.SchedCorrupt:
			// Planted ledger corruption lands on the affected node's own
			// plane.
			if self == e.Node {
				s.At(e.At, func() { pl.CorruptLedger() })
			}
		}
	}
}

// nodeDirs lists the router ports of node that lead somewhere.
func nodeDirs(tp *topo.Topology, node topo.NodeID) []topo.Dir {
	all := []topo.Dir{
		{Axis: topo.X, Sign: 1}, {Axis: topo.X, Sign: -1},
		{Axis: topo.Y, Sign: 1}, {Axis: topo.Y, Sign: -1},
		{Axis: topo.Z, Sign: 1}, {Axis: topo.Z, Sign: -1},
	}
	out := make([]topo.Dir, 0, 6)
	for _, d := range all {
		if _, ok := tp.Neighbor(node, d); ok {
			out = append(out, d)
		}
	}
	return out
}
