package machine

import (
	"fmt"
	"sort"

	"portals3/internal/sim"
	"portals3/internal/topo"
)

// This file is the machine's reliability/availability/serviceability loop:
// the SeaStar carries "all of the support functions necessary to provide
// reliability, availability, and serviceability (RAS) and boot services"
// (paper §2), and the firmware keeps a "heartbeat for RAS" in its control
// block (§4.2, Figure 3). Node panics (§4.3's exhaustion behavior) stop the
// heartbeat; the RAS monitor notices.

// NodeFailure records one node the RAS monitor declared dead.
type NodeFailure struct {
	Node   topo.NodeID
	Reason string
	At     sim.Time
}

// installFailureHandler is called at node construction. The handler files
// the panic as a FailurePanic report (Reports) and kills the firmware
// (blackholing its traffic) instead of crashing the process; a dead node's
// later exhaustions — headers already queued on its PowerPC — file
// nothing more, so a node files one report however it died. Set
// Node(n).NIC.OnPanic yourself to restore the crash-hard behavior. The
// report goes through the machine's failure funnel (flightrec.go), so a
// panic with the flight recorder on also snapshots a dump — on a classic
// machine only: a sharded node panics on a lane worker mid-window, where
// snapshotting the other lanes would race.
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

// RAS is a running heartbeat monitor.
type RAS struct {
	m      *Machine
	period sim.Time
	last   map[topo.NodeID]uint64
	missed map[topo.NodeID]int
	dead   map[topo.NodeID]sim.Time
	halted bool
}

// Dead returns the nodes the monitor has declared failed, with detection
// times, in node order.
func (r *RAS) Dead() []NodeFailure {
	var out []NodeFailure
	for id, at := range r.dead {
		out = append(out, NodeFailure{Node: id, Reason: "heartbeat lost", At: at})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Stop halts the monitor (and lets the event heap drain).
func (r *RAS) Stop() { r.halted = true }

// StartRAS begins firmware heartbeats on every node and a monitor that
// samples them every period, declaring a node dead after three silent
// samples. Both halves run on the machine's periodic clock (every):
// heartbeat ticks at period/4 increment every live NIC's counter — the idle
// polling loop's increments of §4.2 — and the monitor samples at period. A
// node that panics mid-run stops accruing heartbeats (NIC.Kill also halts
// the firmware's own per-handler increments) and is declared dead three
// monitor samples later.
//
// The clock is what differs between the machines (see every). On a classic
// machine the ticks reschedule themselves forever, so drive the simulation
// with RunUntil (and Stop the monitor before a final Run). On a sharded one
// they are kernel barrier ticks, which stop at kernel quiescence, so
// Machine.Run returns normally; the RunUntil idiom works there too —
// Machine.RunUntil fires the barrier ticks due through its horizon even
// once the lanes are quiescent — and the monitor samples at the same
// virtual times at every shard count.
func (m *Machine) StartRAS(period sim.Time) *RAS {
	if m.ras != nil {
		return m.ras
	}
	r := &RAS{
		m:      m,
		period: period,
		last:   make(map[topo.NodeID]uint64),
		missed: make(map[topo.NodeID]int),
		dead:   make(map[topo.NodeID]sim.Time),
	}
	m.ras = r
	hb := period / 4
	if hb <= 0 {
		hb = 1
	}
	m.every(hb, true, &r.halted, func(sim.Time) {
		for _, n := range m.nodes {
			if n != nil && !n.NIC.Dead() {
				n.NIC.Heartbeat++
			}
		}
	})
	m.every(period, true, &r.halted, r.check)
	return r
}

// check samples every watched node's heartbeat once at time now.
func (r *RAS) check(now sim.Time) {
	m := r.m
	for _, n := range m.nodes {
		if n == nil {
			continue
		}
		id, hb := n.ID, n.NIC.Heartbeat
		if _, gone := r.dead[id]; gone {
			continue
		}
		if hb == r.last[id] {
			r.missed[id]++
			if r.missed[id] >= 3 {
				r.dead[id] = now
			}
		} else {
			r.missed[id] = 0
		}
		r.last[id] = hb
	}
}

func (f NodeFailure) String() string {
	return fmt.Sprintf("node %d failed at %v: %s", f.Node, f.At, f.Reason)
}
