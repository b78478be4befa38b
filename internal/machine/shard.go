package machine

import (
	"portals3/internal/fabric"
	"portals3/internal/model"
	"portals3/internal/oskernel"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// This file assembles sharded machines: the same node components and the
// same lane table as the classic machine, but one lane per kernel shard,
// each node built on its lane's simulator against its NodePort, run by the
// parallel kernel (sim.Kernel) under the fabric's conservative lookahead. A
// sharded machine with shards=1 is the bit-identical reference for any
// shard count (DESIGN.md §11); the classic machine remains the reference
// for the whole-path wire model.
//
// Observers — the flight recorder, the telemetry sampler, the stall
// detector — are lane-local on every machine: each node records into its
// own ring and each lane into its own telemetry instance, periodic checks
// fire through Machine.every (classic self-rescheduling events, or the
// kernel's canonical barrier ticks), and the per-lane artifacts merge
// deterministically at snapshot time (DESIGN.md §12). Faults are declared
// up front on both (Params.Faults, Params.Schedule).

// NewSharded builds a machine over the given topology whose nodes are
// partitioned into `shards` parallel event lanes. Nodes are assigned to
// lanes in contiguous blocks of the topology's Z-major id order, a pure
// function of (node, shards, total nodes).
//
// shards clamps to [1, nodes]: more lanes than nodes would leave the
// surplus lanes permanently empty (the block map id*shards/total then
// skips lane indices, and fabric.NewCluster rejects the out-of-range
// assignments), and the simulated results are bit-identical at every
// shard count anyway, so the clamp only removes degenerate partitions. Like
// New, it panics on parameters the model cannot run.
func NewSharded(p model.Params, tp *topo.Topology, shards int) *Machine {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if shards < 1 {
		shards = 1
	}
	if n := tp.Nodes(); shards > n {
		shards = n
	}
	kern := sim.NewKernel(shards, fabric.MinHandoffLatency(&p))
	total := int64(tp.Nodes())
	laneOf := func(id topo.NodeID) int { return int(int64(id) * int64(shards) / total) }
	m := &Machine{
		S:      kern.Lane(0),
		P:      p,
		Topo:   tp,
		OSKind: func(topo.NodeID) oskernel.Kind { return oskernel.Catamount },
		nodes:  make([]*Node, tp.Nodes()),
		lanes:  make([]lane, shards),
		engine: kern,
		kern:   kern,
	}
	m.cl = fabric.NewCluster(kern, tp, &m.P, laneOf)
	for i := range m.lanes {
		m.lanes[i] = lane{sim: kern.Lane(i), fab: m.cl.LaneFabric(i)}
	}
	m.applySchedule()
	return m
}

// Sharded reports whether this machine runs on the parallel kernel.
func (m *Machine) Sharded() bool { return m.kern != nil }

// ShardKernel returns the parallel kernel (nil on a classic machine), for
// diagnostics such as the window count.
func (m *Machine) ShardKernel() *sim.Kernel { return m.kern }

// FaultSnapshot returns the machine's fault-ledger counters, the sum of
// its per-source-node planes (every lane's fabric sees them all).
func (m *Machine) FaultSnapshot() (fabric.FaultStats, bool) {
	return m.lanes[0].fab.FaultSnapshot()
}

// every calls fn at each multiple of period — the one clock the machine's
// periodic observers (sampler, stall detector) run on. On a classic
// machine it is a self-rescheduling event that stops once nothing but
// such observers' ticks is pending (m.idleTicks counts those: two
// observers must not keep each other, and so the run, alive), so Run
// still returns. On a sharded machine it is a kernel barrier tick
// (sim.Kernel.Every): the lane workers have joined there, so fn may read
// any node race-free, the canonical tick times make whatever it records
// identical at every shard count, and ticks never keep the machine alive
// (RunUntil still fires the ones due through its horizon).
func (m *Machine) every(period sim.Time, fn func(now sim.Time)) {
	if m.kern != nil {
		m.kern.Every(period, fn)
		return
	}
	var tick func()
	arm := func() {
		m.idleTicks++
		m.S.After(period, tick)
	}
	tick = func() {
		m.idleTicks--
		fn(m.S.Now())
		if m.S.Pending() > int(m.idleTicks) {
			arm()
		}
	}
	arm()
}
