// Sharded fabric: the hopwise store-and-forward transport that lets one
// simulated machine run across the parallel kernel's event lanes.
//
// The classic Fabric reserves a message's whole fixed path at injection
// time — an optimization that is exact on a single event lane but couples
// every node's state at zero latency. Here each hop is its own event,
// executed on the lane that owns the current router, and every inter-node
// handoff travels through the kernel's cross-shard mailboxes. Both
// transports move packets with the same pooled carrier (fabric.go) and
// share its injected and arrived steps; this file holds only the walk in
// between — launch, the per-router hop, destination-side admission. The
// minimum handoff distance — one link occupancy plus the per-hop wire
// latency — is the conservative lookahead bound the kernel synchronizes on
// (MinHandoffLatency).
//
// Node state is partitioned by lane: each lane owns a Fabric instance
// (object pools, link servers, counters, telemetry handle) and each node a
// NodePort, the per-node injection interface the firmware holds. A NodePort
// recycles carriers into the pools of the lane that frees them, so a chunk
// allocated on shard A and released on shard B simply migrates pools — the
// freelists never see cross-shard writes (see the pool-handoff test).
package fabric

import (
	"fmt"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// Port is the fabric surface a NIC holds: injection, carrier pooling and
// fault-ledger notification. The classic *Fabric implements it directly;
// sharded machines hand each NIC its node's *NodePort.
type Port interface {
	Attach(node topo.NodeID, ep Endpoint)
	NewStream(hdr wire.Header, src, dst topo.NodeID, payloadLen int) *Message
	SendHeader(m *Message)
	SendChunk(c *Chunk)
	AllocChunk(n int) *Chunk
	RecycleChunk(c *Chunk)
	RecycleMsg(m *Message)
	FaultAccepted(m *Message)
	FaultCondemned(m *Message)
}

var (
	_ Port = (*Fabric)(nil)
	_ Port = (*NodePort)(nil)
)

// MinHandoffLatency is the smallest virtual-time distance of any
// inter-node handoff in the hopwise transport: every hop pays at least one
// link occupancy (> 0) plus HopLatency before the next node is touched, so
// HopLatency is a safe conservative lookahead for the sharded kernel.
func MinHandoffLatency(p *model.Params) sim.Time { return p.HopLatency }

// Cluster is the sharded fabric: one Fabric per lane, one NodePort per
// node, and the endpoint directory shared by all lanes (written only
// during machine assembly, read-only while the kernel runs).
type Cluster struct {
	Kern *sim.Kernel
	Topo *topo.Topology
	P    *model.Params

	laneOf []int
	lanes  []*Fabric
	ports  []*NodePort
	eps    []Endpoint
}

// NewCluster partitions the topology's nodes over the kernel's lanes.
// laneOf must be a pure function mapping every node to a lane in range.
func NewCluster(kern *sim.Kernel, t *topo.Topology, p *model.Params, laneOf func(topo.NodeID) int) *Cluster {
	if p.LinkBitErrorRate > 0 {
		panic("fabric: sharded cluster requires LinkBitErrorRate=0 (link-retry sampling draws lane-local randomness)")
	}
	n := t.Nodes()
	cl := &Cluster{
		Kern:   kern,
		Topo:   t,
		P:      p,
		laneOf: make([]int, n),
		lanes:  make([]*Fabric, kern.Shards()),
		ports:  make([]*NodePort, n),
		eps:    make([]Endpoint, n),
	}
	// One table of message sequences and one of fault planes, shared by
	// every lane; each lane touches only its own nodes' entries.
	seqs := make([]uint64, n)
	planes := newPlanes(p, n)
	for i := range cl.lanes {
		cl.lanes[i] = newLane(kern.Lane(i), t, p)
		cl.lanes[i].seqs, cl.lanes[i].planes = seqs, planes
	}
	for id := 0; id < n; id++ {
		lane := laneOf(topo.NodeID(id))
		if lane < 0 || lane >= kern.Shards() {
			panic(fmt.Sprintf("fabric: node %d mapped to lane %d of %d", id, lane, kern.Shards()))
		}
		cl.laneOf[id] = lane
		pt := &NodePort{cl: cl, node: topo.NodeID(id), lane: lane, f: cl.lanes[lane]}
		if planes != nil {
			planes[id].f, planes[id].send = pt.f, pt.launch
		}
		cl.ports[id] = pt
	}
	return cl
}

// Port returns node id's injection interface.
func (cl *Cluster) Port(id topo.NodeID) *NodePort { return cl.ports[id] }

// Lane returns the lane index owning node id.
func (cl *Cluster) Lane(id topo.NodeID) int { return cl.laneOf[id] }

// LaneFabric returns lane i's fabric instance: its stats and link meters,
// and the Tel handle the machine attaches per lane (per-lane
// instances keep the hot path lock-free; the machine merges them at
// snapshot time).
func (cl *Cluster) LaneFabric(i int) *Fabric { return cl.lanes[i] }

// NodePort is one node's fabric interface on a sharded machine. All its
// methods run on the node's own lane.
type NodePort struct {
	cl   *Cluster
	node topo.NodeID
	lane int
	f    *Fabric // the owning lane's fabric (pools, links, stats, telemetry)

	postSeq uint64 // per-node mailbox ordering sequence, shard-invariant
}

// post sends fn through the kernel mailbox to execute on dst's lane at
// time at, ordered by this node's shard-invariant post sequence.
func (pt *NodePort) post(dst *NodePort, at sim.Time, fn func()) {
	pt.postSeq++
	pt.cl.Kern.Post(pt.lane, dst.lane, at, int32(pt.node), pt.postSeq, fn)
}

// Attach registers the node's endpoint in the cluster directory.
func (pt *NodePort) Attach(node topo.NodeID, ep Endpoint) {
	if node != pt.node {
		panic(fmt.Sprintf("fabric: port of node %d attached as node %d", pt.node, node))
	}
	if pt.cl.eps[node] != nil {
		panic(fmt.Sprintf("fabric: node %d attached twice", node))
	}
	pt.cl.eps[node] = ep
}

// NewStream is Fabric.NewStream against the lane pool.
func (pt *NodePort) NewStream(hdr wire.Header, src, dst topo.NodeID, payloadLen int) *Message {
	return pt.f.NewStream(hdr, src, dst, payloadLen)
}

// AllocChunk takes a carrier from the current lane's pool.
func (pt *NodePort) AllocChunk(n int) *Chunk { return pt.f.AllocChunk(n) }

// RecycleChunk returns a carrier to the current lane's pool — the sharded
// return path: a consumer frees into its own lane, never across shards.
func (pt *NodePort) RecycleChunk(c *Chunk) { pt.f.RecycleChunk(c) }

// RecycleMsg returns a message to the current lane's pool (see
// RecycleChunk for the cross-shard rule).
func (pt *NodePort) RecycleMsg(m *Message) { pt.f.RecycleMsg(m) }

// SendHeader injects a header packet into the hopwise transport.
func (pt *NodePort) SendHeader(m *Message) {
	if pt.cl.eps[m.Dst] == nil {
		panic(fmt.Sprintf("fabric: no endpoint at node %d", m.Dst))
	}
	pt.f.Stats.Messages++
	if pl := pt.f.planes; pl != nil && pl[pt.node].filterHeader(m) {
		return
	}
	pt.launch(m, nil)
}

// SendChunk injects payload bytes into the hopwise transport.
func (pt *NodePort) SendChunk(c *Chunk) {
	if pt.cl.eps[c.Msg.Dst] == nil {
		panic(fmt.Sprintf("fabric: no endpoint at node %d", c.Msg.Dst))
	}
	pt.f.Stats.Chunks++
	if pl := pt.f.planes; pl != nil && pl[pt.node].filterChunk(c) {
		return
	}
	pt.launch(c.Msg, c)
}

// launch starts a packet's hop walk from the source node (c is nil for m's
// header packet). The TX machine considers the packet sent at injection;
// receive-window credits are charged on the destination lane at arrival, so
// flow control is destination-side in the hopwise model.
func (pt *NodePort) launch(m *Message, c *Chunk) {
	f := pt.f
	k := f.getCarrier(m, c)
	k.injected()
	k.at = pt
	now := f.S.Now()
	if m.Src == m.Dst {
		// Loopback still pays NIC injection + ejection, entirely on-lane.
		f.S.At(now+2*f.P.InjectLatency, k.then((*carrier).reachedNIC))
		return
	}
	k.t = now + f.P.InjectLatency
	k.walk()
}

// walk executes the carrier's walk at its current router: reserve the
// outgoing link, then hand the carrier — now owned by the next router's
// lane — over through the mailbox.
func (k *carrier) walk() {
	pt, m := k.at, k.m
	next, t := pt.hop(m.Src, m.Dst, k.t, int64(k.nbytes()))
	np := pt.cl.ports[next]
	k.at, k.f = np, np.f
	if next == m.Dst {
		pt.post(np, t+pt.f.P.InjectLatency, k.then((*carrier).reachedNIC))
		return
	}
	k.t = t
	pt.post(np, t, k.then((*carrier).walk))
}

// hop reserves this node's outgoing link toward dst for nbytes arriving at
// time t and returns the neighbor plus the arrival time there. Links are
// owned by the lane of the node they leave, so contention is resolved in
// local event order — per-hop, as on the real router.
func (pt *NodePort) hop(src, dst topo.NodeID, t sim.Time, nbytes int64) (topo.NodeID, sim.Time) {
	f := pt.f
	d, ok := f.Topo.NextHop(pt.node, dst)
	if !ok {
		panic("fabric: hop walk already at destination")
	}
	hops := 0
	if f.Tel != nil { // the route's length labels the head-of-line histogram, nothing else
		hops = f.Topo.Hops(src, dst)
	}
	occupancy := sim.BytesAt(nbytes, f.P.LinkBps)
	t2 := f.linkReserve(pt.node, d, t, occupancy, hops) + f.P.HopLatency
	next, ok := f.Topo.Neighbor(pt.node, d)
	if !ok {
		panic("fabric: route fell off the mesh")
	}
	return next, t2
}

// reachedNIC runs on the destination lane when the packet reaches the NIC:
// charge the receive window, then deliver — destination-side admission
// replaces the classic source-side credit take.
func (k *carrier) reachedNIC() {
	k.ep = k.at.cl.eps[k.m.Dst]
	k.ep.RxWindow().Take(int64(k.nbytes()), k.then((*carrier).arrived))
}

// FaultAccepted forwards the receiver-side commit to the source node's
// fault plane — one hop of latency away, through the mailbox, so the
// ledger lives entirely on the lane that opened its entries.
func (pt *NodePort) FaultAccepted(m *Message) { pt.f.noteToSource(pt, m, (*FaultPlane).noteAccepted) }

// FaultCondemned forwards a receiver-side discard to the source plane.
func (pt *NodePort) FaultCondemned(m *Message) {
	pt.f.noteToSource(pt, m, (*FaultPlane).noteCondemned)
}

// ledgerNote is one fault-ledger notification on its way to the plane that
// opened the entry. Only identity fields of the message travel; the message
// object itself stays (and may be recycled) on the noting lane. Notes are
// pooled like carriers: deliver is bound once, and the note is recycled into
// the pool of the lane that delivers it.
type ledgerNote struct {
	plane     *FaultPlane
	apply     func(*FaultPlane, *Message)
	m         Message
	deliverFn func()
}

func (f *Fabric) getNote() *ledgerNote {
	if note := sim.Pop(&f.noteFree); note != nil {
		return note
	}
	note := &ledgerNote{}
	note.deliverFn = note.deliver
	return note
}

func (n *ledgerNote) deliver() {
	n.apply(n.plane, &n.m)
	f := n.plane.f
	f.noteFree = append(f.noteFree, n)
}

// postNote posts a ledger note from this router to the source plane sp —
// one lookahead away, through the mailbox, so the ledger lives entirely on
// the lane that opened its entries.
func (pt *NodePort) postNote(sp *FaultPlane, m *Message, apply func(*FaultPlane, *Message)) {
	n := pt.f.getNote()
	n.plane, n.apply = sp, apply
	n.m.ID, n.m.Hdr, n.m.Src, n.m.Dst, n.m.FwSeq = m.ID, m.Hdr, m.Src, m.Dst, m.FwSeq
	at := pt.f.S.Now() + pt.cl.Kern.Lookahead()
	if src := pt.cl.ports[m.Src]; src != pt {
		pt.post(src, at, n.deliverFn)
		return
	}
	pt.f.S.At(at, n.deliverFn)
}
