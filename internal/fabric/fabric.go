// Package fabric simulates the XT3's 3D interconnect: the directed links
// between SeaStar routers, dimension-ordered fixed-path routing (in-order
// delivery), 64-byte packetization, per-link CRC-16 retries and the
// receiver-side buffering window that backpressures senders.
//
// The unit of simulated data movement is the chunk — a contiguous span of a
// message's payload (model.Params.ChunkBytes). Chunks carry real bytes.
// A message is one header packet (wire.PacketBytes, containing the encoded
// wire.Header plus up to 12 inline payload bytes) followed by its payload
// chunks, all following the same fixed path, so delivery order matches
// injection order exactly as on the real machine.
package fabric

import (
	"fmt"

	"portals3/internal/flightrec"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// Endpoint is a NIC attached to the fabric. The fabric calls these methods
// at delivery time, in order; the endpoint owns the receive window whose
// credits pace senders (the RX FIFO of paper §4.3).
type Endpoint interface {
	// HeaderArrived delivers the message's header packet.
	HeaderArrived(m *Message)
	// ChunkArrived delivers payload bytes [c.Off, c.Off+len(c.Data)).
	ChunkArrived(c *Chunk)
	// RxWindow returns the credit pool (in bytes) that bounds data buffered
	// at this endpoint ahead of the RX DMA engine.
	RxWindow() *sim.Credits
}

// Message is one Portals wire message in flight.
type Message struct {
	ID     uint64
	Hdr    wire.Header
	Src    topo.NodeID
	Dst    topo.NodeID
	Inline []byte // ≤ wire.InlineMax bytes riding in the header packet
	CRC    uint32 // end-to-end CRC-32 computed by the sender over header+payload

	// PayloadLen is the number of payload bytes that follow in chunks
	// (excludes inline bytes).
	PayloadLen int

	// FwSeq is the NIC-level go-back-n sequence number (firmware framing,
	// outside the Portals header; zero when the protocol is disabled).
	FwSeq uint32

	// Span is the flight-recorder causal span id, copied from the
	// originating TxReq at header injection (zero when the recorder is
	// off). Unlike Rec it is copied, not moved: a go-back-n retransmission
	// builds a fresh message from the retained request and must carry the
	// same span so the rewind reads as one causal chain.
	Span uint64

	// OnInjected, when set, is called once the header packet has been
	// granted receiver credits and enters the wire — the moment the TX
	// state machine considers the packet "sent".
	OnInjected func()

	// Rec is the message's latency-attribution record, carried from the
	// sending NIC to app delivery when telemetry is enabled; nil otherwise.
	// Ownership follows the message: whoever retires the message must
	// finish or reclaim the record.
	Rec *telemetry.MsgRec

	// inlBuf backs Inline so carrying an inline payload never allocates.
	inlBuf [wire.InlineMax]byte
}

func (m *Message) String() string {
	return fmt.Sprintf("msg#%d[%v]", m.ID, &m.Hdr)
}

// Chunk is a span of message payload traversing the network.
type Chunk struct {
	Msg  *Message
	Off  int    // offset within the message payload
	Data []byte // the bytes themselves
	Last bool   // true for the final chunk of the message

	// Corrupt marks end-to-end corruption that slipped past the link CRCs
	// (injected by tests via Fabric.CorruptNext); the receiver's CRC-32
	// check catches it.
	Corrupt bool

	// OnInjected, when set, is called once the chunk has been granted
	// receiver credits and enters the wire; the TX state machine uses it
	// to recycle transmit FIFO space.
	OnInjected func()
}

// Stats aggregates fabric-wide counters.
type Stats struct {
	Messages    uint64 // messages injected
	Chunks      uint64 // payload chunks injected
	LinkRetries uint64 // link-level CRC-16 retransmissions
	Delivered   uint64 // messages whose final byte arrived
}

type linkKey struct {
	node topo.NodeID
	dir  topo.Dir
}

// Fabric wires the endpoints together.
type Fabric struct {
	S    *sim.Sim
	Topo *topo.Topology
	P    *model.Params

	// FR, when non-nil, is the machine's flight recorder: injections are
	// recorded on the source node's ring, deliveries on the destination's,
	// each on the lane that owns that node.
	FR *flightrec.Recorder

	// Tel, when non-nil, receives wire-boundary latency stamps and reclaims
	// attribution records of messages that die before delivery.
	Tel *telemetry.Telemetry

	links []*sim.Server // dense, by linkIndex; built with the first link
	eps   []Endpoint    // the endpoint directory, dense by node
	seqs  []uint64      // per-node message sequences (mintID)

	// Link-contention meters (linkstats.go), live only while Tel is set.
	meters    map[linkKey]*LinkMeter
	meterList []*LinkMeter
	holByHops []*telemetry.Histogram

	// chunkFree recycles chunk carriers and their payload buffers between
	// messages. A chunk cycles sender → wire → receiver and comes back via
	// RecycleChunk once the receiver has consumed the bytes; pooling keeps
	// the per-chunk data path allocation-free. msgFree does the same for
	// message carriers (see RecycleMsg for the ownership rule) and
	// carrierFree for the transport carriers that walk a header or chunk
	// from injection to delivery; noteFree for the hopwise transport's
	// fault-ledger notes (shard.go).
	chunkFree   []*Chunk
	msgFree     []*Message
	carrierFree []*carrier
	noteFree    []*ledgerNote

	// corruptNext counts messages whose payload should be corrupted
	// end-to-end (test fault injection).
	corruptNext int

	// planes, when non-nil, holds one fault plane per node (dense by id):
	// it filters every injection through its node's seeded rules and draws
	// the link-CRC retries of the links its node owns (see faults.go). The
	// lanes of a Cluster share one table, as they share eps and seqs.
	// Fault-free fabrics keep it nil and pay one test per injection.
	planes []*FaultPlane

	Stats Stats
}

// New returns a fabric over the given topology.
func New(s *sim.Sim, t *topo.Topology, p *model.Params) *Fabric {
	f := newLane(s, t, p)
	f.eps = make([]Endpoint, t.Nodes())
	if f.planes = newPlanes(p, t.Nodes()); f.planes != nil {
		send := f.send
		for _, pl := range f.planes {
			pl.f, pl.send = f, send
		}
	}
	return f
}

// newLane builds the per-lane part of a fabric — links, pools, counters —
// with neither an endpoint directory nor fault planes: the classic fabric
// adds its own, a Cluster shares both among its lanes.
func newLane(s *sim.Sim, t *topo.Topology, p *model.Params) *Fabric {
	return &Fabric{S: s, Topo: t, P: p}
}

// faultsConfigured reports whether the parameters declare any fault rule,
// seed, schedule or link bit-error rate, i.e. whether the machine has fault
// planes at all.
func faultsConfigured(p *model.Params) bool {
	return len(p.Faults) > 0 || p.FaultSeed != 0 || len(p.Schedule) > 0 || p.LinkBitErrorRate > 0
}

// Attach registers the endpoint for node. Attaching twice panics: it is a
// machine-assembly bug.
func (f *Fabric) Attach(node topo.NodeID, ep Endpoint) {
	if !f.Topo.Valid(node) {
		panic(fmt.Sprintf("fabric: attach to invalid node %d", node))
	}
	if f.eps[node] != nil {
		panic(fmt.Sprintf("fabric: node %d attached twice", node))
	}
	f.eps[node] = ep
}

// linksPerNode is a router's network ports: X+ X- Y+ Y- Z+ Z-.
const linksPerNode = 6

// linkIndex is the place of the directed link leaving node in direction d in
// a table of a topology's links.
func linkIndex(node topo.NodeID, d topo.Dir) int {
	i := int(node)*linksPerNode + int(d.Axis)*2
	if d.Sign < 0 {
		i++
	}
	return i
}

// link returns (creating on first use) the serial resource for the directed
// link leaving node in direction d. Every hop of every packet comes through
// here, so the lookup is an index, not a hash.
func (f *Fabric) link(node topo.NodeID, d topo.Dir) *sim.Server {
	i := linkIndex(node, d)
	if i < len(f.links) && f.links[i] != nil {
		return f.links[i]
	}
	if f.links == nil {
		f.links = make([]*sim.Server, f.Topo.Nodes()*linksPerNode)
	}
	sv := sim.NewServerLabel(f.S, sim.Label{Format: linkName, A: int32(node), B: int32(i % linksPerNode)})
	f.links[i] = sv
	return sv
}

// linkName formats a link's diagnostic name from its node and its port (its
// linkIndex within the node) when somebody reads it.
func linkName(node, port int32) string {
	d := topo.Dir{Axis: topo.Axis(port / 2), Sign: 1 - 2*int(port%2)}
	return fmt.Sprintf("link[%d %v]", node, d)
}

// AllocChunk returns a chunk carrier with an n-byte data buffer, reusing a
// recycled one when available.
func (f *Fabric) AllocChunk(n int) *Chunk {
	if c := sim.Pop(&f.chunkFree); c != nil {
		if cap(c.Data) >= n {
			c.Data = c.Data[:n]
		} else {
			c.Data = make([]byte, n)
		}
		return c
	}
	return &Chunk{Data: make([]byte, n)}
}

// RecycleChunk returns a consumed chunk to the pool. The caller must be done
// with Data — the next sender will overwrite it.
func (f *Fabric) RecycleChunk(c *Chunk) {
	c.Msg = nil
	c.Off = 0
	c.Last = false
	c.Corrupt = false
	c.OnInjected = nil
	f.chunkFree = append(f.chunkFree, c)
}

// CorruptNext arranges for the next n injected payload-bearing messages to
// have one payload byte flipped in a way that evades the link-level CRC
// (modeling the rare multi-bit error the end-to-end CRC-32 exists to catch).
func (f *Fabric) CorruptNext(n int) { f.corruptNext += n }

// mintID advances node's message sequence and returns the next message ID,
// (node+1)<<32 | seq — the one scheme on every machine. An ID embeds its
// source node so that it never depends on how the nodes' injections
// interleave, within a lane or across lanes. The classic fabric builds the
// sequence table with its first message (set-up pays nothing for it); the
// lanes of a Cluster share one, each touching only its own nodes' entries.
func (f *Fabric) mintID(node topo.NodeID) uint64 {
	if f.seqs == nil {
		f.seqs = make([]uint64, f.Topo.Nodes())
	}
	f.seqs[node]++
	return uint64(uint32(node)+1)<<32 | f.seqs[node]
}

// NewMessage allocates a message with a fresh ID and the end-to-end CRC
// computed over the full payload. The payload slice is only read here (for
// the CRC); the actual bytes travel in chunks read from host memory at DMA
// time by the sending NIC.
func (f *Fabric) NewMessage(hdr wire.Header, src, dst topo.NodeID, payload []byte) *Message {
	n := len(payload)
	m := f.NewStream(hdr, src, dst, n)
	if n <= f.P.InlineDataMax && hdr.Type != wire.TypeGet && hdr.Type != wire.TypeAck {
		m.SetInline(payload) // InlineLen is part of the header the CRC covers
	}
	m.CRC = wire.CRC32(&m.Hdr, payload)
	return m
}

// NewStream allocates a message whose payload will be produced
// incrementally by a TX DMA engine: no CRC is computed here (the sender
// accumulates it while reading chunks and stores it with SetCRC before the
// final chunk is injected) and inlining is the sender's explicit decision
// via SetInline.
func (f *Fabric) NewStream(hdr wire.Header, src, dst topo.NodeID, payloadLen int) *Message {
	m := f.getMsg()
	m.ID = f.mintID(src)
	m.Hdr = hdr
	m.Src = src
	m.Dst = dst
	m.PayloadLen = payloadLen
	return m
}

// getMsg takes a zeroed message from the free list or allocates one.
func (f *Fabric) getMsg() *Message {
	if m := sim.Pop(&f.msgFree); m != nil {
		return m
	}
	return &Message{}
}

// RecycleMsg returns a message whose life is over: the receiver calls it
// once every byte is consumed and the receive state released, at which point
// the sender's transmit machinery is long done with it (a go-back-n
// retransmission always builds a fresh message). Messages that die on other
// paths (discards, dead nodes) are simply left to the garbage collector.
func (f *Fabric) RecycleMsg(m *Message) {
	if m.Rec != nil {
		// The message died (or was delivered through a path that does not
		// attribute, e.g. an accelerated receiver) with its record still
		// attached: reclaim it so the pool survives and the incomplete
		// count reflects it.
		f.Tel.DropMsgRec(m.Rec)
	}
	*m = Message{}
	f.msgFree = append(f.msgFree, m)
}

// SetInline moves the (small) payload into the header packet: "these 12
// bytes can be copied to the host along with the header" (paper §6).
// It panics beyond wire.InlineMax — callers must honor the hardware limit.
func (m *Message) SetInline(data []byte) { copy(m.InlineSpace(len(data)), data) }

// InlineSpace is SetInline for a sender that produces the n payload bytes
// itself: it makes them the message's inline payload and returns them to be
// filled — the header packet's own space, so an inline payload is never
// copied through a buffer of its own.
func (m *Message) InlineSpace(n int) []byte {
	if n > wire.InlineMax {
		panic("fabric: inline payload exceeds header packet space")
	}
	m.Inline = m.inlBuf[:n]
	m.Hdr.InlineLen = uint8(n)
	m.PayloadLen = 0
	return m.Inline
}

// SetCRC stores the sender-computed end-to-end CRC. It must be called
// before the final chunk (or, for chunkless messages, the header) is
// injected so the receiver's check reads the final value.
func (m *Message) SetCRC(crc uint32) { m.CRC = crc }

// hop moves a packet of nbytes that reaches router at at time t one link
// toward dst and returns the next router and the arrival time there: the
// one per-hop step of both walks. It reserves the dimension-ordered
// outgoing link, retries the crossing until the link CRC-16 passes (the
// draws come from the fault plane of the node that owns the link, so they
// are lane-local and the same at every shard count), and pays HopLatency.
// Links are owned by the lane of the node they leave, so contention is
// resolved in that lane's event order.
func (f *Fabric) hop(at, src, dst topo.NodeID, t sim.Time, nbytes int) (topo.NodeID, sim.Time) {
	d, ok := f.Topo.NextHop(at, dst)
	if !ok {
		panic("fabric: hop walk already at destination")
	}
	hops := 0
	if f.Tel != nil { // the route's length labels the head-of-line histogram, nothing else
		hops = f.Topo.Hops(src, dst)
	}
	occupancy := sim.BytesAt(int64(nbytes), f.P.LinkBps)
	if f.P.LinkBitErrorRate > 0 {
		k := f.planes[at].crossings(nbytes)
		f.Stats.LinkRetries += uint64(k - 1)
		occupancy = sim.Time(k)*occupancy + sim.Time(k-1)*f.P.LinkRetryDelay
	}
	t = f.linkReserve(at, d, t, occupancy, hops) + f.P.HopLatency
	next, ok := f.Topo.Neighbor(at, d)
	if !ok {
		panic("fabric: route fell off the mesh")
	}
	return next, t
}

// traverse reserves the fixed path from src to dst for nbytes, hop by hop
// at injection time, and schedules deliver at the arrival time. Since every
// server is FIFO and every message between a pair takes the same path,
// per-flow ordering is exact (cross-flow interleaving is approximated at
// chunk granularity). Loopback (src == dst) still pays injection+ejection
// through the NIC.
func (f *Fabric) traverse(src, dst topo.NodeID, nbytes int, deliver func()) {
	t := f.S.Now() + f.P.InjectLatency
	for at := src; at != dst; {
		at, t = f.hop(at, src, dst, t, nbytes)
	}
	f.S.At(t+f.P.InjectLatency, deliver)
}

// carrier walks one header packet or payload chunk from injection to
// delivery, on either transport. Both run the same two model steps —
// injected when the packet enters the wire, arrived when the endpoint
// receives it — and between them take the same per-router step (hop). The
// classic transport takes the receiver's window credits at the source, then
// runs every hop of the fixed path at once (traverse). The hopwise
// transport (shard.go) runs one hop per event, hands the carrier to the
// next router's lane through the kernel mailbox, and takes the credits at
// the destination. A packet waits for one thing at a time, so the carrier
// binds one continuation, once, and next says which step it runs; the
// carrier is recycled into the pool of the fabric that delivers it, so
// steady-state transport allocates nothing.
type carrier struct {
	f  *Fabric   // fabric (lane) the next step runs on
	m  *Message  // the header's message, or the chunk's
	c  *Chunk    // nil for a header packet
	ep Endpoint  // destination endpoint, once credits are requested
	at *NodePort // hopwise: the router the walk stands at
	t  sim.Time  // hopwise: when the packet reaches at

	next func(*carrier)
	fn   func()
}

func (f *Fabric) getCarrier(m *Message, c *Chunk) *carrier {
	k := sim.Pop(&f.carrierFree)
	if k == nil {
		k = &carrier{}
		k.fn = func() { k.next(k) }
	}
	k.f, k.m, k.c = f, m, c
	return k
}

// then names the step the carrier's continuation runs when it next fires,
// and returns the continuation.
func (k *carrier) then(step func(*carrier)) func() {
	k.next = step
	return k.fn
}

// nbytes is the packet's size on the wire and in the receive window.
func (k *carrier) nbytes() int {
	if k.c == nil {
		return k.f.P.PacketBytes
	}
	return len(k.c.Data)
}

// injected is the moment the packet enters the wire and the TX state
// machine considers it sent.
func (k *carrier) injected() {
	f, m := k.f, k.m
	if c := k.c; c != nil {
		if c.OnInjected != nil {
			c.OnInjected()
		}
		return
	}
	if m.Rec != nil {
		m.Rec.Stamp(telemetry.StampWire, f.S.Now())
		m.Rec.SetHops(f.Topo.Hops(m.Src, m.Dst))
	}
	if m.OnInjected != nil {
		m.OnInjected()
	}
	if f.FR != nil {
		f.FR.Ring(int(m.Src)).Put(flightrec.Event{T: f.S.Now(), Kind: flightrec.KWireTx, Sub: uint8(m.Hdr.Type),
			Span: m.ID, A: uint32(m.Dst), B: uint32(m.PayloadLen + len(m.Inline))})
	}
}

// arrived delivers the packet to the destination endpoint, on the fabric
// that owns it, and recycles the carrier there.
func (k *carrier) arrived() {
	f, ep, m, c, pt := k.f, k.ep, k.m, k.c, k.at
	k.ep, k.m, k.c, k.at = nil, nil, nil, nil
	f.carrierFree = append(f.carrierFree, k)
	if c != nil {
		ep.ChunkArrived(c)
		if c.Last {
			f.Stats.Delivered++
			if f.FR != nil {
				f.FR.Ring(int(m.Dst)).Put(flightrec.Event{T: f.S.Now(), Kind: flightrec.KWireRxLast,
					Span: m.ID, A: uint32(m.Src)})
			}
		}
		return
	}
	m.Rec.Stamp(telemetry.StampRxHdr, f.S.Now())
	// The header's arrival closes its delay/stall ledger entries, on the
	// source node's plane, which opened them.
	f.noteToSource(pt, m, (*FaultPlane).noteDelivered)
	if f.FR != nil {
		f.FR.Ring(int(m.Dst)).Put(flightrec.Event{T: f.S.Now(), Kind: flightrec.KWireRxHdr, Sub: uint8(m.Hdr.Type),
			Span: m.ID, A: uint32(m.Src)})
	}
	ep.HeaderArrived(m)
	if m.PayloadLen == 0 {
		f.Stats.Delivered++
	}
}

// send is the classic transport's fault-free injection path (the fault
// plane calls it for duplicated, delayed and resumed packets, bypassing
// rule evaluation): c is nil for m's header packet. Credits are taken from
// the receiver window before the wire is used — the receiver's bounded
// FIFO backpressures the sender exactly as link-level flow control does on
// the real machine.
func (f *Fabric) send(m *Message, c *Chunk) {
	k := f.getCarrier(m, c)
	k.ep = f.eps[m.Dst]
	k.ep.RxWindow().Take(int64(k.nbytes()), k.then((*carrier).creditsTaken))
}

// creditsTaken runs once the receiver window granted the packet's credits.
func (k *carrier) creditsTaken() {
	k.injected()
	k.f.traverse(k.m.Src, k.m.Dst, k.nbytes(), k.then((*carrier).arrived))
}

// inject is the one injection step of both Port implementations: c is nil
// for m's header packet. It checks the destination, counts the packet,
// applies CorruptNext to a last chunk and the source plane's filter, then
// hands whatever the plane did not consume to the transport's launch.
func (f *Fabric) inject(m *Message, c *Chunk, launch func(*Message, *Chunk)) {
	if f.eps[m.Dst] == nil {
		panic(fmt.Sprintf("fabric: no endpoint at node %d", m.Dst))
	}
	if c == nil {
		f.Stats.Messages++
		if f.planes != nil && f.planes[m.Src].filterHeader(m) {
			return
		}
		launch(m, nil)
		return
	}
	if f.corruptNext > 0 && c.Last {
		// Flip a bit in the last chunk; recompute nothing — the end-to-end
		// CRC carried in the message no longer matches.
		f.corruptNext--
		c.Corrupt = true
		if len(c.Data) > 0 {
			c.Data[len(c.Data)/2] ^= 0x40
		}
	}
	f.Stats.Chunks++
	if f.planes != nil && f.planes[m.Src].filterChunk(c) {
		return
	}
	launch(m, c)
}

// SendHeader injects the message's header packet. It consumes header-packet
// credits from the receiver window (returned by the receiving NIC once the
// header has been pushed to the host) and delivers via HeaderArrived.
func (f *Fabric) SendHeader(m *Message) { f.inject(m, nil, f.send) }

// SendChunk injects payload bytes. The caller (the TX DMA model) must send
// chunks of a message in order, after its header.
func (f *Fabric) SendChunk(c *Chunk) { f.inject(c.Msg, c, f.send) }

// LinkUtilization reports the utilization of the directed link leaving node
// in direction d (zero if the link was never used).
func (f *Fabric) LinkUtilization(node topo.NodeID, d topo.Dir) float64 {
	if i := linkIndex(node, d); i < len(f.links) && f.links[i] != nil {
		return f.links[i].Utilization()
	}
	return 0
}
