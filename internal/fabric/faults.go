// The fault-injection plane: a deterministic, seeded layer between message
// injection (SendHeader/SendChunk) and the fabric's normal credit-and-
// traverse path. It implements the loss, duplication, delay/reorder,
// link-down and node-stall scenarios that make the go-back-n recovery
// protocol's timeout and duplicate paths reachable in tests (paper §4.3
// describes the protocol; APEnet+ and MVAPICH validate equivalent NIC-level
// retransmission logic exactly this way).
//
// Scope. Every machine keeps one plane per source node: rules are
// evaluated where injections happen, against a node-private PRNG stream, so
// a decision never depends on how the nodes' injections interleave. A rule's
// Count consequently limits it per source node, and a link-down or stall is
// a state every plane must hold (the machine plants the schedule on each).
//
// Cost. A plane costs what its node's faults cost: the machine checks its
// rule list once and every plane reads it, the planes and their fire counts
// are one block each, the generator is a 16-byte math/rand/v2 PCG held by
// value and seeded in O(1), and the scenario and ledger maps are made at
// their first write (a nil map reads as empty).
//
// Link errors. The plane also draws the link-level CRC-16 retries
// (Params.LinkBitErrorRate) of the links its node owns, at each hop a
// packet takes out of the node (Fabric.hop), so a machine with a nonzero
// bit-error rate has planes even without a rule.
//
// Determinism contract. A plane's PCG is seeded from (Params.FaultSeed,
// (id+1)·streamStride), a function of the node alone, and consumes randomness
// only when a rule's probability is evaluated, a reorder delay drawn or a
// link crossing retried, in the order the node's own lane runs them — which
// the simulator already makes deterministic and the same at every shard
// count. Nothing else in the model draws randomness, so a given (topology,
// workload, Faults, LinkBitErrorRate, FaultSeed) tuple replays
// bit-identically at every shard count.
//
// Fault granularity is the message: a fate decided at header injection
// (drop, duplicate, delay) applies to the header and every payload chunk,
// preserving the fabric's header-before-chunks invariant that receivers
// rely on to demultiplex streams. Faults apply only at first injection —
// a duplicated copy or a delayed reinjection is never re-evaluated.
//
// Accounting. Every injected fault opens a ledger entry that must close as
// either recovered (the protocol delivered the data anyway) or condemned
// (a redundant or unrecoverable copy was discarded). Stats.Open() is the
// balance; a healthy go-back-n run drives it to zero, while the panic
// policy leaves its losses open — which is precisely the A6 ablation's
// check that injected == recovered + condemned.
package fabric

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// defaultFaultSeed seeds the planes when Params.FaultSeed is zero.
const defaultFaultSeed = 0xfa017

// streamStride (the golden ratio's bits) spaces the nodes' streams: node
// id's PCG is seeded from (FaultSeed, (id+1)·streamStride).
const streamStride = 0x9e3779b97f4a7c1

// FaultStats counts the plane's activity. Injected() and Open() derive the
// ledger totals.
type FaultStats struct {
	DropsData   uint64 // data frames dropped by rule
	DropsFcAck  uint64 // FC_ACK frames dropped by rule
	DropsFcNack uint64 // FC_NACK frames dropped by rule
	DropsLink   uint64 // frames dropped because a link on their path was down
	Dups        uint64 // frames delivered twice
	Delays      uint64 // frames delivered late (delay and reorder rules)
	Stalls      uint64 // frames held at a stalled destination node

	Recovered uint64 // ledger entries closed by delivery or accepted retransmission
	Condemned uint64 // ledger entries closed by discarding a redundant/unrecoverable copy
}

// Injected totals every fault the plane applied.
func (s FaultStats) Injected() uint64 {
	return s.DropsData + s.DropsFcAck + s.DropsFcNack + s.DropsLink +
		s.Dups + s.Delays + s.Stalls
}

// Add accumulates another plane's counters.
func (s *FaultStats) Add(o FaultStats) {
	s.DropsData += o.DropsData
	s.DropsFcAck += o.DropsFcAck
	s.DropsFcNack += o.DropsFcNack
	s.DropsLink += o.DropsLink
	s.Dups += o.Dups
	s.Delays += o.Delays
	s.Stalls += o.Stalls
	s.Recovered += o.Recovered
	s.Condemned += o.Condemned
}

// Open is the ledger balance: faults whose outcome is still unresolved. A
// converged go-back-n run reports zero; a panicked node leaves its losses
// open.
func (s FaultStats) Open() uint64 { return s.Injected() - s.Recovered - s.Condemned }

func (s FaultStats) String() string {
	return fmt.Sprintf("injected=%d (drops data=%d fcack=%d fcnack=%d link=%d, dups=%d, delays=%d, stalls=%d) recovered=%d condemned=%d open=%d",
		s.Injected(), s.DropsData, s.DropsFcAck, s.DropsFcNack, s.DropsLink,
		s.Dups, s.Delays, s.Stalls, s.Recovered, s.Condemned, s.Open())
}

// msgFate records the fault a chunked message's header drew, so its payload
// chunks share it. Keyed by message ID; removed at the last chunk.
type msgFate struct {
	doomed bool     // drop: swallow every chunk
	dup    *Message // duplicate: clone every chunk for this copy
	delay  sim.Time // delay/reorder: reinject every chunk this much late
}

// dropKey identifies a dropped go-back-n data frame: the ledger entry
// closes when any copy of that flow sequence reaches the receiver.
type dropKey struct {
	src, dst topo.NodeID
	seq      uint32
}

// FaultPlane applies fault rules to one source node's injections and draws
// the link-CRC retries of the node's outgoing links. All methods must run at
// simulation time on the node's own lane, like the rest of the fabric.
type FaultPlane struct {
	f   *Fabric  // the node's lane
	rng rand.PCG // the node's stream (see the determinism contract)

	// rules is the machine's list, shared read-only by every plane and
	// evaluated in order (the first match wins); fired is this plane's
	// per-rule application count, enforcing FaultRule.Count.
	rules []model.FaultRule
	fired []int

	// The scenario and ledger maps below are made at their first write.

	// fates carries a chunked message's header fate to its chunks.
	fates map[uint64]*msgFate

	// stalled queues injections destined to a stalled node, in order;
	// ResumeNode flushes. Presence in the map is the stalled condition.
	stalled map[topo.NodeID][]func()

	// down marks directed links taken down by LinkDown; a message whose
	// fixed path crosses one is dropped at injection.
	down map[linkKey]bool

	// The ledger. dropOpen counts dropped copies per flow sequence (closed
	// by acceptance or a condemned duplicate of that sequence); dupOpen
	// tracks duplicate copies by message ID (closed by acceptance or
	// condemnation); msgOpen counts delay/stall holds by message ID
	// (closed at header delivery).
	dropOpen map[dropKey]int
	dupOpen  map[uint64]bool
	msgOpen  map[uint64]int

	// accepted records each flow's committed go-back-n high-water mark. A
	// dropped data frame at or below it is a redundant retransmission — the
	// receiver already holds the data, and no further copy of that sequence
	// need ever arrive — so its ledger entry closes (condemned) at the drop
	// instead of waiting forever.
	accepted map[flowPair]uint32

	// send is where a surviving (or cloned, delayed, resumed) packet
	// re-enters the fabric — Fabric.send or the node's NodePort.launch; a
	// nil chunk means the message's header.
	send func(*Message, *Chunk)

	Stats FaultStats
}

// flowPair keys per-flow state (a dropKey without the sequence).
type flowPair struct{ src, dst topo.NodeID }

// newPlanes builds the fault planes of an n-node machine, or returns nil
// when its parameters configure no faults. The rule list is built and
// checked once and shared; the planes and their fire counts are one block
// each, like a firmware's pools sized at init. The caller binds each
// plane's lane and send path.
func newPlanes(p *model.Params, n int) []*FaultPlane {
	if !faultsConfigured(p) {
		return nil
	}
	rules := append(append([]model.FaultRule(nil), p.Faults...), p.Schedule.Rules()...)
	for _, r := range rules {
		if (r.Kind == model.FaultDelay || r.Kind == model.FaultReorder) && r.Delay <= 0 {
			panic("fabric: delay/reorder fault rule needs a positive Delay")
		}
	}
	seed := uint64(p.FaultSeed)
	if seed == 0 {
		seed = defaultFaultSeed
	}
	block := make([]FaultPlane, n)
	fired := make([]int, n*len(rules))
	planes := make([]*FaultPlane, n)
	for id := range block {
		pl := &block[id]
		pl.rules = rules
		pl.fired = fired[id*len(rules) : (id+1)*len(rules) : (id+1)*len(rules)]
		pl.rng.Seed(seed, uint64(id+1)*streamStride)
		planes[id] = pl
	}
	return planes
}

// Plane returns node id's fault plane (nil on a fault-free machine). The
// machine's schedule mutates each plane through events on the owning
// lane's simulator; plane state must never be touched from another lane
// while the kernel runs.
func (f *Fabric) Plane(id topo.NodeID) *FaultPlane {
	if f.planes == nil {
		return nil
	}
	return f.planes[id]
}

// FaultSnapshot sums the per-source-node fault ledgers; ok is false when
// the machine was built without fault configuration.
func (f *Fabric) FaultSnapshot() (FaultStats, bool) {
	var out FaultStats
	for _, pl := range f.planes {
		out.Add(pl.Stats)
	}
	return out, f.planes != nil
}

// noteToSource routes a receiver-side ledger note to the plane of m's
// source node, which opened the entry (there is none on a fault-free
// machine). The note travels the way packets do: the classic transport has
// one lane and closes the entry in place; the hopwise one posts it from the
// noting router, at, through the kernel mailbox (shard.go).
func (f *Fabric) noteToSource(at *NodePort, m *Message, apply func(*FaultPlane, *Message)) {
	if f.planes == nil {
		return
	}
	if at == nil {
		apply(f.planes[m.Src], m)
		return
	}
	at.postNote(f.planes[m.Src], m, apply)
}

// FaultAccepted tells the source's plane the receiving firmware accepted a
// data message (its go-back-n sequence committed).
func (f *Fabric) FaultAccepted(m *Message) { f.noteToSource(nil, m, (*FaultPlane).noteAccepted) }

// FaultCondemned tells the source's plane the receiving firmware condemned
// a message (duplicate, gap, exhaustion or dead-pid discard).
func (f *Fabric) FaultCondemned(m *Message) { f.noteToSource(nil, m, (*FaultPlane).noteCondemned) }

// ---- Scenario hooks (driven by machine schedule events) ----

// LinkDown takes the directed link leaving node in direction d out of
// service: messages whose fixed path crosses it are dropped at injection.
// Messages already launched keep streaming (the wire abstraction commits a
// message at header injection).
func (p *FaultPlane) LinkDown(node topo.NodeID, d topo.Dir) { put(&p.down, linkKey{node, d}, true) }

// LinkUp restores a downed link.
func (p *FaultPlane) LinkUp(node topo.NodeID, d topo.Dir) { delete(p.down, linkKey{node, d}) }

// StallNode holds every injection destined to node, in order, until
// ResumeNode — a hung NIC whose wire-side buffering absorbs traffic.
func (p *FaultPlane) StallNode(node topo.NodeID) {
	if _, ok := p.stalled[node]; !ok {
		put(&p.stalled, node, []func(){})
	}
}

// ResumeNode releases a stalled node's held injections in arrival order.
func (p *FaultPlane) ResumeNode(node topo.NodeID) {
	q, ok := p.stalled[node]
	if !ok {
		return
	}
	delete(p.stalled, node)
	for _, inject := range q {
		inject()
	}
}

// CorruptLedger opens one ledger entry that nothing will ever close —
// planted silent data loss. The quiescence audit (injected == recovered +
// condemned) must trip on it; the soak harness plants corrupt entries to
// prove its failure detection and bisection actually fire.
func (p *FaultPlane) CorruptLedger() { p.Stats.DropsData++ }

// ---- Rule evaluation ----

func frameClassOf(m *Message) model.FrameClass {
	switch m.Hdr.Type {
	case wire.TypeFcAck:
		return model.FrameFcAck
	case wire.TypeFcNack:
		return model.FrameFcNack
	default:
		return model.FrameData
	}
}

// decide returns the first rule that matches and fires for this frame, or
// nil. Randomness is consumed only for probability checks of rules whose
// static scope matched, in rule order — part of the determinism contract.
func (p *FaultPlane) decide(class model.FrameClass, src, dst topo.NodeID) *model.FaultRule {
	now := p.f.S.Now()
	for i := range p.rules {
		r := &p.rules[i]
		if r.Count > 0 && p.fired[i] >= r.Count {
			continue
		}
		if now < r.After || (r.Until > 0 && now >= r.Until) {
			continue
		}
		if r.Frame != model.FrameAny && r.Frame != class {
			continue
		}
		if r.Src != model.AnyNode && topo.NodeID(r.Src) != src {
			continue
		}
		if r.Dst != model.AnyNode && topo.NodeID(r.Dst) != dst {
			continue
		}
		if r.Prob < 1 && p.float64() >= r.Prob {
			continue
		}
		p.fired[i]++
		return r
	}
	return nil
}

// delayOf is how late a delay or reorder rule reinjects a frame: its Delay,
// or for reorder a draw in [1, Delay].
func (p *FaultPlane) delayOf(r *model.FaultRule) sim.Time {
	if r.Kind == model.FaultReorder {
		return sim.Time(1 + p.below(uint64(r.Delay)))
	}
	return r.Delay
}

// float64 draws a uniform value in [0, 1) from the node's stream.
func (p *FaultPlane) float64() float64 {
	return float64(p.rng.Uint64()>>11) / (1 << 53)
}

// below draws a uniform value in [0, n), n > 0, from the node's stream:
// Lemire's multiply-shift, rejecting the few draws that would bias it.
func (p *FaultPlane) below(n uint64) uint64 {
	hi, lo := bits.Mul64(p.rng.Uint64(), n)
	if lo < n {
		for thresh := -n % n; lo < thresh; {
			hi, lo = bits.Mul64(p.rng.Uint64(), n)
		}
	}
	return hi
}

// put stores v under k, making the map at its first write.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// pathDown reports whether the fixed route src→dst crosses a downed link.
func (p *FaultPlane) pathDown(src, dst topo.NodeID) bool {
	if len(p.down) == 0 {
		return false
	}
	for cur := src; cur != dst; {
		d, next, _ := p.f.Topo.Step(cur, dst)
		if p.down[linkKey{cur, d}] {
			return true
		}
		cur = next
	}
	return false
}

// crossings draws how many times a packet group of nbytes must cross one of
// the node's outgoing links before its CRC-16 passes, at the machine's
// LinkBitErrorRate (> 0) per packet.
func (p *FaultPlane) crossings(nbytes int) int {
	ber, pb := p.f.P.LinkBitErrorRate, p.f.P.PacketBytes
	pOK := 1.0
	for i := (nbytes + pb - 1) / pb; i > 0; i-- {
		pOK *= 1 - ber
	}
	n := 1
	for n <= 64 && p.float64() > pOK { // a link this sick would be routed around; cap it
		n++
	}
	return n
}

// ---- Injection filters (called from SendHeader/SendChunk) ----

// filterHeader applies the plane to one header injection, reporting true
// when the plane consumed it (the normal path must not run).
func (p *FaultPlane) filterHeader(m *Message) bool {
	class := frameClassOf(m)
	if p.pathDown(m.Src, m.Dst) {
		p.dropMsg(m, class, true)
		return true
	}
	r := p.decide(class, m.Src, m.Dst)
	if r == nil {
		if _, ok := p.stalled[m.Dst]; ok {
			p.injectHeader(m)
			return true
		}
		return false
	}
	switch r.Kind {
	case model.FaultDrop:
		p.dropMsg(m, class, false)
	case model.FaultDup:
		p.Stats.Dups++
		p.count("dup", class)
		m2 := p.cloneMsg(m)
		put(&p.dupOpen, m2.ID, true)
		if m.PayloadLen > 0 {
			put(&p.fates, m.ID, &msgFate{dup: m2})
		}
		p.injectHeader(m)
		p.injectHeader(m2)
	case model.FaultDelay, model.FaultReorder:
		d := p.delayOf(r)
		p.Stats.Delays++
		p.count("delay", class)
		put(&p.msgOpen, m.ID, p.msgOpen[m.ID]+1)
		if m.PayloadLen > 0 {
			put(&p.fates, m.ID, &msgFate{delay: d})
		}
		p.f.S.After(d, func() { p.injectHeader(m) })
	}
	return true
}

// filterChunk gives a payload chunk its message's fate, reporting true when
// the plane consumed the injection.
func (p *FaultPlane) filterChunk(c *Chunk) bool {
	fate, ok := p.fates[c.Msg.ID]
	if ok {
		if c.Last {
			delete(p.fates, c.Msg.ID)
		}
		switch {
		case fate.doomed:
			p.swallowChunk(c)
		case fate.dup != nil:
			c2 := p.cloneChunk(c, fate.dup)
			p.injectChunk(c)
			p.injectChunk(c2)
		default:
			d := fate.delay
			p.f.S.After(d, func() { p.injectChunk(c) })
		}
		return true
	}
	if _, stalled := p.stalled[c.Msg.Dst]; stalled {
		p.injectChunk(c)
		return true
	}
	return false
}

// injectHeader hands a header to the fabric, holding it if the destination
// is stalled. Delayed and duplicated frames route through here too, so a
// stall window also captures them — in order.
func (p *FaultPlane) injectHeader(m *Message) {
	if q, ok := p.stalled[m.Dst]; ok {
		p.Stats.Stalls++
		p.count("stall", frameClassOf(m))
		put(&p.msgOpen, m.ID, p.msgOpen[m.ID]+1)
		p.stalled[m.Dst] = append(q, func() { p.send(m, nil) })
		return
	}
	p.send(m, nil)
}

func (p *FaultPlane) injectChunk(c *Chunk) {
	if q, ok := p.stalled[c.Msg.Dst]; ok {
		p.stalled[c.Msg.Dst] = append(q, func() { p.send(c.Msg, c) })
		return
	}
	p.send(c.Msg, c)
}

// dropMsg discards a message at injection. The sender's TX state machine
// still sees it enter the wire (OnInjected fires, so the transmit pipeline
// never wedges); the receiver simply never hears of it. Payload chunks are
// swallowed as the sender streams them.
func (p *FaultPlane) dropMsg(m *Message, class model.FrameClass, viaLink bool) {
	kind := "drop"
	switch {
	case viaLink:
		p.Stats.DropsLink++
		kind = "linkdown"
	case class == model.FrameFcAck:
		p.Stats.DropsFcAck++
	case class == model.FrameFcNack:
		p.Stats.DropsFcNack++
	default:
		p.Stats.DropsData++
	}
	p.count(kind, class)
	switch class {
	case model.FrameFcAck, model.FrameFcNack:
		// Control frames are never retransmitted; the sender's go-back-n
		// timer absorbs the loss. The entry closes as condemned now.
		p.closeCondemned(1)
	default:
		switch {
		case m.FwSeq == 0:
			// No recovery protocol covers this frame. The entry stays open —
			// the ledger honestly reports unrecovered loss for panic-policy
			// machines.
		case m.FwSeq <= p.accepted[flowPair{m.Src, m.Dst}]:
			// A redundant retransmission of a sequence the receiver already
			// committed; no future copy will arrive to close the entry.
			p.closeCondemned(1)
		default:
			k := dropKey{m.Src, m.Dst, m.FwSeq}
			put(&p.dropOpen, k, p.dropOpen[k]+1)
		}
	}
	if m.OnInjected != nil {
		m.OnInjected()
	}
	if m.Rec != nil {
		p.f.Tel.DropMsgRec(m.Rec)
		m.Rec = nil
	}
	if m.PayloadLen > 0 {
		put(&p.fates, m.ID, &msgFate{doomed: true})
	}
	// The message carrier itself is left to the GC, like other messages
	// that die before delivery; the sender may still hold a reference.
}

func (p *FaultPlane) swallowChunk(c *Chunk) {
	if c.OnInjected != nil {
		c.OnInjected()
	}
	p.f.RecycleChunk(c)
}

// cloneMsg builds the duplicate copy of a message: a fresh ID from its
// source's sequence (receivers demultiplex streams by ID), same wire contents
// and go-back-n sequence.
func (p *FaultPlane) cloneMsg(m *Message) *Message {
	f := p.f
	m2 := f.getMsg()
	m2.ID = f.mintID(m.Src)
	m2.Hdr = m.Hdr
	m2.Src = m.Src
	m2.Dst = m.Dst
	m2.CRC = m.CRC
	m2.PayloadLen = m.PayloadLen
	m2.FwSeq = m.FwSeq
	m2.Span = m.Span
	if len(m.Inline) > 0 {
		m2.Inline = m2.inlBuf[:len(m.Inline)]
		copy(m2.Inline, m.Inline)
	}
	f.Stats.Messages++
	return m2
}

func (p *FaultPlane) cloneChunk(c *Chunk, m2 *Message) *Chunk {
	c2 := p.f.AllocChunk(len(c.Data))
	copy(c2.Data, c.Data)
	c2.Msg = m2
	c2.Off = c.Off
	c2.Last = c.Last
	c2.Corrupt = c.Corrupt
	if c.Last {
		// Streamed senders finalize the end-to-end CRC just before the last
		// chunk; the copy must carry the final value too.
		m2.CRC = c.Msg.CRC
	}
	p.f.Stats.Chunks++
	return c2
}

// ---- Ledger closing ----

// noteAccepted closes entries when the receiving firmware commits a data
// message: any dropped copies of its flow sequence were recovered by the
// retransmission now accepted, and a duplicate copy that won the race was
// recovered rather than condemned.
func (p *FaultPlane) noteAccepted(m *Message) {
	if m.FwSeq != 0 {
		if fk := (flowPair{m.Src, m.Dst}); m.FwSeq > p.accepted[fk] {
			put(&p.accepted, fk, m.FwSeq)
		}
		k := dropKey{m.Src, m.Dst, m.FwSeq}
		if n := p.dropOpen[k]; n > 0 {
			delete(p.dropOpen, k)
			p.closeRecovered(uint64(n))
		}
	}
	if p.dupOpen[m.ID] {
		delete(p.dupOpen, m.ID)
		p.closeRecovered(1)
	}
}

// noteCondemned closes entries when the receiving firmware discards a
// message copy: a duplicate's entry closes, and open drop entries for the
// same flow sequence close too (a condemned copy of sequence s proves the
// drop hit a redundant transmission — no data was lost).
func (p *FaultPlane) noteCondemned(m *Message) {
	if p.dupOpen[m.ID] {
		delete(p.dupOpen, m.ID)
		p.closeCondemned(1)
	}
	if m.FwSeq != 0 {
		k := dropKey{m.Src, m.Dst, m.FwSeq}
		if n := p.dropOpen[k]; n > 0 {
			delete(p.dropOpen, k)
			p.closeCondemned(uint64(n))
		}
	}
}

// noteDelivered closes delay/stall entries when a header finally arrives.
func (p *FaultPlane) noteDelivered(m *Message) {
	if n := p.msgOpen[m.ID]; n > 0 {
		delete(p.msgOpen, m.ID)
		p.closeRecovered(uint64(n))
	}
}

func (p *FaultPlane) closeRecovered(n uint64) {
	p.Stats.Recovered += n
	if tel := p.f.Tel; tel != nil {
		tel.Reg.Counter("fault_recovered_total").Add(n)
	}
}

func (p *FaultPlane) closeCondemned(n uint64) {
	p.Stats.Condemned += n
	if tel := p.f.Tel; tel != nil {
		tel.Reg.Counter("fault_condemned_total").Add(n)
	}
}

// count mirrors one injected fault into the telemetry registry (fault
// paths are cold; the per-event lookup is acceptable there).
func (p *FaultPlane) count(kind string, class model.FrameClass) {
	if tel := p.f.Tel; tel != nil {
		tel.Reg.Counter("fault_injected_total",
			telemetry.L("kind", kind), telemetry.L("frame", class.String())).Inc()
	}
}
