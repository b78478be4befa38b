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
// Determinism contract. A plane's PRNG is seeded from Params.FaultSeed and
// its node id and consumes randomness only when a rule's probability is
// evaluated, in the node's injection order — which the simulator already
// makes deterministic. It never draws from the simulator's RNG, so enabling
// faults cannot perturb the base timing model, and a given
// (topology, workload, Faults, FaultSeed) tuple replays bit-identically.
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
	"math/rand"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// defaultFaultSeed seeds the planes when Params.FaultSeed is zero.
const defaultFaultSeed = 0xfa017

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

// FaultPlane applies fault rules to one source node's injections. All
// methods must run at simulation time on the node's own lane, like the rest
// of the fabric.
type FaultPlane struct {
	f   *Fabric // the node's lane
	rng *rand.Rand

	rules []model.FaultRule
	fired []int // per-rule application count, enforcing FaultRule.Count

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

// newNodePlane builds node id's plane on lane f with the rules the
// parameters declare and the stream seed ^ (id+1)·golden.
func newNodePlane(f *Fabric, id topo.NodeID, send func(*Message, *Chunk)) *FaultPlane {
	seed := f.P.FaultSeed
	if seed == 0 {
		seed = defaultFaultSeed
	}
	p := &FaultPlane{
		f:        f,
		rng:      rand.New(rand.NewSource(seed ^ (int64(id+1) * 0x9e3779b97f4a7c1))),
		fates:    make(map[uint64]*msgFate),
		stalled:  make(map[topo.NodeID][]func()),
		down:     make(map[linkKey]bool),
		dropOpen: make(map[dropKey]int),
		dupOpen:  make(map[uint64]bool),
		msgOpen:  make(map[uint64]int),
		accepted: make(map[flowPair]uint32),
		send:     send,
	}
	for _, r := range f.P.Faults {
		p.addRule(r)
	}
	for _, r := range f.P.Schedule.Rules() {
		p.addRule(r)
	}
	return p
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

// addRule appends one rule. Rules are evaluated in insertion order; the
// first match wins.
func (p *FaultPlane) addRule(r model.FaultRule) {
	if (r.Kind == model.FaultDelay || r.Kind == model.FaultReorder) && r.Delay <= 0 {
		panic("fabric: delay/reorder fault rule needs a positive Delay")
	}
	p.rules = append(p.rules, r)
	p.fired = append(p.fired, 0)
}

// ---- Scenario hooks (driven by machine schedule events) ----

// LinkDown takes the directed link leaving node in direction d out of
// service: messages whose fixed path crosses it are dropped at injection.
// Messages already launched keep streaming (the wire abstraction commits a
// message at header injection).
func (p *FaultPlane) LinkDown(node topo.NodeID, d topo.Dir) { p.down[linkKey{node, d}] = true }

// LinkUp restores a downed link.
func (p *FaultPlane) LinkUp(node topo.NodeID, d topo.Dir) { delete(p.down, linkKey{node, d}) }

// StallNode holds every injection destined to node, in order, until
// ResumeNode — a hung NIC whose wire-side buffering absorbs traffic.
func (p *FaultPlane) StallNode(node topo.NodeID) {
	if _, ok := p.stalled[node]; !ok {
		p.stalled[node] = []func(){}
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
		if r.Prob < 1 && p.rng.Float64() >= r.Prob {
			continue
		}
		p.fired[i]++
		return r
	}
	return nil
}

// pathDown reports whether the fixed route src→dst crosses a downed link.
func (p *FaultPlane) pathDown(src, dst topo.NodeID) bool {
	if len(p.down) == 0 {
		return false
	}
	cur := src
	for _, d := range p.f.route(src, dst) {
		if p.down[linkKey{cur, d}] {
			return true
		}
		next, ok := p.f.Topo.Neighbor(cur, d)
		if !ok {
			return false
		}
		cur = next
	}
	return false
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
		p.dupOpen[m2.ID] = true
		if m.PayloadLen > 0 {
			p.fates[m.ID] = &msgFate{dup: m2}
		}
		p.injectHeader(m)
		p.injectHeader(m2)
	case model.FaultDelay, model.FaultReorder:
		d := r.Delay
		if r.Kind == model.FaultReorder {
			d = sim.Time(1 + p.rng.Int63n(int64(r.Delay)))
		}
		p.Stats.Delays++
		p.count("delay", class)
		p.msgOpen[m.ID]++
		if m.PayloadLen > 0 {
			p.fates[m.ID] = &msgFate{delay: d}
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
		p.msgOpen[m.ID]++
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
			p.dropOpen[dropKey{m.Src, m.Dst, m.FwSeq}]++
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
		p.fates[m.ID] = &msgFate{doomed: true}
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
			p.accepted[fk] = m.FwSeq
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
