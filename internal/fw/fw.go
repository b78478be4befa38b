// Package fw implements the SeaStar firmware of paper §4: the data
// structures (control block, mailboxes with command FIFOs, upper/lower
// pending pairs, source structures in a hash table, pre-sized free lists)
// and the processing (single-threaded run-to-completion handlers on the
// PowerPC, a serialized TX state machine, per-source receive streams, the
// ≤12-byte payload-in-header small message optimization, event posting and
// host interrupt coalescing).
//
// Exactly as on the real machine, the firmware knows nothing about Portals
// semantics in generic mode — it moves headers to the host and data where
// the host says — while accelerated-mode clients get their headers handled
// on the NIC itself (§3.3). Resource exhaustion follows the paper: the
// default policy panics the node ("The current approach is to panic the
// node, which results in application failure", §4.3); the go-back-n
// recovery the authors describe as in-progress work is implemented in
// gobackn.go and enabled per machine.
package fw

import (
	"fmt"

	"portals3/internal/fabric"
	"portals3/internal/flightrec"
	"portals3/internal/model"
	"portals3/internal/seastar"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// Buffer is host memory the DMA engines move data to and from.
// core.Region satisfies it; fw deliberately does not import core.
type Buffer interface {
	Len() int
	ReadAt(off int, p []byte)
	WriteAt(off int, p []byte)
	Segments() int
}

// fwEventBytes is the size of one firmware-to-host event record. Events are
// "small enough that they can be posted atomically by the firmware" (§4.1).
const fwEventBytes = 32

// cmdBytes is the size of one mailbox command record.
const cmdBytes = 64

// mailboxSlots is the command FIFO depth; the host stalls when it is full
// ("the host busy-waits until the firmware posts the result", §4.1 — for
// us, until a slot frees).
const mailboxSlots = 128

// EventKind distinguishes firmware-to-host notifications.
type EventKind int

// Firmware event kinds (§4.1 gives "message transmit complete" and
// "message reception complete" as the examples; NewHeader is the generic
// mode "new message arrived, come do the Portals processing" event).
const (
	EvNewHeader EventKind = iota
	EvTxDone
	EvRxDone
)

func (k EventKind) String() string {
	return [...]string{"NEW_HEADER", "TX_DONE", "RX_DONE"}[k]
}

// Event is one firmware notification delivered to a process's driver.
type Event struct {
	Kind    EventKind
	Pending *Pending // NewHeader, RxDone
	Tx      *TxReq   // TxDone
	OK      bool     // data integrity: end-to-end CRC verdict
}

// Span returns the flight-recorder causal span id of the message behind
// this event (zero when the recorder is off or no message is attached).
func (ev Event) Span() uint64 {
	if ev.Pending != nil && ev.Pending.msg != nil {
		return ev.Pending.msg.Span
	}
	if ev.Tx != nil {
		return ev.Tx.Span
	}
	return 0
}

// Process is one firmware-level process (§4.2): the generic Portals
// implementation in the OS kernel, or one accelerated application. Each has
// its own mailbox and pending pools.
type Process struct {
	nic *NIC
	// ID is the host process id; the generic process serves every pid that
	// has no accelerated mailbox.
	ID uint32
	// Accel marks an accelerated-mode client: headers are handled on the
	// NIC and no interrupts are raised.
	Accel bool
	// Handle receives events. For a generic process it runs host-side,
	// after the event's HT write completes (the driver layers interrupt
	// semantics on top). For an accelerated process it runs in firmware
	// context, with NIC-side costs charged by the driver itself.
	Handle func(ev Event)

	rx, tx   pendPool
	cmdSlots *sim.Credits

	// The mailbox (rx.go, command): commands wait in cmds from the host's
	// post until the firmware pops them; the first posted of them have
	// crossed HyperTransport and wait for the PowerPC.
	cmds      sim.FIFO[mboxCmd]
	posted    int
	grantedFn func() // a command FIFO slot was granted
	postedFn  func() // the command's posted write reached the NIC
}

// pendPool is one direction's pending pool. Its size is fixed at init, as on
// the chip (SRAM is charged for all of it up front, exhaustion comes at
// exactly total), but the Go structures behind it are materialised on first
// use: fresh counts the pendings nobody has needed yet, so a node that never
// has more than a few messages in flight never builds the rest.
type pendPool struct {
	free  []*Pending // recycled structures, reused before a fresh one is built
	fresh int        // pendings never yet materialised
	total int
	low   int // fewest pendings ever free (occupancy low-water)
}

func newPendPool(n int) pendPool { return pendPool{fresh: n, total: n, low: n} }

// avail is the number of free pendings.
func (q *pendPool) avail() int { return len(q.free) + q.fresh }

// take removes one free pending (the caller has checked avail): a recycled
// structure if there is one, else a fresh one built for proc.
func (q *pendPool) take(proc *Process, tx bool) (p *Pending) {
	if p = sim.Pop(&q.free); p == nil {
		q.fresh--
		p = &Pending{proc: proc, tx: tx}
		p.queued = p.queued1[:0]
	}
	if f := q.avail(); f < q.low {
		q.low = f
	}
	return p
}

// RxPendingsFree reports free receive pendings (diagnostics, exhaustion
// tests).
func (p *Process) RxPendingsFree() int { return p.rx.avail() }

// TxPendingsFree reports free transmit pendings.
func (p *Process) TxPendingsFree() int { return p.tx.avail() }

// Pending is one upper/lower pending pair (§4.2). The lower half lives in
// SeaStar SRAM and drives the data movement; the upper half lives in host
// memory and carries what the host needs (the Portals header, the inline
// payload, completion info). The firmware writes the upper half over HT and
// never reads it back.
type Pending struct {
	proc *Process
	tx   bool

	// Upper pending contents (host visible after the HT write).
	Hdr    wire.Header
	Inline []byte

	// Lower pending receive state.
	msg        *fabric.Message
	queued     []*fabric.Chunk
	arrived    int // payload bytes arrived into the RX FIFO
	consumed   int // payload bytes deposited or discarded
	crc        uint32
	programmed bool
	discardAll bool
	buf        Buffer
	bufOff     int
	mlen       int
	ctx        any
	released   bool

	// queued1 backs queued for the first early chunk, so a message of one
	// chunk that beats the host's command queues without allocating.
	queued1 [1]*fabric.Chunk

	// Lower pending transmit state.
	req *TxReq
}

// TxReq is one transmit command from the host (§4.3): the pending id, the
// destination, the payload location in main memory, and the length.
type TxReq struct {
	Pid uint32
	Hdr wire.Header
	Buf Buffer
	Off int
	Len int
	// Ctx is the submitting driver's own handle for the request — what it
	// needs to finish the send when the TX_DONE event delivers the request
	// back. The firmware never looks at it.
	Ctx any

	// Rec is the latency-attribution record set by the submitting driver
	// when telemetry is enabled. It transfers to the fabric message at
	// header injection (txHeaderReady) and travels with the message from
	// there; a retransmission therefore carries no record.
	Rec *telemetry.MsgRec

	// Span is the flight-recorder causal span id, minted at SubmitTx and
	// copied onto every fabric message this request injects — including
	// go-back-n retransmissions, which therefore share the original's span.
	Span uint64

	pending *Pending
	ctrl    bool // NIC-level flow control frame, no pending, no host data
	state   txState
	resent  bool // requeued by go-back-n: its chunks are not progress
	seq     uint32
	crc     uint32
	msg     *fabric.Message
}

// txState says who holds a transmit request. The firmware keeps it so that a
// request recycled while the firmware still refers to it, or recycled twice,
// stops the run at the call instead of corrupting a later message.
type txState uint8

const (
	txHost   txState = iota // the submitter's: fresh, backlogged, or delivered with TX_DONE
	txQueued                // in the mailbox, on the TX list or on the wire
	txHeld                  // transmitted, on its flow's unacked list (go-back-n)
	txFree                  // in the NIC's pool
)

func (s txState) String() string {
	return [...]string{"the host's", "queued", "held for its ack", "free"}[s]
}

// AllocTxReq returns a zeroed transmit request from the NIC's pool. Drivers
// use it with RecycleTxReq to keep the per-send path allocation-free.
func (n *NIC) AllocTxReq() *TxReq {
	if req := sim.Pop(&n.txrFree); req != nil {
		req.state = txHost
		return req
	}
	return &TxReq{}
}

// RecycleTxReq returns a finished transmit request to the pool. Callers may
// only recycle after the request's TX_DONE event was delivered — the
// firmware holds no reference past that point (go-back-n releases the
// request from its unacked list before posting the event).
func (n *NIC) RecycleTxReq(req *TxReq) {
	if req.state != txHost {
		panic("fw: transmit request recycled while " + req.state.String())
	}
	*req = TxReq{state: txFree}
	n.txrFree = append(n.txrFree, req)
}

// source is the per-peer structure (§4.2): one per node this firmware is
// sending to or receiving from, allocated from a single global pool and
// kept in a hash table.
type source struct {
	nid topo.NodeID
	// Go-back-n state, used only under ExhaustGoBackN: rxSeq is the last
	// in-order sequence successfully received from this peer, txSeq the
	// last sequence assigned toward it, unacked the fully transmitted but
	// not yet acknowledged sends, oldest first. unacked1 backs its first
	// entry: most flows of a machine-scale job never hold two.
	rxSeq      uint32
	txSeq      uint32
	timerArmed bool
	// idle counts the timer periods a flow has stayed silent since its last
	// retransmission, backoff the doublings of that wait (at most 6, so 64
	// periods); an FC_ACK or FC_NACK zeroes both. Two bytes in what would
	// otherwise be padding: source stays 64 B.
	idle, backoff uint8
	unacked       []*TxReq
	unacked1      [1]*TxReq
	lastAck       sim.Time
	// ackedSeq is the peer's cumulative acknowledgment high-water mark. An
	// ack can outrun our own transmit completion — the peer re-acks a
	// duplicate as soon as its header arrives, while our chunk pipeline is
	// still streaming — so the position must survive until the transmit
	// finishes, or the message parks on unacked forever and the timer
	// retransmits it in an endless cycle.
	ackedSeq uint32
}

// Stats counts firmware activity for tests and reports.
type Stats struct {
	HeadersRx    uint64
	MsgsTx       uint64
	EventsPosted uint64
	InlineRx     uint64 // messages fully delivered via the header packet
	Exhaustions  uint64
	CrcFails     uint64
	NacksSent    uint64
	NacksRcvd    uint64
	Retransmits  uint64
	Discards     uint64
	GbnTimeouts  uint64 // go-back-n timer expiries that triggered a resend
	DupAcks      uint64 // duplicate data messages re-acked and discarded
	Completions  uint64 // transmit requests finished (acked or completed)
}

// ExhaustPolicy selects the firmware's response to resource exhaustion.
type ExhaustPolicy int

// Exhaustion policies (§4.3).
const (
	// ExhaustPanic is the paper's current approach: "panic the node, which
	// results in application failure".
	ExhaustPanic ExhaustPolicy = iota
	// ExhaustGoBackN enables the in-progress go-back-n recovery protocol.
	ExhaustGoBackN
)

// NIC is the firmware instance for one SeaStar.
type NIC struct {
	S    *sim.Sim
	P    *model.Params
	Chip *seastar.Chip
	Fab  fabric.Port
	Node topo.NodeID

	// Policy selects exhaustion handling.
	Policy ExhaustPolicy
	// FR, when non-nil, is this node's flight-recorder ring: state
	// transitions and handler spans. Nil-safe, so record sites pay one
	// pointer test when disabled.
	FR *flightrec.Ring
	// OnPanic is invoked for ExhaustPanic; the default panics the Go
	// process, the machine layer substitutes a node-failure handler.
	OnPanic func(reason string)

	generic *Process
	accel   map[uint32]*Process

	sources    map[topo.NodeID]*source
	sourceFree int
	srcLow     int // fewest sources ever free (occupancy low-water)

	// txq is the single TX list (§4.3); its head is the message the transmit
	// state machine is moving while txBusy. One message moves at a time, so
	// the machine's one continuation (txStepFn, which runs txNext: see
	// txThen) is the NIC's, not a carrier's.
	txq      sim.FIFO[*TxReq]
	txqHigh  int // deepest TX queue backlog (occupancy high-water)
	txBusy   bool
	txNext   func(*NIC)
	txStepFn func()

	// handlers holds the firmware handlers waiting for the PowerPC, which
	// serves them in order: dispatchFn runs the head (see exec).
	handlers   sim.FIFO[handler]
	dispatchFn func()

	// Go-back-n (gobackn.go): the armed retransmission timers, which all wait
	// GbnTimeout and so expire in arming order, and the scratch list a NACK
	// collects its rewind in.
	gbnTimers  sim.FIFO[gbnTimer]
	gbnTimerFn func()
	gbnResend  []*TxReq

	// early holds chunks that arrive before the header handler has
	// allocated a pending (hardware demultiplexes; the PowerPC is still
	// busy), and streams condemned to discard.
	streams     map[uint64]*Pending
	streamsHigh int            // most receive streams ever open
	dead        map[uint64]int // msgID -> payload bytes still expected, discard

	killed bool

	// moved counts the data movement Progress adds to completions and
	// events: headers that got a pending, payload chunks consumed into one,
	// and chunks injected on a request's first transmission — a long message
	// moves for many windows between its header and its completion.
	// HeadersRx also counts flow-control frames and every header the
	// firmware rejects (NACKed, out of sequence, duplicate, dead pid), and
	// a go-back-n retransmission's chunks do not count.
	moved uint64

	// The free lists that remain are of what moves concurrently behind a
	// server shared with other traffic, where no one queue orders it: payload
	// chunks in the TX pipeline (bounded by the TX FIFO) and in host deposit
	// (by the RX FIFO), host event writes, the stubs of streams whose header
	// handler has not run yet (by the RX FIFO too), and the drivers'
	// transmit requests, which live as long as their message is unacked.
	txcFree  []*txChunk
	depFree  []*rxDeposit
	stubFree []*Pending
	evpFree  []*evPost
	txrFree  []*TxReq

	// hdrScratch is the header-encode buffer for CRC computation; methods
	// use it instead of a stack array because the encode call makes a stack
	// array escape (one allocation per message).
	hdrScratch [wire.HeaderBytes]byte

	// Heartbeat is the control block's heartbeat counter (§4.2);
	// incremented as each handler is dispatched to the (FIFO) firmware CPU,
	// so it stalls exactly when the firmware stops making progress.
	Heartbeat uint64

	Stats Stats
}

// New creates the firmware for one chip and charges its static structures
// to SRAM: the global source pool and (as processes register) the pending
// pools. The error is a configuration error — the pools must fit in 384 KB.
func New(s *sim.Sim, p *model.Params, chip *seastar.Chip, fab fabric.Port, node topo.NodeID) (*NIC, error) {
	n := &NIC{
		S:          s,
		P:          p,
		Chip:       chip,
		Fab:        fab,
		Node:       node,
		accel:      make(map[uint32]*Process),
		sources:    make(map[topo.NodeID]*source),
		sourceFree: p.NumSources,
		srcLow:     p.NumSources,
		streams:    make(map[uint64]*Pending),
		dead:       make(map[uint64]int),
	}
	n.OnPanic = func(reason string) {
		panic(fmt.Sprintf("fw[node %d]: %s", node, reason))
	}
	n.txStepFn = func() { n.txNext(n) }
	n.dispatchFn = n.dispatch
	if err := chip.SRAM.Alloc("sources", int64(p.NumSources)*p.SourceBytes); err != nil {
		return nil, err
	}
	if err := chip.SRAM.Alloc("nic-control-block", 256); err != nil {
		return nil, err
	}
	fab.Attach(node, n)
	return n, nil
}

// RegisterGeneric installs the generic firmware-level process — the OS
// kernel's Portals implementation, which serves every host pid without an
// accelerated mailbox. pendings is the pool size (the paper's 1,274),
// split evenly between the host-managed TX pool and the firmware-managed
// RX pool (§4.2).
func (n *NIC) RegisterGeneric(pendings int, handle func(Event)) (*Process, error) {
	if n.generic != nil {
		return nil, fmt.Errorf("fw: generic process already registered")
	}
	p, err := n.newProcess(0, false, pendings, handle)
	if err != nil {
		return nil, err
	}
	n.generic = p
	return p, nil
}

// RegisterAccel installs an accelerated process for host pid. The number of
// accelerated clients is limited (§4.1): registration fails beyond
// Params.MaxAccelProcs.
func (n *NIC) RegisterAccel(pid uint32, pendings int, handle func(Event)) (*Process, error) {
	if len(n.accel) >= n.P.MaxAccelProcs {
		return nil, fmt.Errorf("fw: accelerated mailbox limit (%d) reached", n.P.MaxAccelProcs)
	}
	if _, dup := n.accel[pid]; dup {
		return nil, fmt.Errorf("fw: pid %d already accelerated", pid)
	}
	p, err := n.newProcess(pid, true, pendings, handle)
	if err != nil {
		return nil, err
	}
	n.accel[pid] = p
	return p, nil
}

func (n *NIC) newProcess(pid uint32, accel bool, pendings int, handle func(Event)) (*Process, error) {
	// The generic process's names are constants; only an accelerated one
	// (a handful per machine) formats its own.
	pool, box, isAccel := "pendings[generic]", "pendings[generic].proc+mailbox", int32(0)
	if accel {
		pool = fmt.Sprintf("pendings[pid %d]", pid)
		box, isAccel = pool+".proc+mailbox", 1
	}
	if err := n.Chip.SRAM.Alloc(pool, int64(pendings)*n.P.PendingBytes); err != nil {
		return nil, err
	}
	if err := n.Chip.SRAM.Alloc(box, 512); err != nil {
		return nil, err
	}
	p := &Process{
		nic:      n,
		ID:       pid,
		Accel:    accel,
		Handle:   handle,
		rx:       newPendPool(pendings / 2),
		tx:       newPendPool(pendings - pendings/2),
		cmdSlots: sim.NewCreditsLabel(n.S, sim.Label{Format: cmdfifoName, A: int32(pid), B: isAccel}, mailboxSlots),
	}
	p.grantedFn = p.cmdGranted
	p.postedFn = p.cmdPosted
	return p, nil
}

// cmdfifoName formats a mailbox command FIFO's diagnostic name when read.
func cmdfifoName(pid, accel int32) string {
	if accel == 0 {
		return "pendings[generic].cmdfifo"
	}
	return fmt.Sprintf("pendings[pid %d].cmdfifo", uint32(pid))
}

// procForPid resolves the firmware-level process targeted by a host pid:
// an accelerated mailbox if one exists, the generic process otherwise.
func (n *NIC) procForPid(pid uint32) *Process {
	if p, ok := n.accel[pid]; ok {
		return p
	}
	return n.generic
}

// Generic returns the generic process (nil before RegisterGeneric).
func (n *NIC) Generic() *Process { return n.generic }

// fwOp names a firmware handler.
type fwOp uint8

const (
	opTxProgram fwOp = iota
	opTxDone
	opRxHeader
	opRxDone
	opMailbox
	opRxProgramLocal
	opRxDiscardLocal
	opReleaseLocal
)

func (op fwOp) String() string { return flightrec.HandlerName(uint8(op)) }

// handler is one firmware handler waiting for the PowerPC: which one, its
// cost, and the one thing it works on (the TX handlers work on the head of
// the TX list and carry nothing).
type handler struct {
	op     fwOp
	ok     bool // opRxDone: the end-to-end CRC verdict
	cycles int64
	msg    *fabric.Message // opRxHeader
	pend   *Pending        // opRxDone and the NIC-local receive commands
	proc   *Process        // opMailbox: the mailbox whose head command runs
}

// exec queues h as one firmware handler, charging cycles on the PowerPC and
// ticking the heartbeat. The PowerPC serves in order, so the handler
// waits as an entry of n.handlers and the one continuation bound per NIC
// runs the head — this is the hottest dispatch point in the model, and it
// builds nothing per handler.
func (n *NIC) exec(op fwOp, cycles int64, h handler) {
	n.Heartbeat++
	h.op, h.cycles = op, cycles
	n.handlers.Push(h)
	n.Chip.Exec(cycles, n.dispatchFn)
}

// dispatch runs the handler the PowerPC has just finished charging for,
// recording it first when the flight recorder is on.
func (n *NIC) dispatch() {
	h := n.handlers.Pop()
	if n.FR != nil {
		dur := n.P.PPCCycles(n.P.FwDispatchCycles + h.cycles)
		n.FR.Put(flightrec.Event{T: n.S.Now(), Kind: flightrec.KFwHandler, Sub: uint8(h.op), Span: uint64(dur)})
	}
	switch h.op {
	case opTxProgram:
		n.txProgram()
	case opTxDone:
		n.txDone()
	case opRxHeader:
		n.handleHeader(h.msg)
	case opRxDone:
		n.rxDone(h.pend, h.ok)
	case opMailbox:
		h.proc.runCmd()
	case opRxProgramLocal:
		h.pend.program()
	case opRxDiscardLocal:
		h.pend.discard()
	case opReleaseLocal:
		n.freeRx(h.pend)
	}
}

// allocSource finds or allocates the source structure for a peer; nil means
// the global pool is exhausted.
func (n *NIC) allocSource(nid topo.NodeID) *source {
	if s, ok := n.sources[nid]; ok {
		n.FR.Record(flightrec.KSrcHit, n.S.Now(), 0, uint32(n.sourceFree), 0)
		return s
	}
	if n.sourceFree == 0 {
		return nil
	}
	n.sourceFree--
	if n.sourceFree < n.srcLow {
		n.srcLow = n.sourceFree
	}
	n.FR.Record(flightrec.KSrcAlloc, n.S.Now(), 0, uint32(n.sourceFree), 0)
	s := &source{nid: nid}
	s.unacked = s.unacked1[:0]
	n.sources[nid] = s
	return s
}

// postEvent writes an event record to the process's host event queue and
// delivers it. For generic processes the delivery runs after the HT write
// completes (the driver adds interrupt semantics); accelerated processes
// also see it after the HT write (their user-level library polls the queue,
// no interrupt involved).
func (n *NIC) postEvent(p *Process, ev Event) {
	n.Stats.EventsPosted++
	if n.FR != nil {
		n.FR.Record(flightrec.KEvPost, n.S.Now(), ev.Span(), uint32(ev.Kind), 0)
	}
	j := n.getEvPost()
	j.p = p
	j.ev = ev
	n.Chip.WriteHost(fwEventBytes, j.fn)
}

// evPost carries one event record through its HyperTransport write to the
// host — the write engine also carries payload deposits and serves them in
// between, so an event in flight needs a carrier of its own. It binds one
// continuation; a header event's write must also return the header's RX FIFO
// credits, which credits says.
type evPost struct {
	n       *NIC
	p       *Process
	ev      Event
	credits int64
	fn      func()
}

func (n *NIC) getEvPost() *evPost {
	if j := sim.Pop(&n.evpFree); j != nil {
		return j
	}
	j := &evPost{n: n}
	j.fn = j.run
	return j
}

func (j *evPost) run() {
	n, p, ev, credits := j.n, j.p, j.ev, j.credits
	j.p, j.ev, j.credits = nil, Event{}, 0
	n.evpFree = append(n.evpFree, j)
	if credits > 0 {
		n.Chip.RxFIFO.Put(credits)
	}
	p.Handle(ev)
}

// rxDone is the rx-done firmware handler: post the completion of a chunked
// receive.
func (n *NIC) rxDone(p *Pending, ok bool) {
	// The completion event push to the host begins now — the event-post
	// attribution boundary for chunked messages.
	p.msg.Rec.Stamp(telemetry.StampEvPost, n.S.Now())
	ev := Event{Kind: EvRxDone, Pending: p, OK: ok}
	if p.proc.Accel {
		p.proc.Handle(ev)
		return
	}
	n.postEvent(p.proc, ev)
}

// exhaust applies the exhaustion policy for an unservable incoming message.
// It reports whether the message stream was consumed (true for go-back-n,
// which discards and NACKs; false means the node is gone). code is the
// flight-recorder exhaustion code matching what.
func (n *NIC) exhaust(m *fabric.Message, what string, code uint32) bool {
	n.Stats.Exhaustions++
	if n.FR != nil {
		n.FR.Record(flightrec.KExhaust, n.S.Now(), m.Span, code, 0)
	}
	if n.Policy == ExhaustGoBackN {
		n.nackAndDiscard(m)
		return true
	}
	n.OnPanic("resource exhaustion: " + what)
	return false
}

// noteTxq updates the TX queue's backlog high-water mark; call after any
// append or insert.
func (n *NIC) noteTxq() {
	if d := n.txq.Len(); d > n.txqHigh {
		n.txqHigh = d
	}
}

// noteStreams updates the open-receive-streams high-water mark.
func (n *NIC) noteStreams() {
	if len(n.streams) > n.streamsHigh {
		n.streamsHigh = len(n.streams)
	}
}

// Occupancy snapshots the firmware's resource watermarks — the pool frees,
// low-water marks and queue depths a dump records per node. The event-queue
// fields belong to the host driver; the machine layer fills them in.
func (n *NIC) Occupancy() flightrec.Occupancy {
	o := flightrec.Occupancy{
		SourcesFree:   n.sourceFree,
		SourcesTotal:  n.P.NumSources,
		SourcesLow:    n.srcLow,
		TxQueueDepth:  n.txq.Len(),
		TxQueueHigh:   n.txqHigh,
		RxStreams:     len(n.streams),
		RxStreamsHigh: n.streamsHigh,
		SRAMUsed:      n.Chip.SRAM.Used(),
	}
	if p := n.generic; p != nil {
		o.RxPendFree, o.RxPendTotal, o.RxPendLow = p.rx.avail(), p.rx.total, p.rx.low
		o.TxPendFree, o.TxPendTotal, o.TxPendLow = p.tx.avail(), p.tx.total, p.tx.low
	}
	for _, s := range n.sources {
		o.Unacked += len(s.unacked)
	}
	return o
}

// OpenWork counts the node's in-flight obligations: queued transmits, open
// receive streams and unacknowledged go-back-n sends. The stall detector
// pairs it with Progress — open work with no progress is a stalled flow.
func (n *NIC) OpenWork() int {
	open := n.txq.Len() + len(n.streams)
	for _, s := range n.sources {
		open += len(s.unacked)
	}
	return open
}

// Progress is the node's forward-progress counter: completions, posted
// events and moved data (headers that got a pending, payload chunks
// consumed into one, first-transmission chunks injected). Retransmit
// attempts and rejected headers deliberately do not count — a sender
// spinning on its go-back-n timer, or a receiver answering it with NACKs,
// is not making progress.
func (n *NIC) Progress() uint64 {
	return n.Stats.Completions + n.moved + n.Stats.EventsPosted
}

// RxWindow implements fabric.Endpoint: the chip's bounded receive FIFO.
func (n *NIC) RxWindow() *sim.Credits { return n.Chip.RxFIFO }

// Kill marks the node failed (the §4.3 panic): the firmware stops
// processing — arriving traffic is blackholed and the heartbeat stops. The
// machine calls it from the handler that files the panic's failure report,
// which is how the rest of the machine finds out.
func (n *NIC) Kill() { n.killed = true }

// Dead reports whether the node has failed.
func (n *NIC) Dead() bool { return n.killed }
