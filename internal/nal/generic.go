package nal

import (
	"portals3/internal/core"
	"portals3/internal/flightrec"
	"portals3/internal/fw"
	"portals3/internal/model"
	"portals3/internal/oskernel"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// GenericDriver is the generic-mode SSNAL: the kernel-resident Portals
// implementation of paper §3.3/§4. The firmware interrupts the host with
// new headers; this driver performs the Portals matching, answers with
// receive commands, posts completion events to the applications, and pushes
// transmit commands for every generic process on the node.
//
// One driver serves all generic processes on a node — Catamount
// applications through qkbridge, Linux user applications through ukbridge
// and kernel services through kbridge all multiplex onto its single
// firmware mailbox, exactly as in the paper.
type GenericDriver struct {
	S    *sim.Sim
	P    *model.Params
	K    *oskernel.Kernel
	NIC  *fw.NIC
	Topo *topo.Topology

	// Tel, when non-nil, attaches a latency-attribution record to every
	// send and finishes it at app delivery (machine.EnableTelemetry).
	Tel *telemetry.Telemetry

	// FR is this node's flight-recorder ring; nil (disabled) is valid.
	FR *flightrec.Ring

	libs map[uint32]*core.Lib

	evq     sim.FIFO[fw.Event] // pending firmware events
	evqHigh int                // deepest driver event-queue backlog (occupancy high-water)
	txBacklog

	// drainFn and doneFn are drain's continuations, bound once — the drain
	// loop runs per event and a fresh method value per pass is measurable.
	drainFn func()
	doneFn  func()
	evjFree []*evJob

	// Stats for tests and reports.
	EventsHandled uint64
	Drops         uint64
}

// NewGeneric builds the driver, registers it as the NIC's generic process
// (with the paper's pending pool size) and installs the interrupt handler.
func NewGeneric(k *oskernel.Kernel, nic *fw.NIC, tp *topo.Topology, p *model.Params) (*GenericDriver, error) {
	d := &GenericDriver{S: k.S, P: p, K: k, NIC: nic, Topo: tp, libs: make(map[uint32]*core.Lib)}
	d.drainFn = d.drain
	d.doneFn = func() { d.K.InterruptDone() }
	if _, err := nic.RegisterGeneric(p.NumGenericPendings, d.fwEvent); err != nil {
		return nil, err
	}
	k.SetInterruptHandler(d.drainFn)
	return d, nil
}

// AttachProcess creates the kernel-resident library state for one generic
// process and returns it. The machine layer pairs it with an API through
// the appropriate bridge.
func (d *GenericDriver) AttachProcess(pid, uid uint32, limits core.Limits) *core.Lib {
	lib := core.NewLib(d.S, core.ProcessID{Nid: uint32(d.NIC.Node), Pid: pid}, uid, limits, &procBackend{d: d, pid: pid})
	d.libs[pid] = lib
	return lib
}

// DetachProcess removes a process's library (process exit).
func (d *GenericDriver) DetachProcess(pid uint32) { delete(d.libs, pid) }

// Lib returns the kernel-resident library of one generic process, for
// diagnostics and tests.
func (d *GenericDriver) Lib(pid uint32) *core.Lib { return d.libs[pid] }

// procBackend adapts the driver into a core.Backend for one process.
type procBackend struct {
	d   *GenericDriver
	pid uint32
}

// Send implements core.Backend: forward the library's send to the firmware
// as a transmit command.
func (b *procBackend) Send(req *core.SendReq) { b.d.send(b.pid, req) }

// Distance implements core.Backend via the routing tables.
func (b *procBackend) Distance(nid uint32) int {
	return b.d.Topo.Hops(b.d.NIC.Node, topo.NodeID(nid))
}

// send builds the firmware transmit request for a library send and submits
// it, holding it in a backlog when the host-managed pending pool is empty.
func (d *GenericDriver) send(pid uint32, req *core.SendReq) {
	lib := d.libs[pid]
	tx := d.NIC.AllocTxReq()
	tx.Pid = pid
	tx.Hdr = req.Hdr
	tx.Off = req.Off
	tx.Len = req.Len
	if d.Tel != nil {
		// The host has trapped, marshaled and built the command: the
		// message's life (and its host segment) starts here.
		rec := d.Tel.NewMsgRec(req.Len)
		rec.Stamp(telemetry.StampSubmit, d.S.Now())
		tx.Rec = rec
	}
	if req.Region != nil {
		tx.Buf = req.Region
	}
	if req.RxOp != nil || req.Hdr.Type == wire.TypePut {
		// A get reply completes the target side of the get at TX done; a
		// put posts SEND_END: the request rides on the transmit request
		// until its TX_DONE event (sendDone).
		tx.Ctx = req
		d.submit(d.NIC, tx)
		return
	}
	d.submit(d.NIC, tx)
	// Gets and acks carry no local completion semantics: the transmit
	// command carries everything the firmware needs, so the request is done.
	lib.FreeSendReq(req)
}

// sendDone finishes, at its TX_DONE event, a library send that has local
// completion semantics.
func sendDone(lib *core.Lib, req *core.SendReq, ok bool) {
	if req.RxOp != nil {
		// A get reply: completing the transmission completes the target
		// side of the get.
		lib.ReplySent(req.RxOp)
		lib.FreeSendReq(req)
		return
	}
	lib.SendDone(req, ok)
}

// txBacklog is how both drivers hand the firmware a transmit: a request goes
// to the NIC at once if its process has a TX pending free, else it waits
// here, in order, until a TX_DONE returns a pending and retry resubmits from
// the head. The drivers take their requests from the NIC's pool and return
// them at TX_DONE, so a send allocates nothing.
type txBacklog struct {
	backlog sim.FIFO[*fw.TxReq]
}

func (b *txBacklog) submit(nic *fw.NIC, tx *fw.TxReq) {
	if err := nic.SubmitTx(tx); err != nil {
		b.backlog.Push(tx)
	}
}

// retry resubmits held requests, oldest first, until one is refused.
func (b *txBacklog) retry(nic *fw.NIC) {
	for b.backlog.Len() > 0 && nic.SubmitTx(b.backlog.First()) == nil {
		b.backlog.Pop()
	}
}

// Backlogged reports the transmit requests waiting for a TX pending.
func (b *txBacklog) Backlogged() int { return b.backlog.Len() }

// fwEvent receives firmware events host-side (after the event's HT write)
// and requests the interrupt that will process them. Multiple events
// coalesce into one interrupt (§4.1).
func (d *GenericDriver) fwEvent(ev fw.Event) {
	d.evq.Push(ev)
	depth := d.evq.Len()
	if depth > d.evqHigh {
		d.evqHigh = depth
	}
	if d.FR != nil {
		d.FR.Record(flightrec.KIrqRaise, d.S.Now(), ev.Span(), uint32(depth), 0)
	}
	d.K.RaiseInterrupt()
}

// EvQueueDepth reports the driver event-queue backlog right now.
func (d *GenericDriver) EvQueueDepth() int { return d.evq.Len() }

// EvQueueHigh reports the deepest backlog the event queue ever reached.
func (d *GenericDriver) EvQueueHigh() int { return d.evqHigh }

// drain is the interrupt handler: it processes every queued firmware event,
// charging host cycles per event, and re-checks for events that arrived
// while it ran before re-arming interrupts ("the Portals interrupt handler
// processes all of the new events in the generic EQ each time it is
// invoked", §4.1).
func (d *GenericDriver) drain() {
	if d.evq.Len() == 0 {
		d.K.InterruptDone()
		return
	}
	ev := d.evq.Pop()
	d.EventsHandled++
	next := d.drainFn
	if d.K.NoCoalesce {
		// Ablation: one event per interrupt — finish after this event and
		// let the pending raises take fresh interrupts.
		next = d.doneFn
	}
	if ev.Kind == fw.EvNewHeader {
		// Header processing charges in two stages: the fixed matching cost
		// runs before the library walk (whose events first become visible
		// to applications), then the walk-dependent and command-building
		// cost before the firmware command goes out.
		j := d.getEvJob()
		j.ev = ev
		j.next = next
		d.K.KernelWork(d.P.HostMatchBaseCycles, j.then((*evJob).match))
		return
	}
	j := d.getEvJob()
	j.ev = ev
	j.next = next
	cycles := d.process(j, ev)
	d.K.KernelWork(cycles, j.then((*evJob).applyNext))
}

// evAction names the state change an evJob applies once its kernel cycles
// have been charged; with the carrier's fields (lib, op) it replaces a
// per-event apply closure.
type evAction int

const (
	evActNone      evAction = iota
	evActRxDone             // completion callback + release
	evActTxDone             // Done callback + backlog retry + request recycle
	evActDropNoLib          // no process for the pid: discard, no lock held
	evActRelease            // ack (library already posted): release
	evActDrop               // matching dropped the message: discard
	evActReply              // get request: transmit the reply
	evActInline             // payload arrived inline: deposit and finish
	evActRxCmd              // payload follows: issue the receive command
)

// evJob carries one firmware event through drain's staged kernel-work
// charges — the fixed matching cost, then the walk-dependent one — one after
// the other, so it binds one continuation, once, and stage says which charge
// it follows; the carrier is recycled, so the per-event path allocates
// nothing.
type evJob struct {
	d      *GenericDriver
	ev     fw.Event
	next   func()
	action evAction
	lib    *core.Lib // locked library, for actions that must unlock it
	op     *core.RxOp
	stage  func(*evJob)
	fn     func()
}

func (d *GenericDriver) getEvJob() *evJob {
	if j := sim.Pop(&d.evjFree); j != nil {
		return j
	}
	j := &evJob{d: d}
	j.fn = func() { j.stage(j) }
	return j
}

func (j *evJob) then(stage func(*evJob)) func() {
	j.stage = stage
	return j.fn
}

// match runs once the fixed matching cost is charged: the library walk.
func (j *evJob) match() {
	cycles := j.d.processHeader(j, j.ev)
	j.d.K.KernelWork(cycles, j.then((*evJob).applyNext))
}

// applyNext runs once the walk-dependent cost is charged: apply and continue.
func (j *evJob) applyNext() {
	d, ev, next := j.d, j.ev, j.next
	action, lib, op := j.action, j.lib, j.op
	j.ev = fw.Event{}
	j.next = nil
	j.action = evActNone
	j.lib, j.op = nil, nil
	d.evjFree = append(d.evjFree, j)
	d.apply(action, ev, lib, op)
	next()
}

// apply performs the state change for one processed event. It runs after
// the event's kernel cycles were charged, so downstream effects (commands,
// application events) happen at the right time. Actions below evActDropNoLib
// never hold the library lock; the rest entered through processHeader, which
// locked and deferred the library, and unlock it here.
func (d *GenericDriver) apply(action evAction, ev fw.Event, lib *core.Lib, op *core.RxOp) {
	switch action {
	case evActRxDone:
		p := ev.Pending
		if op, _ := p.Ctx().(*core.RxOp); op != nil {
			pid := p.Hdr.DstPid
			if ack := d.libs[pid].Delivered(op, ev.OK); ack != nil {
				d.send(pid, ack)
			}
		}
		d.finishRec(ev.Pending)
		ev.Pending.Release()
		return
	case evActTxDone:
		tx := ev.Tx
		if req, _ := tx.Ctx.(*core.SendReq); req != nil {
			sendDone(d.libs[tx.Pid], req, ev.OK)
		}
		// A pending returned to the pool: retry backlogged sends.
		d.retry(d.NIC)
		d.NIC.RecycleTxReq(tx)
		return
	case evActDropNoLib:
		p := ev.Pending
		if !p.Complete() {
			p.Discard()
		}
		p.Release()
		return
	case evActNone:
		return
	}
	p := ev.Pending
	switch action {
	case evActRelease:
		d.finishRec(p)
		p.Release()
	case evActDrop:
		if !p.Complete() {
			p.Discard()
		}
		p.Release()
	case evActReply:
		// Get request: transmit the reply before the GET_START event
		// becomes visible — one pass through the handler.
		d.finishRec(p)
		d.send(p.Hdr.DstPid, op.Reply)
		p.Release()
	case evActInline:
		// Whole payload arrived with the header (≤12 B inline): deposit
		// from the upper pending and finish — one interrupt total.
		mlen := op.MLen
		if mlen > len(p.Inline) {
			mlen = len(p.Inline)
		}
		if mlen > 0 {
			op.Region.WriteAt(op.Off, p.Inline[:mlen])
		}
		if ack := lib.Delivered(op, ev.OK); ack != nil {
			d.send(p.Hdr.DstPid, ack)
		}
		d.finishRec(p)
		p.Release()
	case evActRxCmd:
		// Payload follows: answer with the receive command; the operation
		// rides on the pending until RX_DONE delivers it (evActRxDone).
		p.SubmitRx(op.Region, op.Off, op.MLen, op)
	}
	lib.EndDefer()
	lib.Unlock()
}

// finishRec completes a message's latency attribution at app delivery: the
// last boundary is stamped and the record's segments feed the telemetry
// histograms. One pointer test when telemetry is off.
func (d *GenericDriver) finishRec(p *fw.Pending) {
	if d.Tel == nil {
		return
	}
	if rec := p.TakeRec(); rec != nil {
		rec.Stamp(telemetry.StampDeliver, d.S.Now())
		d.Tel.FinishMsg(rec)
	}
}

// process maps one non-header firmware event to its host cost, recording
// the resulting action on the carrier.
func (d *GenericDriver) process(j *evJob, ev fw.Event) int64 {
	switch ev.Kind {
	case fw.EvRxDone:
		j.action = evActRxDone
		return d.P.HostEventCycles
	case fw.EvTxDone:
		j.action = evActTxDone
		return d.P.HostEventCycles
	}
	j.action = evActNone
	return 0
}

// processHeader performs the Portals processing for a new message header:
// matching on the host (this is generic mode), recording the follow-up
// action (receive command, inline completion, reply transmission, discard)
// on the carrier. The fixed matching cost was charged by the caller before
// this runs; the returned cycles cover the walk-dependent and
// command-building work.
//
// Events the library posts during this message's processing wake their
// waiters only once the apply phase completes, and the library is locked
// against API calls meanwhile (the kernel-lock serialization the receive
// protocols depend on); apply unlocks it.
func (d *GenericDriver) processHeader(j *evJob, ev fw.Event) int64 {
	p := ev.Pending
	hdr := p.Hdr
	lib := d.libs[hdr.DstPid]
	if lib == nil {
		d.Drops++
		j.action = evActDropNoLib
		return 0
	}
	lib.Lock()
	lib.BeginDefer()
	j.lib = lib
	op := lib.Receive(&hdr)
	if op == nil {
		// An acknowledgment: the library posted the ACK event already.
		j.action = evActRelease
		return d.P.HostEventCycles
	}
	j.op = op
	cycles := int64(op.Walked) * d.P.HostMatchPerME
	switch {
	case op.Drop:
		d.Drops++
		j.action = evActDrop
		return cycles
	case op.Reply != nil:
		j.action = evActReply
		return cycles + d.P.HostTxSetupCycles + d.P.HostGetReplyCycles + d.segCycles(op.Region, op.Off, op.MLen)
	case p.Complete():
		j.action = evActInline
		return cycles + d.P.HostEventCycles
	default:
		// The host pre-computes per-page DMA commands for paged buffers
		// (§3.3).
		j.action = evActRxCmd
		return cycles + d.P.HostRxCmdCycles + d.segCycles(op.Region, op.Off, op.MLen)
	}
}

// segCycles is the per-page DMA pre-computation cost for a buffer range.
func (d *GenericDriver) segCycles(r core.Region, off, n int) int64 {
	if r == nil || n == 0 || r.Segments() <= 1 {
		return 0
	}
	page := int(d.P.PageBytes)
	segs := (off+n-1)/page - off/page + 1
	return int64(segs) * d.P.HostPerPageCycles
}
