package fw

import (
	"errors"
	"hash/crc32"

	"portals3/internal/flightrec"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// ErrNoTxPending reports an empty host-managed transmit pending pool; the
// driver must retry after a TX_DONE returns one.
var ErrNoTxPending = errors.New("fw: transmit pending pool empty")

// ErrAccelNonContiguous rejects a non-contiguous buffer on an accelerated
// mailbox (paper §3.3).
var ErrAccelNonContiguous = errors.New("fw: accelerated mode requires physically contiguous buffers")

// SubmitTx is the host's transmit command path (§4.3): allocate a pending
// from the host-managed pool, store the header in the upper pending, and
// push the command (pending id, target node, payload address, length) to
// the firmware mailbox. Non-contiguous buffers arrive with their DMA
// commands pre-computed by the host; the extra host cycles for that are
// charged by the NAL driver, the extra per-segment HT transactions here.
func (n *NIC) SubmitTx(req *TxReq) error {
	if req.state != txHost {
		panic("fw: transmit request submitted while the firmware or the pool holds it")
	}
	proc := n.procForPid(req.Pid)
	if proc == nil {
		return errors.New("fw: no firmware process for pid")
	}
	if proc.tx.avail() == 0 {
		return ErrNoTxPending
	}
	if proc.Accel && req.Buf != nil && req.Buf.Segments() > 1 {
		// "accelerated mode will not support non-contiguous message
		// buffers" (§3.3): the dedicated mailbox has no room for per-page
		// DMA command lists.
		return ErrAccelNonContiguous
	}
	p := proc.tx.take(proc, true)
	// The causal span is minted here, at the top of the transmit path, and
	// copied onto every fabric message built from this request — including
	// go-back-n retransmissions — so one span traces the message end to end.
	req.Span = n.FR.NewSpan()
	n.FR.Record(flightrec.KPendAlloc, n.S.Now(), req.Span, uint32(proc.tx.avail()), 1)
	p.req = req
	req.pending = p
	req.state = txQueued
	proc.command(mboxCmd{op: cmdTx, cycles: n.P.FwTxCmdCycles, req: req})
	return nil
}

// txSubmit is the transmit command's firmware handler: find the
// destination's source structure, stamp the flow sequence and enqueue the
// request on the TX list.
func (n *NIC) txSubmit(req *TxReq) {
	req.Rec.Stamp(telemetry.StampFwTx, n.S.Now())
	src := n.allocSource(topo.NodeID(req.Hdr.DstNid))
	if src == nil {
		// TX-side source exhaustion cannot be NACKed away — the
		// pool is local. It is always a sizing failure.
		n.Stats.Exhaustions++
		n.FR.Record(flightrec.KExhaust, n.S.Now(), req.Span, flightrec.ExhaustTxSource, 0)
		n.OnPanic("tx source pool empty")
		return
	}
	n.gbnAssignSeq(src, req)
	n.txq.Push(req)
	n.noteTxq()
	n.FR.Record(flightrec.KTxSerialize, n.S.Now(), req.Span, req.seq, uint32(req.Len))
	n.pumpTx()
}

// sendControl transmits a NIC-level flow control frame. Control frames are
// built entirely in firmware — no pending, no host memory reads — but they
// serialize through the same TX queue as everything else (§4.3: "All
// transmits, regardless of destination or process type, are serialized
// through a single TX FIFO"). The frame is a request from the pool the
// drivers' sends come from, and goes back to it in txDone.
func (n *NIC) sendControl(dst topo.NodeID, typ wire.MsgType, seq uint32) {
	req := n.AllocTxReq()
	req.Hdr = wire.Header{
		Type:   typ,
		SrcNid: uint32(n.Node),
		DstNid: uint32(dst),
		Offset: seq,
	}
	req.ctrl = true
	req.state = txQueued
	n.txq.Push(req)
	n.noteTxq()
	if n.FR != nil {
		k := flightrec.KGbnAckTx
		if typ == wire.TypeFcNack {
			k = flightrec.KGbnNackTx
		}
		n.FR.Record(k, n.S.Now(), 0, seq, 0)
	}
	n.pumpTx()
}

// pumpTx starts the transmit state machine on the head of the TX pending
// list if it is idle. One message transmits at a time, and stays the head
// of the list until its tx-done handler has run.
func (n *NIC) pumpTx() {
	if n.txBusy || n.txq.Len() == 0 {
		return
	}
	n.txBusy = true
	n.exec(opTxProgram, n.P.FwDMAProgramCycles, handler{})
}

// txThen names the step the transmit state machine takes when the completion
// it waits for — a host read, the header entering the wire — arrives, and
// returns the NIC's one continuation for it.
func (n *NIC) txThen(step func(*NIC)) func() {
	n.txNext = step
	return n.txStepFn
}

// txProgram is the tx-program handler: fetch the header (one HT read —
// control frames skip it, their header is SRAM-resident).
func (n *NIC) txProgram() {
	if req := n.txq.First(); req.ctrl {
		n.txHeaderReady(req, false)
		return
	}
	n.Chip.ReadHost(int64(wire.PacketBytes), 1, n.txThen((*NIC).txHdrFetched))
}

func (n *NIC) txHdrFetched() {
	req := n.txq.First()
	if req.Len <= n.P.InlineDataMax && req.Len > 0 && req.Hdr.HasPayload() {
		// Small-message optimization: the payload rides in the header
		// packet. One more HT read fetches it from main memory.
		n.Chip.ReadHost(int64(req.Len), n.segsInRange(req.Buf, req.Off, req.Len), n.txThen((*NIC).txInlFetched))
		return
	}
	n.txHeaderReady(req, false)
}

func (n *NIC) txInlFetched() { n.txHeaderReady(n.txq.First(), true) }

// txHdrOnWire: a chunkless message is complete once its header is on the wire.
func (n *NIC) txHdrOnWire() { n.txComplete(n.txq.First()) }

// txHeaderReady injects the header packet and, for chunked payloads,
// starts the chunk pipeline. An inline payload is read from host memory
// straight into the message's own header-packet space.
func (n *NIC) txHeaderReady(req *TxReq, inline bool) {
	payloadLen := req.Len
	if inline || !req.Hdr.HasPayload() {
		payloadLen = 0
	}
	m := n.Fab.NewStream(req.Hdr, n.Node, topo.NodeID(req.Hdr.DstNid), payloadLen)
	m.FwSeq = req.seq
	if inline {
		req.Buf.ReadAt(req.Off, m.InlineSpace(req.Len))
	}
	// The attribution record follows the message from here on; moving it
	// (rather than sharing) keeps ownership single even when go-back-n
	// builds a fresh message for a retransmission of the same request.
	m.Rec = req.Rec
	req.Rec = nil
	// The span, by contrast, is copied: a retransmission builds a fresh
	// message from the retained request and must carry the same span.
	m.Span = req.Span
	req.msg = m
	m.Hdr.Encode(n.hdrScratch[:])
	req.crc = crc32.ChecksumIEEE(n.hdrScratch[:])
	req.crc = crc32.Update(req.crc, crc32.IEEETable, m.Inline)
	n.FR.Record(flightrec.KTxHeader, n.S.Now(), req.Span, req.seq, uint32(payloadLen))
	if payloadLen == 0 {
		m.SetCRC(req.crc)
		m.OnInjected = n.txThen((*NIC).txHdrOnWire)
		n.Fab.SendHeader(m)
		return
	}
	n.Fab.SendHeader(m)
	n.txNextChunk(req, 0)
}

// txComplete runs when the message's final packet enters the wire: the
// tx-done handler unlinks it from the TX pending list, posts the
// transmit-complete event (unless go-back-n holds it for the peer's ack),
// and pumps the next message.
func (n *NIC) txComplete(req *TxReq) {
	if n.txq.First() != req {
		panic("fw: tx completion out of order")
	}
	n.exec(opTxDone, n.P.FwTxDoneCycles, handler{})
}

func (n *NIC) txDone() {
	req := n.txq.Pop()
	n.txBusy = false
	n.Stats.MsgsTx++
	switch {
	case req.ctrl:
		req.state = txHost // the firmware's own request: it is its host
		n.RecycleTxReq(req)
	case n.Policy == ExhaustGoBackN:
		n.gbnHoldCompletion(req)
	default:
		n.finishTx(req, true)
	}
	n.pumpTx()
}

// txChunk is one in-flight payload chunk of the transmit pipeline: it waits
// for TX FIFO space, then for its host DMA read, then for the wire, one
// after the other, so the carrier binds one continuation and next says
// which step it runs. It is recycled through the NIC's free list, so the
// per-chunk path allocates nothing.
type txChunk struct {
	n       *NIC
	req     *TxReq
	off, sz int
	last    bool
	next    func(*txChunk)
	fn      func()
}

func (n *NIC) getTxChunk() *txChunk {
	if t := sim.Pop(&n.txcFree); t != nil {
		return t
	}
	t := &txChunk{n: n}
	t.fn = func() { t.next(t) }
	return t
}

func (t *txChunk) then(step func(*txChunk)) func() {
	t.next = step
	return t.fn
}

// txNextChunk runs the payload pipeline: reserve TX FIFO space, DMA-read
// the chunk from host memory (zero-copy: bytes are captured at read time),
// fold it into the running CRC, and inject it. When the FIFO is full the
// state machine yields, exactly as §4.3 describes.
func (n *NIC) txNextChunk(req *TxReq, off int) {
	t := n.getTxChunk()
	t.req = req
	t.off = off
	t.sz = n.P.ChunkBytes
	if off+t.sz > req.Len {
		t.sz = req.Len - off
	}
	t.last = off+t.sz == req.Len
	n.Chip.TxFIFO.Take(int64(t.sz), t.then((*txChunk).granted))
}

func (t *txChunk) granted() {
	n := t.n
	n.Chip.ReadHostStream(int64(t.sz), n.segsInRange(t.req.Buf, t.req.Off+t.off, t.sz), t.then((*txChunk).read))
}

func (t *txChunk) read() {
	n, req := t.n, t.req
	c := n.Fab.AllocChunk(t.sz)
	req.Buf.ReadAt(req.Off+t.off, c.Data)
	req.crc = crc32.Update(req.crc, crc32.IEEETable, c.Data)
	if t.last {
		req.msg.SetCRC(req.crc)
	}
	c.Msg = req.msg
	c.Off = t.off
	c.Last = t.last
	c.OnInjected = t.then((*txChunk).injected)
	n.Fab.SendChunk(c)
	if !t.last {
		n.txNextChunk(req, t.off+t.sz)
	}
}

// injected fires when the chunk's bytes have entered the wire: TX FIFO
// space recycles, and the carrier goes back to the pool (the fabric chunk
// itself lives on until the receiver consumes it).
func (t *txChunk) injected() {
	n, req, sz, last := t.n, t.req, t.sz, t.last
	if n.FR != nil {
		n.FR.Record(flightrec.KChunkTx, n.S.Now(), req.Span, uint32(t.off), uint32(sz))
	}
	t.req = nil
	n.txcFree = append(n.txcFree, t)
	n.Chip.TxFIFO.Put(int64(sz))
	if last {
		n.txComplete(req)
	}
}

// finishTx frees the pending back to the host-managed pool and posts the
// TX_DONE event.
func (n *NIC) finishTx(req *TxReq, ok bool) {
	proc := n.procForPid(req.Pid)
	if req.pending != nil {
		p := req.pending
		p.req = nil
		proc.tx.free = append(proc.tx.free, p)
		req.pending = nil
		if n.FR != nil {
			n.FR.Record(flightrec.KPendFree, n.S.Now(), req.Span, uint32(proc.tx.avail()), 1)
		}
	}
	n.Stats.Completions++
	req.state = txHost
	ev := Event{Kind: EvTxDone, Tx: req, OK: ok}
	if proc.Accel {
		proc.Handle(ev)
		return
	}
	n.postEvent(proc, ev)
}

// segsInRange counts the physically contiguous segments of buf in
// [off, off+n): 1 for Catamount's contiguous memory, the page span for
// Linux. Each segment is a separate DMA transaction.
func (n *NIC) segsInRange(buf Buffer, off, nbytes int) int {
	if buf == nil || nbytes == 0 || buf.Segments() <= 1 {
		return 1
	}
	page := int(n.P.PageBytes)
	return (off+nbytes-1)/page - off/page + 1
}
