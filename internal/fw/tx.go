package fw

import (
	"errors"
	"hash/crc32"

	"portals3/internal/flightrec"
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
	j := n.getTxJob()
	j.req = req
	req.job = j
	proc.command(n.P.FwTxCmdCycles, j.submitFn)
	return nil
}

// txJob carries one transmit request through the per-message stages of the
// TX state machine — mailbox command, header fetch, optional inline payload
// fetch — with the stage callbacks bound once and the carrier recycled in
// txHeaderReady, so a message start allocates nothing.
type txJob struct {
	n        *NIC
	req      *TxReq
	submitFn func() // mailbox command handler: enqueue on the TX FIFO
	startFn  func() // tx-program handler: fetch the header
	hdrFn    func() // header fetched from host memory
	inlFn    func() // inline payload fetched from host memory
}

func (n *NIC) getTxJob() *txJob {
	if k := len(n.txjFree); k > 0 {
		j := n.txjFree[k-1]
		n.txjFree = n.txjFree[:k-1]
		return j
	}
	j := &txJob{n: n}
	j.submitFn = j.submit
	j.startFn = j.start
	j.hdrFn = j.hdrRead
	j.inlFn = j.inlRead
	return j
}

func (j *txJob) submit() {
	n, req := j.n, j.req
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
	n.txq = append(n.txq, req)
	n.noteTxq()
	n.FR.Record(flightrec.KTxSerialize, n.S.Now(), req.Span, req.seq, uint32(req.Len))
	n.pumpTx()
}

func (j *txJob) start() {
	n, req := j.n, j.req
	if req.ctrl {
		n.txHeaderReady(req, nil)
		return
	}
	n.Chip.ReadHost(int64(wire.PacketBytes), 1, j.hdrFn)
}

func (j *txJob) hdrRead() {
	n, req := j.n, j.req
	if req.Len <= n.P.InlineDataMax && req.Len > 0 && req.Hdr.HasPayload() {
		// Small-message optimization: the payload rides in the header
		// packet. One more HT read fetches it from main memory.
		n.Chip.ReadHost(int64(req.Len), n.segsInRange(req.Buf, req.Off, req.Len), j.inlFn)
		return
	}
	n.txHeaderReady(req, nil)
}

func (j *txJob) inlRead() {
	n, req := j.n, j.req
	data := make([]byte, req.Len)
	req.Buf.ReadAt(req.Off, data)
	n.txHeaderReady(req, data)
}

// sendControl transmits a NIC-level flow control frame. Control frames are
// built entirely in firmware — no pending, no host memory reads — but they
// serialize through the same TX queue as everything else (§4.3: "All
// transmits, regardless of destination or process type, are serialized
// through a single TX FIFO").
func (n *NIC) sendControl(dst topo.NodeID, typ wire.MsgType, seq uint32) {
	hdr := wire.Header{
		Type:   typ,
		SrcNid: uint32(n.Node),
		DstNid: uint32(dst),
		Offset: seq,
	}
	n.txq = append(n.txq, &TxReq{Hdr: hdr, ctrl: true})
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
// list if it is idle. One message transmits at a time. The header fetch
// (one HT read — control frames skip it, their header is SRAM-resident)
// and inline payload fetch run as txJob stages.
func (n *NIC) pumpTx() {
	if n.txBusy || n.txqHead == len(n.txq) {
		return
	}
	n.txBusy = true
	req := n.txq[n.txqHead]
	if req.job == nil {
		// Control frames and go-back-n retransmissions arrive without a
		// carrier (theirs was recycled when the first attempt started).
		req.job = n.getTxJob()
		req.job.req = req
	}
	n.exec("tx-program", n.P.FwDMAProgramCycles, req.job.startFn)
}

// txHeaderReady injects the header packet and, for chunked payloads,
// starts the chunk pipeline. The message's txJob carrier is done once the
// header is on its way, so it recycles here.
func (n *NIC) txHeaderReady(req *TxReq, inline []byte) {
	if req.job != nil {
		req.job.req = nil
		n.txjFree = append(n.txjFree, req.job)
		req.job = nil
	}
	payloadLen := req.Len
	if inline != nil {
		payloadLen = 0
	}
	if !req.Hdr.HasPayload() {
		payloadLen = 0
	}
	m := n.Fab.NewStream(req.Hdr, n.Node, topo.NodeID(req.Hdr.DstNid), payloadLen)
	m.FwSeq = req.seq
	if inline != nil {
		m.SetInline(inline)
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
		d := n.getTxDone()
		d.req = req
		m.OnInjected = d.injFn
		n.Fab.SendHeader(m)
		return
	}
	n.Fab.SendHeader(m)
	n.txNextChunk(req, 0)
}

// txDone carries a message's completion through its two deferred steps —
// the wire-entry callback and the tx-done firmware handler — without a
// fresh closure per message.
type txDone struct {
	n      *NIC
	req    *TxReq
	injFn  func() // chunkless message entered the wire
	doneFn func() // tx-done handler body
}

func (n *NIC) getTxDone() *txDone {
	if k := len(n.tdFree); k > 0 {
		d := n.tdFree[k-1]
		n.tdFree = n.tdFree[:k-1]
		return d
	}
	d := &txDone{n: n}
	d.injFn = d.inj
	d.doneFn = d.done
	return d
}

func (d *txDone) inj() {
	n, req := d.n, d.req
	d.req = nil
	n.tdFree = append(n.tdFree, d)
	n.txComplete(req)
}

func (d *txDone) done() {
	n, req := d.n, d.req
	d.req = nil
	n.tdFree = append(n.tdFree, d)
	if n.txqHead == len(n.txq) || n.txq[n.txqHead] != req {
		panic("fw: tx completion out of order")
	}
	n.txq[n.txqHead] = nil
	n.txqHead++
	if n.txqHead == len(n.txq) {
		// Queue drained: rewind so the buffer's capacity is reused.
		n.txq = n.txq[:0]
		n.txqHead = 0
	}
	n.txBusy = false
	n.Stats.MsgsTx++
	if !req.ctrl {
		if n.Policy == ExhaustGoBackN {
			n.gbnHoldCompletion(req)
		} else {
			n.finishTx(req, true)
		}
	}
	n.pumpTx()
}

// txChunk is one in-flight payload chunk of the transmit pipeline. The
// carrier and its stage callbacks are bound once and recycled through the
// NIC's free list, so the per-chunk path allocates nothing.
type txChunk struct {
	n       *NIC
	req     *TxReq
	off, sz int
	last    bool
	takeFn  func() // TX FIFO space granted
	readFn  func() // host DMA read complete
	injFn   func() // chunk entered the wire
}

func (n *NIC) getTxChunk() *txChunk {
	if k := len(n.txcFree); k > 0 {
		t := n.txcFree[k-1]
		n.txcFree = n.txcFree[:k-1]
		return t
	}
	t := &txChunk{n: n}
	t.takeFn = t.take
	t.readFn = t.read
	t.injFn = t.injected
	return t
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
	n.Chip.TxFIFO.Take(int64(t.sz), t.takeFn)
}

func (t *txChunk) take() {
	n := t.n
	n.Chip.ReadHostStream(int64(t.sz), n.segsInRange(t.req.Buf, t.req.Off+t.off, t.sz), t.readFn)
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
	c.OnInjected = t.injFn
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

// txComplete runs when the message's final packet enters the wire: unlink
// from the TX pending list, post the transmit-complete event (unless
// go-back-n holds it for the peer's ack), and pump the next message.
func (n *NIC) txComplete(req *TxReq) {
	d := n.getTxDone()
	d.req = req
	n.exec("tx-done", n.P.FwTxDoneCycles, d.doneFn)
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
