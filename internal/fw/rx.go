package fw

import (
	"hash/crc32"

	"portals3/internal/fabric"
	"portals3/internal/flightrec"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// headerCRC starts the receive-side end-to-end check: CRC over the encoded
// header plus any inline payload. Payload chunks extend it in arrival
// order, which matches sender order because delivery is in-order.
func (n *NIC) headerCRC(m *fabric.Message) uint32 {
	m.Hdr.Encode(n.hdrScratch[:])
	c := crc32.ChecksumIEEE(n.hdrScratch[:])
	return crc32.Update(c, crc32.IEEETable, m.Inline)
}

// getStub returns a stream stub for chunks racing ahead of the header
// handler; stubs recycle once the real pending adopts their state.
func (n *NIC) getStub(m *fabric.Message) *Pending {
	if s := sim.Pop(&n.stubFree); s != nil {
		s.msg = m
		return s
	}
	s := &Pending{msg: m}
	s.queued = s.queued1[:0]
	return s
}

func (n *NIC) putStub(s *Pending) {
	s.msg = nil
	s.dropQueued()
	s.arrived = 0
	n.stubFree = append(n.stubFree, s)
}

// HeaderArrived implements fabric.Endpoint. It runs at hardware time: the
// RX DMA engine has recognized a new message start (§2); a stub stream is
// registered immediately so payload chunks demultiplex correctly while the
// PowerPC works through its handler queue, then the header handler is
// dispatched.
func (n *NIC) HeaderArrived(m *fabric.Message) {
	if n.killed {
		// A panicked node blackholes arriving traffic: return the FIFO
		// credits and discard the payload so the rest of the machine is
		// not wedged by a dead peer's buffers.
		n.condemn(m)
		n.Chip.RxFIFO.Put(int64(n.P.PacketBytes))
		return
	}
	if m.PayloadLen > 0 {
		n.streams[m.ID] = n.getStub(m)
		n.noteStreams()
	}
	n.exec(opRxHeader, n.P.FwRxHdrCycles, handler{msg: m})
}

// handleHeader is the firmware's new-message handler (§4.3): source lookup
// or allocation, pending allocation from the target process's RX free list,
// header push to the upper pending in host memory, and event delivery.
func (n *NIC) handleHeader(m *fabric.Message) {
	n.Stats.HeadersRx++
	hdrCredits := int64(n.P.PacketBytes)

	// NIC-level flow control frames never touch pendings or the host.
	if m.Hdr.Type == wire.TypeFcAck || m.Hdr.Type == wire.TypeFcNack {
		n.handleFlowControl(m)
		n.Chip.RxFIFO.Put(hdrCredits)
		n.Fab.RecycleMsg(m)
		return
	}

	src := n.allocSource(topo.NodeID(m.Hdr.SrcNid))
	if src == nil {
		if n.exhaust(m, "source pool empty", flightrec.ExhaustSources) {
			n.Chip.RxFIFO.Put(hdrCredits)
		}
		return
	}
	if n.Policy == ExhaustGoBackN && !n.gbnAcceptRx(src, m) {
		// Out-of-sequence under go-back-n: already NACKed, discard.
		n.Chip.RxFIFO.Put(hdrCredits)
		return
	}
	proc := n.procForPid(m.Hdr.DstPid)
	if proc == nil {
		// No process registered for this pid: silently discard, like a
		// message to a dead pid on the real machine.
		n.Stats.Discards++
		n.condemn(m)
		n.Chip.RxFIFO.Put(hdrCredits)
		return
	}
	if proc.rx.avail() == 0 {
		if n.exhaust(m, "rx pending pool empty", flightrec.ExhaustRxPending) {
			n.Chip.RxFIFO.Put(hdrCredits)
		}
		return
	}
	p := proc.rx.take(proc, false)
	n.moved++
	n.FR.Record(flightrec.KPendAlloc, n.S.Now(), m.Span, uint32(proc.rx.avail()), 0)
	n.gbnAdvance(src, m)
	n.FR.Record(flightrec.KRxHeader, n.S.Now(), m.Span, m.FwSeq, uint32(m.PayloadLen))
	p.reset()
	p.proc = proc
	p.msg = m
	p.Hdr = m.Hdr
	p.Inline = m.Inline
	p.crc = n.headerCRC(m)
	if stub, ok := n.streams[m.ID]; ok && stub != p {
		// Adopt chunks that raced ahead of this handler.
		p.queued = append(p.queued, stub.queued...)
		p.arrived = stub.arrived
		n.putStub(stub)
	}
	if m.PayloadLen > 0 {
		n.streams[m.ID] = p
		n.noteStreams()
	}

	if m.PayloadLen == 0 {
		// Whole message fit in the header packet (≤12 B inline, a bare
		// get/ack, or a zero-length put): deliver header and completion
		// together — the small-message optimization that saves an
		// interrupt (§6).
		ok := p.crc == m.CRC
		if !ok {
			n.Stats.CrcFails++
			n.FR.Record(flightrec.KCrcFail, n.S.Now(), m.Span, m.FwSeq, 0)
		}
		if len(m.Inline) > 0 {
			n.Stats.InlineRx++
		}
		n.gbnDataReceived(p, ok)
		if n.FR != nil {
			okA := uint32(0)
			if ok {
				okA = 1
			}
			n.FR.Record(flightrec.KRxDone, n.S.Now(), m.Span, okA, 0)
		}
		ev := Event{Kind: EvNewHeader, Pending: p, OK: ok}
		if proc.Accel {
			n.Chip.RxFIFO.Put(hdrCredits)
			proc.Handle(ev)
			return
		}
		n.Stats.EventsPosted++
		if n.FR != nil {
			n.FR.Record(flightrec.KEvPost, n.S.Now(), m.Span, uint32(EvNewHeader), 0)
		}
		// Header and completion push to the host begins: the event-post
		// attribution boundary for messages that fit the header packet.
		m.Rec.Stamp(telemetry.StampEvPost, n.S.Now())
		j := n.getEvPost()
		j.p = proc
		j.ev = ev
		j.credits = hdrCredits
		n.Chip.WriteHost(int64(wire.HeaderBytes+len(m.Inline)+fwEventBytes), j.fn)
		return
	}

	// Payload follows: hand the header to the Portals processing (host in
	// generic mode, right here in accelerated mode) and keep streaming
	// chunks into the RX FIFO meanwhile.
	ev := Event{Kind: EvNewHeader, Pending: p, OK: true}
	if proc.Accel {
		n.Chip.RxFIFO.Put(hdrCredits)
		proc.Handle(ev)
		return
	}
	n.Stats.EventsPosted++
	if n.FR != nil {
		n.FR.Record(flightrec.KEvPost, n.S.Now(), m.Span, uint32(EvNewHeader), 0)
	}
	j := n.getEvPost()
	j.p = proc
	j.ev = ev
	j.credits = hdrCredits
	n.Chip.WriteHost(int64(wire.HeaderBytes+fwEventBytes), j.fn)
}

// condemn marks a message's remaining payload for silent discard.
func (n *NIC) condemn(m *fabric.Message) {
	n.Fab.FaultCondemned(m)
	stub, ok := n.streams[m.ID]
	delete(n.streams, m.ID)
	remaining := m.PayloadLen
	if ok {
		for _, c := range stub.queued {
			remaining -= len(c.Data)
			n.Chip.RxFIFO.Put(int64(len(c.Data)))
			n.Fab.RecycleChunk(c)
		}
		// condemn always runs before a pending was adopted, so the stream
		// entry is a stub from HeaderArrived.
		n.putStub(stub)
	}
	if remaining > 0 {
		n.dead[m.ID] = remaining
	}
}

// ChunkArrived implements fabric.Endpoint: payload bytes land in the RX
// FIFO. The RX DMA engine demultiplexes interleaved streams without PowerPC
// involvement (§4.3), so no handler cycles are charged here.
func (n *NIC) ChunkArrived(c *fabric.Chunk) {
	if left, dead := n.dead[c.Msg.ID]; dead {
		n.Chip.RxFIFO.Put(int64(len(c.Data)))
		left -= len(c.Data)
		if left <= 0 {
			delete(n.dead, c.Msg.ID)
		} else {
			n.dead[c.Msg.ID] = left
		}
		n.Fab.RecycleChunk(c)
		return
	}
	p, ok := n.streams[c.Msg.ID]
	if !ok {
		// A stream can only be unknown if it was condemned and fully
		// drained, which contradicts more chunks arriving.
		panic("fw: chunk for unknown stream")
	}
	p.arrived += len(c.Data)
	if n.FR != nil {
		n.FR.Record(flightrec.KChunkRx, n.S.Now(), c.Msg.Span, uint32(c.Off), uint32(len(c.Data)))
	}
	if p.programmed || p.discardAll {
		n.consumeChunk(p, c)
		return
	}
	p.queued = append(p.queued, c)
}

// rxDeposit is one in-flight host deposit of a received chunk. Like the TX
// side's txChunk, the carrier and its completion callback are bound once
// and recycled, keeping the receive data path allocation-free.
type rxDeposit struct {
	n          *NIC
	p          *Pending
	c          *fabric.Chunk
	depositLen int
	writeFn    func()
}

func (n *NIC) getDeposit() *rxDeposit {
	if d := sim.Pop(&n.depFree); d != nil {
		return d
	}
	d := &rxDeposit{n: n}
	d.writeFn = d.write
	return d
}

// write runs when the HyperTransport write completes: deposit the bytes,
// return FIFO credits, recycle the chunk and the carrier.
func (d *rxDeposit) write() {
	n, p, c, dl := d.n, d.p, d.c, d.depositLen
	d.p, d.c = nil, nil
	n.depFree = append(n.depFree, d)
	p.buf.WriteAt(p.bufOff+c.Off, c.Data[:dl])
	n.Chip.RxFIFO.Put(int64(len(c.Data)))
	p.consumed += len(c.Data)
	n.Fab.RecycleChunk(c)
	n.checkRxComplete(p)
}

// consumeChunk moves one arrived chunk out of the RX FIFO: the prefix
// within the host's manipulated length crosses HyperTransport into the
// target buffer; the rest (truncation) is discarded on the spot.
func (n *NIC) consumeChunk(p *Pending, c *fabric.Chunk) {
	n.moved++
	p.crc = crc32.Update(p.crc, crc32.IEEETable, c.Data)
	depositLen := 0
	if !p.discardAll {
		if c.Off < p.mlen {
			depositLen = p.mlen - c.Off
			if depositLen > len(c.Data) {
				depositLen = len(c.Data)
			}
		}
	}
	if depositLen > 0 {
		d := n.getDeposit()
		d.p = p
		d.c = c
		d.depositLen = depositLen
		segs := n.segsInRange(p.buf, p.bufOff+c.Off, depositLen)
		n.Chip.WriteHostStream(int64(depositLen), segs, d.writeFn)
		return
	}
	n.Chip.RxFIFO.Put(int64(len(c.Data)))
	p.consumed += len(c.Data)
	n.Fab.RecycleChunk(c)
	n.checkRxComplete(p)
}

// checkRxComplete finishes a receive once every payload byte has been
// deposited or discarded: CRC verdict, completion event (generic: one more
// interrupt — the second one the paper counts for long messages, §6), or
// silent release for discards.
func (n *NIC) checkRxComplete(p *Pending) {
	if p.consumed < p.msg.PayloadLen {
		return
	}
	delete(n.streams, p.msg.ID)
	if p.discardAll {
		// No completion event for discards. The host already released the
		// pending (the pool hands out fresh structures, so this one keeps
		// draining safely); nothing further to do.
		n.Stats.Discards++
		return
	}
	ok := p.crc == p.msg.CRC
	if !ok {
		n.Stats.CrcFails++
		n.FR.Record(flightrec.KCrcFail, n.S.Now(), p.msg.Span, p.msg.FwSeq, 0)
	}
	n.gbnDataReceived(p, ok)
	if n.FR != nil {
		okA := uint32(0)
		if ok {
			okA = 1
		}
		n.FR.Record(flightrec.KRxDone, n.S.Now(), p.msg.Span, okA, 0)
	}
	n.exec(opRxDone, n.P.FwRxDoneCycles, handler{pend: p, ok: ok})
}

// SubmitRx is the host's receive command (§4.3): after Portals matching,
// the host tells the firmware where the message's payload belongs — the
// pending id, the target buffer, and how many bytes to accept (the rest is
// implicitly discarded). ctx is the driver's own handle for the receive,
// kept on the pending for its completion handling (Ctx); the firmware never
// looks at it.
func (p *Pending) SubmitRx(buf Buffer, bufOff, mlen int, ctx any) {
	n := p.proc.nic
	p.stage(buf, bufOff, mlen, ctx)
	p.proc.command(mboxCmd{op: cmdRxProgram, cycles: n.P.FwRxCmdCycles + n.P.FwDMAProgramCycles, pend: p})
}

// stage parks a receive command's arguments on the pending until its
// mailbox/handler cycles have been charged and program applies them:
// nothing reads them before programmed is set.
func (p *Pending) stage(buf Buffer, bufOff, mlen int, ctx any) {
	p.buf = buf
	p.bufOff = bufOff
	p.mlen = mlen
	p.ctx = ctx
}

func (p *Pending) program() {
	p.programmed = true
	p.proc.nic.drainQueued(p)
}

func (p *Pending) discard() {
	p.discardAll = true
	p.proc.nic.drainQueued(p)
}

// ProgramRx is the NIC-local equivalent of SubmitRx, used by accelerated
// mode: the firmware matched the header itself, so the receive DMA engine
// can be programmed immediately — no mailbox, no HyperTransport round trip
// ("arriving messages to be immediately processed, rather than waiting for
// the host", §3.3).
func (p *Pending) ProgramRx(buf Buffer, bufOff, mlen int, ctx any) {
	n := p.proc.nic
	p.stage(buf, bufOff, mlen, ctx)
	n.exec(opRxProgramLocal, n.P.FwDMAProgramCycles, handler{pend: p})
}

// DiscardLocal is the NIC-local equivalent of Discard.
func (p *Pending) DiscardLocal() {
	n := p.proc.nic
	n.exec(opRxDiscardLocal, n.P.FwRxCmdCycles, handler{pend: p})
}

// ReleaseLocal is the NIC-local equivalent of Release.
func (p *Pending) ReleaseLocal() {
	n := p.proc.nic
	n.exec(opReleaseLocal, n.P.FwReleaseCycles, handler{pend: p})
}

// Discard is the host's "drop this message" command: every payload byte is
// consumed from the FIFO and thrown away, with no completion event. The
// host follows up with Release; the discard stream finishes draining on its
// own.
func (p *Pending) Discard() {
	p.proc.command(mboxCmd{op: cmdRxDiscard, cycles: p.proc.nic.P.FwRxCmdCycles, pend: p})
}

// Release is the host's release-pending command (§4.3), returning the
// pending to the firmware's free list once the host is done with the upper
// pending contents.
func (p *Pending) Release() {
	p.proc.command(mboxCmd{op: cmdRelease, cycles: p.proc.nic.P.FwReleaseCycles, pend: p})
}

// drainQueued consumes chunks that arrived before the host's command, then
// handles the degenerate already-complete cases.
func (n *NIC) drainQueued(p *Pending) {
	queued := len(p.queued)
	for _, c := range p.queued {
		n.consumeChunk(p, c)
	}
	p.dropQueued()
	if queued == 0 && p.consumed >= p.msg.PayloadLen {
		n.checkRxComplete(p)
	}
}

// dropQueued empties the early-chunk queue, keeping its backing array: a
// message whose chunks beat the host's command would otherwise regrow it
// from nothing every time.
func (p *Pending) dropQueued() {
	clear(p.queued)
	p.queued = p.queued[:0]
}

// freeRx returns a pending to its process pool. The released structure
// itself is reused (adoption resets it) unless its discarded stream is
// still draining, in which case the pool gets a fresh structure and the old
// one keeps consuming safely.
func (n *NIC) freeRx(p *Pending) {
	if p.released {
		panic("fw: double release of rx pending")
	}
	p.released = true
	proc := p.proc
	if n.FR != nil {
		// Both exits below return exactly one pending to the pool.
		var span uint64
		if p.msg != nil {
			span = p.msg.Span
		}
		n.FR.Record(flightrec.KPendFree, n.S.Now(), span, uint32(proc.rx.avail()+1), 0)
	}
	if p.msg != nil && p.consumed < p.msg.PayloadLen {
		proc.rx.fresh++
		return
	}
	if p.msg != nil {
		// Fully consumed and released: the message's life is over on both
		// ends of the wire.
		proc.nic.Fab.RecycleMsg(p.msg)
	}
	p.msg = nil
	p.Inline = nil
	p.ctx = nil
	proc.rx.free = append(proc.rx.free, p)
}

// reset clears receive state for reuse.
func (p *Pending) reset() {
	p.dropQueued()
	p.arrived = 0
	p.consumed = 0
	p.crc = 0
	p.programmed = false
	p.discardAll = false
	p.buf = nil
	p.bufOff = 0
	p.mlen = 0
	p.ctx = nil
	p.released = false
}

// Complete reports whether the message arrived entirely in its header
// packet (inline data or no payload): header and completion delivered
// together, no receive command needed.
func (p *Pending) Complete() bool { return p.msg.PayloadLen == 0 }

// PayloadLen reports the chunked payload size of the pending's message.
func (p *Pending) PayloadLen() int { return p.msg.PayloadLen }

// Ctx returns the driver's handle stored by SubmitRx or ProgramRx (nil when
// the message needed no receive command).
func (p *Pending) Ctx() any { return p.ctx }

// TakeRec detaches and returns the latency-attribution record of the
// pending's message, or nil. The caller (the NAL driver, at app delivery)
// becomes the owner and must finish or drop it; detaching here keeps
// RecycleMsg from reclaiming a record that was already consumed.
func (p *Pending) TakeRec() *telemetry.MsgRec {
	if p.msg == nil || p.msg.Rec == nil {
		return nil
	}
	r := p.msg.Rec
	p.msg.Rec = nil
	return r
}

// cmdOp names a mailbox command.
type cmdOp uint8

const (
	cmdTx        cmdOp = iota // transmit req
	cmdRxProgram              // program the receive staged on pend
	cmdRxDiscard              // discard pend's payload
	cmdRelease                // release pend
	cmdQuery                  // run fn (QueryStats)
)

// mboxCmd is one command record in a process's mailbox: what to do, to
// which request or pending, and what the firmware handler costs.
type mboxCmd struct {
	op     cmdOp
	cycles int64
	req    *TxReq
	pend   *Pending
	fn     func()
}

// command posts one mailbox command from the host: it takes a command FIFO
// slot (backpressuring the host when full), models the posted-write latency
// across HyperTransport, then runs as a firmware handler of the command's
// cycle cost. The slot frees when the firmware pops the command. Slot
// grants, posted writes and the PowerPC all serve in order, so the command
// waits as an entry of p.cmds the whole way and the process's two bound
// continuations (and the NIC's dispatch) move the head along.
func (p *Process) command(c mboxCmd) {
	p.cmds.Push(c)
	p.cmdSlots.Take(1, p.grantedFn)
}

func (p *Process) cmdGranted() {
	n := p.nic
	n.S.After(n.P.HTWriteLatency, p.postedFn)
}

func (p *Process) cmdPosted() {
	c := p.cmds.At(p.posted)
	p.posted++
	p.nic.exec(opMailbox, c.cycles, handler{proc: p})
}

// runCmd is the mailbox-cmd firmware handler: pop the head command and do it.
func (p *Process) runCmd() {
	c := p.cmds.Pop()
	p.posted--
	n := p.nic
	if n.FR != nil {
		n.FR.Record(flightrec.KCmdDequeue, n.S.Now(), 0, uint32(p.ID), 0)
	}
	p.cmdSlots.Put(1)
	switch c.op {
	case cmdTx:
		n.txSubmit(c.req)
	case cmdRxProgram:
		c.pend.program()
	case cmdRxDiscard:
		c.pend.discard()
	case cmdRelease:
		n.freeRx(c.pend)
	case cmdQuery:
		c.fn()
	}
}

// QueryStats is a synchronous mailbox command: the host posts it to the
// command FIFO and busy-waits until the firmware writes the answer to the
// result FIFO ("If the command returns a result, the host busy-waits until
// the firmware posts the result", §4.1). It returns a snapshot of the
// firmware counters — what a service poll reads from the control block.
func (p *Process) QueryStats(caller *sim.Proc) Stats {
	n := p.nic
	var out Stats
	got := false
	var sig sim.Signal
	p.command(mboxCmd{op: cmdQuery, cycles: n.P.FwReleaseCycles, fn: func() {
		out = n.Stats
		out.HeadersRx = n.Stats.HeadersRx // snapshot under the handler
		// The result crosses back to host memory as one posted write.
		n.Chip.WriteHost(fwEventBytes, func() {
			got = true
			sig.Raise()
		})
	}})
	for !got {
		sig.Wait(caller)
	}
	return out
}
