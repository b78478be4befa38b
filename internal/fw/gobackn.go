package fw

import (
	"portals3/internal/fabric"
	"portals3/internal/flightrec"
	"portals3/internal/sim"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// This file implements the go-back-n resource exhaustion recovery protocol
// the paper describes as in-progress work: "We are currently working on a
// simple go-back-n protocol to resolve resource exhaustion gracefully"
// (§4.3). It is enabled by setting NIC.Policy to ExhaustGoBackN and is the
// subject of the A2 ablation in DESIGN.md.
//
// Protocol sketch. Every data message to a peer carries a per-flow sequence
// number (NIC-level framing, invisible to Portals). The receiver accepts
// only the next expected sequence; a successfully received message is
// acknowledged with an FC_ACK frame, and the sender holds its transmit
// pending — and its host's transmit-complete event — until that ack
// arrives, so the host buffer stays valid for retransmission. When the
// receiver must drop a message (pending pool or source pool exhausted, or
// an end-to-end CRC failure), it discards the payload and sends FC_NACK
// with the sequence to resume from; the sender re-enqueues every
// unacknowledged message from that point, in order. A timeout retransmits
// when the ack or nack itself is lost.

// gbnAssignSeq stamps an outgoing data message with the next sequence for
// its destination flow. No-op when the protocol is disabled.
func (n *NIC) gbnAssignSeq(src *source, req *TxReq) {
	if n.Policy != ExhaustGoBackN || req.ctrl {
		return
	}
	src.txSeq++
	req.seq = src.txSeq
}

// gbnAcceptRx filters an incoming data message against the flow's expected
// sequence. It reports whether processing should continue; a rejected
// message has already been NACKed/re-ACKed and condemned.
func (n *NIC) gbnAcceptRx(src *source, m *fabric.Message) bool {
	if m.FwSeq == 0 {
		// Peer runs without the protocol (mixed configuration): accept.
		return true
	}
	// A fresh source structure seeing a mid-flow sequence (rxSeq == 0,
	// FwSeq > 1) is a gap like any other: sources are never evicted, so a
	// never-established source means nothing from this peer was ever
	// accepted — and therefore never acknowledged. The sender still holds
	// every unacked message, and the rewind to 1 is always satisfiable.
	// (Adopting the peer's position instead would silently skip a dropped
	// first message.)
	expected := src.rxSeq + 1
	switch {
	case m.FwSeq == expected:
		// In sequence. The caller advances with gbnAdvance only once the
		// message has a pending — an exhausted message must remain
		// "expected" so its retransmission is accepted.
		return true
	case m.FwSeq < expected:
		// Duplicate of something already delivered: re-ack and discard so
		// the sender releases it.
		n.Stats.NacksSent++ // counted as control traffic
		n.Stats.DupAcks++
		n.sendControl(src.nid, wire.TypeFcAck, src.rxSeq)
		n.condemn(m)
		return false
	default:
		// Gap: an earlier message was dropped. Demand a rewind.
		n.Stats.NacksSent++
		n.sendControl(src.nid, wire.TypeFcNack, expected)
		n.condemn(m)
		return false
	}
}

// gbnAdvance commits an accepted message: the receive sequence advances as
// soon as resources are committed, not at completion — the next header from
// this source can arrive while this message's payload is still in flight,
// and must not read as a gap.
func (n *NIC) gbnAdvance(src *source, m *fabric.Message) {
	if n.Policy != ExhaustGoBackN || m.FwSeq == 0 {
		return
	}
	src.rxSeq = m.FwSeq
	n.Fab.FaultAccepted(m)
}

// nackAndDiscard handles exhaustion under go-back-n: drop the message's
// payload and tell the sender to resume from it.
func (n *NIC) nackAndDiscard(m *fabric.Message) {
	n.Stats.NacksSent++
	n.Stats.Discards++
	seq := m.FwSeq
	if seq == 0 {
		seq = 1
	}
	n.sendControl(topo.NodeID(m.Hdr.SrcNid), wire.TypeFcNack, seq)
	n.condemn(m)
}

// gbnDataReceived runs when a data message has been fully received (per
// source, completions are in order): acknowledge it cumulatively so the
// sender releases its copy. A CRC-failed message is acknowledged too — it
// was delivered to the host flagged NI_FAIL, the Portals semantics for a
// corrupted arrival; retransmitting it is impossible once the host has
// matched the header (the retransmission would match and deposit a second
// time). Go-back-n recovery is for pre-host drops: exhaustion and
// sequence gaps.
func (n *NIC) gbnDataReceived(p *Pending, ok bool) {
	if n.Policy != ExhaustGoBackN || p.msg.FwSeq == 0 {
		return
	}
	src := n.sources[topo.NodeID(p.Hdr.SrcNid)]
	if src == nil {
		return
	}
	n.sendControl(src.nid, wire.TypeFcAck, p.msg.FwSeq)
}

// gbnHoldCompletion parks a fully transmitted message on the flow's
// unacked list instead of completing it; the host's transmit-complete event
// waits for the peer's ack.
func (n *NIC) gbnHoldCompletion(req *TxReq) {
	src := n.sources[topo.NodeID(req.Hdr.DstNid)]
	if src == nil {
		n.finishTx(req, true)
		return
	}
	if req.seq != 0 && req.seq <= src.ackedSeq {
		// The peer's cumulative ack already covers this sequence: its ack
		// crossed our still-running chunk pipeline. Complete immediately —
		// parking it would strand it (nothing further acks an old sequence).
		n.finishTx(req, true)
		return
	}
	req.state = txHeld
	src.unacked = append(src.unacked, req)
	n.gbnArmTimer(src)
}

// handleFlowControl processes FC_ACK and FC_NACK frames in firmware. The
// lookup must not allocate: an ack or nack only ever follows our own
// transmission, which already established the source structure. Allocating
// here would let pure control traffic from an unknown peer drain the global
// source pool — control frames causing the very exhaustion the protocol
// exists to resolve.
func (n *NIC) handleFlowControl(m *fabric.Message) {
	if n.FR != nil {
		k := flightrec.KGbnAckRx
		if m.Hdr.Type == wire.TypeFcNack {
			k = flightrec.KGbnNackRx
		}
		n.FR.Record(k, n.S.Now(), 0, m.Hdr.Offset, 0)
	}
	src := n.sources[topo.NodeID(m.Hdr.SrcNid)]
	if src == nil {
		return // no state, nothing to release or rewind
	}
	seq := m.Hdr.Offset
	switch m.Hdr.Type {
	case wire.TypeFcAck:
		src.lastAck = n.S.Now()
		if seq > src.ackedSeq {
			src.ackedSeq = seq
		}
		kept := src.unacked[:0]
		for _, req := range src.unacked {
			if req.seq <= seq {
				n.finishTx(req, true)
			} else {
				kept = append(kept, req)
			}
		}
		clear(src.unacked[len(kept):])
		src.unacked = kept
	case wire.TypeFcNack:
		n.Stats.NacksRcvd++
		src.lastAck = n.S.Now()
		resend := n.gbnResend[:0]
		kept := src.unacked[:0]
		for _, req := range src.unacked {
			if req.seq >= seq {
				resend = append(resend, req)
			} else {
				kept = append(kept, req)
			}
		}
		clear(src.unacked[len(kept):])
		src.unacked = kept
		n.gbnRequeue(resend)
		clear(resend)
		n.gbnResend = resend[:0]
	}
}

// gbnRequeue schedules retransmissions, preserving sequence order and the
// single-TX-FIFO serialization. Requeued messages go behind an in-flight
// transmission but ahead of everything not yet started. resend is only read.
func (n *NIC) gbnRequeue(resend []*TxReq) {
	if len(resend) == 0 {
		return
	}
	n.Stats.Retransmits += uint64(len(resend))
	for _, req := range resend {
		req.state = txQueued
		n.FR.Record(flightrec.KGbnRewind, n.S.Now(), req.Span, req.seq, 0)
	}
	insert := 0
	if n.txBusy {
		insert = 1
	}
	n.txq.Insert(insert, resend...)
	n.noteTxq()
	n.pumpTx()
}

// gbnTimer is one armed retransmission timer: the flow and when it was armed.
type gbnTimer struct {
	src     *source
	armedAt sim.Time
}

// gbnArmTimer starts (or keeps) the per-flow retransmission timer. Every
// timer waits the same GbnTimeout, so they expire in the order they were
// armed: each is an entry of n.gbnTimers, and the one continuation the NIC
// binds (with its first timer — a NIC without the protocol binds none)
// expires the head.
func (n *NIC) gbnArmTimer(src *source) {
	if src.timerArmed {
		return
	}
	src.timerArmed = true
	if n.gbnTimerFn == nil {
		n.gbnTimerFn = n.gbnTimerExpired
	}
	n.gbnTimers.Push(gbnTimer{src: src, armedAt: n.S.Now()})
	n.S.After(n.P.GbnTimeout, n.gbnTimerFn)
}

func (n *NIC) gbnTimerExpired() {
	t := n.gbnTimers.Pop()
	src := t.src
	src.timerArmed = false
	if len(src.unacked) == 0 {
		return
	}
	if src.lastAck > t.armedAt {
		// The peer spoke since we armed; give it another period.
		n.gbnArmTimer(src)
		return
	}
	n.Stats.GbnTimeouts++
	n.FR.Record(flightrec.KGbnTimeout, n.S.Now(), 0, uint32(len(src.unacked)), 0)
	n.gbnRequeue(src.unacked)
	clear(src.unacked)
	src.unacked = src.unacked[:0]
	n.gbnArmTimer(src)
}
