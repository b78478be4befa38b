package fw

import (
	"bytes"
	"testing"

	"portals3/internal/fabric"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/wire"
)

// These tests drive the go-back-n paths that only real frame loss reaches:
// the retransmission timeout (control frame lost), the sender-side timer
// recovery when the NACK itself is lost, and duplicate suppression. Loss is
// declared in Params.Faults and injected by the fabric's fault planes, so
// every run is seeded and replayable.

// lossyPair is a go-back-n pair whose fabric applies the given fault rules.
func lossyPair(t *testing.T, rules ...model.FaultRule) *fwPair {
	p := model.Defaults()
	p.Faults = rules
	return newFwPair(t, p, 64, ExhaustGoBackN)
}

// ledger is the pair's fault ledger, summed over both nodes' planes.
func (fp *fwPair) ledger() fabric.FaultStats {
	fs, _ := fp.fab.FaultSnapshot()
	return fs
}

// TestFlowControlFromUnknownPeerAllocatesNoSource is the regression test
// for the handleFlowControl allocation bug: an inbound FC frame from a peer
// with no established source structure must not consume a source-pool slot
// (control traffic must never be able to cause the exhaustion it exists to
// resolve).
func TestFlowControlFromUnknownPeerAllocatesNoSource(t *testing.T) {
	p := model.Defaults()
	fp := newFwPair(t, p, 64, ExhaustGoBackN)
	// Node 0 has never exchanged data with node 1: node 1 holds no source
	// for it. A stray FC_ACK (e.g. after the receiver rebooted mid-flow)
	// must be ignored without touching the pool.
	fp.nics[0].sendControl(1, wire.TypeFcAck, 3)
	fp.nics[0].sendControl(1, wire.TypeFcNack, 1)
	fp.s.Run()
	if got := fp.nics[1].SourceCount(); got != 0 {
		t.Errorf("inbound FC frames allocated %d source structures", got)
	}
	if free := fp.nics[1].SourcesFree(); free != p.NumSources {
		t.Errorf("source pool drained to %d of %d by pure control traffic", free, p.NumSources)
	}
	// Normal traffic still flows afterwards.
	payload := bytes.Repeat([]byte{0x5a}, 4096)
	if err := fp.put(0, 1, payload, nil); err != nil {
		t.Fatal(err)
	}
	fp.s.Run()
	if h := fp.host[1]; len(h.recv) != 1 || !bytes.Equal(h.recv[0], payload) {
		t.Fatalf("put after stray control frames: received %d messages", len(fp.host[1].recv))
	}
}

// TestGbnAckLostTimeoutRetransmits: the receiver's FC_ACK is dropped, the
// sender's GbnTimeout fires and retransmits, and the receiver accepts the
// retransmission exactly once (the duplicate is re-acked and condemned).
func TestGbnAckLostTimeoutRetransmits(t *testing.T) {
	fp := lossyPair(t, model.NewFault(model.FaultDrop, model.FrameFcAck, 1).WithCount(1))

	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	if err := fp.put(0, 1, payload, nil); err != nil {
		t.Fatal(err)
	}
	fp.s.Run()
	defer fp.conserved(t, func() { fp.put(0, 1, payload, nil) })

	h := fp.host[1]
	if len(h.recv) != 1 {
		t.Fatalf("delivered %d times, want exactly once", len(h.recv))
	}
	if !bytes.Equal(h.recv[0], payload) {
		t.Error("payload corrupted across the retransmission")
	}
	if fp.host[0].txDone != 1 {
		t.Errorf("sender TX_DONE count = %d", fp.host[0].txDone)
	}
	if fp.nics[0].Stats.GbnTimeouts == 0 {
		t.Error("ack loss did not fire the go-back-n timer")
	}
	if fp.nics[0].Stats.Retransmits != 1 {
		t.Errorf("Retransmits = %d, want 1", fp.nics[0].Stats.Retransmits)
	}
	if fp.nics[1].Stats.DupAcks != 1 {
		t.Errorf("DupAcks = %d: the retransmission must be re-acked as a duplicate", fp.nics[1].Stats.DupAcks)
	}
	fs := fp.ledger()
	if fs.DropsFcAck != 1 || fs.Open() != 0 {
		t.Errorf("ledger: %v", fs)
	}
}

// TestGbnNackLostTimerRecovers: a data frame is dropped, and the FC_NACK
// demanding its rewind is dropped too. The sender's timer alone must
// recover the flow, in order.
func TestGbnNackLostTimerRecovers(t *testing.T) {
	fp := lossyPair(t,
		model.NewFault(model.FaultDrop, model.FrameData, 1).WithCount(1),
		model.NewFault(model.FaultDrop, model.FrameFcNack, 1).WithCount(1))

	first := bytes.Repeat([]byte{0xa1}, 2048)
	second := bytes.Repeat([]byte{0xb2}, 2048)
	if err := fp.put(0, 1, first, nil); err != nil {
		t.Fatal(err)
	}
	if err := fp.put(0, 1, second, nil); err != nil {
		t.Fatal(err)
	}
	fp.s.Run()
	defer fp.conserved(t, func() { fp.put(0, 1, first, nil); fp.put(0, 1, second, nil) })

	h := fp.host[1]
	if len(h.recv) != 2 {
		t.Fatalf("delivered %d of 2 with data and NACK both lost", len(h.recv))
	}
	if !bytes.Equal(h.recv[0], first) || !bytes.Equal(h.recv[1], second) {
		t.Error("messages corrupted or reordered across timer recovery")
	}
	if fp.host[0].txDone != 2 {
		t.Errorf("sender TX_DONE count = %d", fp.host[0].txDone)
	}
	if fp.nics[0].Stats.GbnTimeouts == 0 {
		t.Error("lost NACK did not leave recovery to the timer")
	}
	if fp.nics[0].Stats.NacksRcvd != 0 {
		t.Errorf("NacksRcvd = %d, but the only NACK was dropped", fp.nics[0].Stats.NacksRcvd)
	}
	if fp.nics[1].Stats.NacksSent == 0 {
		t.Error("the sequence gap should have produced a NACK (even though it was then dropped)")
	}
	if fp.nics[0].Stats.Retransmits < 2 {
		t.Errorf("Retransmits = %d, want both unacked messages resent", fp.nics[0].Stats.Retransmits)
	}
	fs := fp.ledger()
	if fs.DropsData != 1 || fs.DropsFcNack != 1 || fs.Open() != 0 {
		t.Errorf("ledger: %v", fs)
	}
}

// TestGbnDuplicateDataCondemned: a duplicated data frame is re-acked and
// condemned without a second deposit — the receiver's payload bytes and
// completion count are those of a single delivery.
func TestGbnDuplicateDataCondemned(t *testing.T) {
	fp := lossyPair(t, model.NewFault(model.FaultDup, model.FrameData, 1).WithCount(1))

	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i * 29)
	}
	if err := fp.put(0, 1, payload, nil); err != nil {
		t.Fatal(err)
	}
	fp.s.Run()
	defer fp.conserved(t, func() { fp.put(0, 1, payload, nil) })

	h := fp.host[1]
	if len(h.recv) != 1 {
		t.Fatalf("duplicate deposited %d times, want exactly once", len(h.recv))
	}
	if !bytes.Equal(h.recv[0], payload) {
		t.Error("payload corrupted")
	}
	if fp.host[0].txDone != 1 {
		t.Errorf("sender TX_DONE count = %d", fp.host[0].txDone)
	}
	if fp.nics[1].Stats.DupAcks != 1 {
		t.Errorf("DupAcks = %d, want the copy re-acked", fp.nics[1].Stats.DupAcks)
	}
	fs := fp.ledger()
	if fs.Dups != 1 || fs.Condemned != 1 || fs.Open() != 0 {
		t.Errorf("ledger: %v", fs)
	}
}

// TestGbnDelayedMessageRecovered: a delayed message reorders across flows
// but stays in order within its flow; the ledger closes at delivery.
func TestGbnDelayedMessageRecovered(t *testing.T) {
	fp := lossyPair(t, model.NewFault(model.FaultDelay, model.FrameData, 1).
		WithCount(1).WithDelay(20*sim.Microsecond))

	payload := bytes.Repeat([]byte{0xc3}, 4096)
	if err := fp.put(0, 1, payload, nil); err != nil {
		t.Fatal(err)
	}
	fp.s.Run()
	defer fp.conserved(t, func() { fp.put(0, 1, payload, nil) })
	h := fp.host[1]
	if len(h.recv) != 1 || !bytes.Equal(h.recv[0], payload) {
		t.Fatalf("delayed message: delivered %d times", len(h.recv))
	}
	fs := fp.ledger()
	if fs.Delays != 1 || fs.Recovered != 1 || fs.Open() != 0 {
		t.Errorf("ledger: %v", fs)
	}
}
