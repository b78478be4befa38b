package fw

import (
	"bytes"
	"testing"

	"portals3/internal/model"
	"portals3/internal/sim"
)

// Every carrier comes back, once. A request, pending, stub or pipeline
// carrier is taken from its free list for as long as something of the
// message is scheduled and returned when that ends; recovery — a control
// frame recycled in tx-done, a retransmission requeued from a flow's unacked
// list, a duplicate condemned before its handler ran — is where one would be
// returned twice or not at all. A double return stops the run where it
// happens (RecycleTxReq, freeRx); these checks catch the silent half.

// conserved is the Conservation check on the pair: the scenario has run dry;
// again sends its traffic once more on the same NICs.
func (fp *fwPair) conserved(t *testing.T, again func()) {
	t.Helper()
	c := Conserve(t, fp.nics[:]...)
	again()
	fp.s.Run()
	c.Check(t)
}

// TestNackStormReusesCarriers is go-back-n at its worst: 64 messages to a
// receiver with a single receive pending that its host holds for 40 µs, so
// that header after header finds the pool exhausted, is NACKed and is sent
// again with everything behind it — 805 retransmissions for 64 messages.
// They run on the carriers of the first attempts: the pools end no larger
// than one pass needs, and the protocol's counters, its finish time and the
// fault ledger are what they were (measured at PR 23) before carriers were
// returned early and control frames pooled.
//
// 805 is also a ceiling, the pair-sized twin of TestHotSpotGoBackNIncastFence:
// the go-back-n fix (bounded in-flight window, hold-off NACK, one NACK per
// gap, timer backoff) may only lower it, re-recording the exact counters
// below when it does, toward retransmissions within a small constant per
// delivered message.
func TestNackStormReusesCarriers(t *testing.T) {
	const msgs = 64
	fp := newFwPairAsym(t, model.Defaults(), [2]int{256, 2}, ExhaustGoBackN)
	fp.host[1].holdPendings = true
	fp.host[1].releaseAt = 40 * sim.Microsecond
	payloads := make([][]byte, msgs)
	send := func() {
		for k := range payloads {
			payloads[k] = bytes.Repeat([]byte{byte(k + 1)}, 3000)
			if err := fp.put(0, 1, payloads[k], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	send()
	fp.s.Run()

	h := fp.host[1]
	if len(h.recv) != msgs {
		t.Fatalf("delivered %d of %d", len(h.recv), msgs)
	}
	for k, got := range h.recv {
		if !bytes.Equal(got, payloads[k]) {
			t.Fatalf("message %d corrupted or out of order", k)
		}
	}
	tx, rx := fp.nics[0].Stats, fp.nics[1].Stats
	if tx.Retransmits > 805 {
		t.Errorf("%d retransmissions for %d messages: the NACK storm grew past its 805 ceiling", tx.Retransmits, msgs)
	}
	if tx.Retransmits != 805 || tx.NacksRcvd != 805 || tx.GbnTimeouts != 1 || rx.Exhaustions != 372 ||
		rx.DupAcks != 0 || fp.s.Now() != 3492676069*sim.Picosecond {
		t.Errorf("at %v: sender %+v\nreceiver %+v\nwant 805 retransmissions for 805 NACKs (372 of them exhaustions), one timeout, no duplicate, at 3.492676069ms",
			fp.s.Now(), tx, rx)
	}
	if fs := fp.ledger(); fs.Injected() != 0 || fs.Open() != 0 {
		t.Errorf("ledger: %v, want nothing injected (the losses are the receiver's)", fs)
	}
	if n := fp.nics[0].FreeCount("TxReq"); n != msgs {
		t.Errorf("sender's transmit requests: %d, want the %d of one pass", n, msgs)
	}
	if n := fp.nics[1].FreeCount("TxReq"); n > 4 {
		t.Errorf("receiver's control frames took %d requests, want a handful reused", n)
	}
	if n := fp.nics[0].FreeCount("txChunk") + fp.nics[0].FreeCount("evPost"); n > 16 {
		t.Errorf("sender's pipeline and event carriers: %d, want a handful reused", n)
	}
	fp.conserved(t, send)
}
