package fw

import (
	"bytes"
	"testing"
	"unsafe"

	"portals3/internal/fabric"
	"portals3/internal/model"
	"portals3/internal/seastar"
	"portals3/internal/sim"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// sliceBuf is a contiguous host buffer for tests.
type sliceBuf []byte

func (b sliceBuf) Len() int                  { return len(b) }
func (b sliceBuf) ReadAt(off int, p []byte)  { copy(p, b[off:off+len(p)]) }
func (b sliceBuf) WriteAt(off int, p []byte) { copy(b[off:off+len(p)], p) }
func (b sliceBuf) Segments() int             { return 1 }

// pagedBuf fakes a Linux paged buffer: same storage, many segments.
type pagedBuf []byte

func (b pagedBuf) Len() int                  { return len(b) }
func (b pagedBuf) ReadAt(off int, p []byte)  { copy(p, b[off:off+len(p)]) }
func (b pagedBuf) WriteAt(off int, p []byte) { copy(b[off:off+len(p)], p) }
func (b pagedBuf) Segments() int             { return (len(b) + 4095) / 4096 }

// testHost is a minimal generic-mode host driver: it answers NewHeader
// events with receive commands, collects completions, and releases
// pendings — everything package nal does, minus Portals and interrupts.
type testHost struct {
	s   *sim.Sim
	nic *NIC

	recv         [][]byte // payloads received, in completion order
	rxOK         []bool
	txDone       int
	holdPendings bool     // do not Release (provokes exhaustion)
	releaseAt    sim.Time // when holdPendings, release this much later
	held         []*Pending
	events       []EventKind
}

func (h *testHost) handle(ev Event) {
	h.events = append(h.events, ev.Kind)
	switch ev.Kind {
	case EvNewHeader:
		p := ev.Pending
		if p.Complete() {
			h.recv = append(h.recv, append([]byte(nil), p.Inline...))
			h.rxOK = append(h.rxOK, ev.OK)
			h.finish(p)
			return
		}
		buf := make(sliceBuf, p.PayloadLen())
		self := h
		p.SubmitRx(buf, 0, p.PayloadLen(), func(ok bool) {
			self.recv = append(self.recv, buf)
			self.rxOK = append(self.rxOK, ok)
		})
	case EvRxDone:
		if d, _ := ev.Pending.Ctx().(func(bool)); d != nil {
			d(ev.OK)
		}
		h.finish(ev.Pending)
	case EvTxDone:
		h.txDone++
		if d, _ := ev.Tx.Ctx.(func(bool)); d != nil {
			d(ev.OK)
		}
		// Like the generic driver: the request's life ends with its TX_DONE.
		h.nic.RecycleTxReq(ev.Tx)
	}
}

func (h *testHost) finish(p *Pending) {
	if h.holdPendings {
		h.held = append(h.held, p)
		h.s.After(h.releaseAt, func() { p.Release() })
		return
	}
	p.Release()
}

type fwPair struct {
	s    *sim.Sim
	p    model.Params
	fab  *fabric.Fabric
	nics [2]*NIC
	host [2]*testHost
}

func newFwPair(t *testing.T, p model.Params, pendings int, policy ExhaustPolicy) *fwPair {
	return newFwPairAsym(t, p, [2]int{pendings, pendings}, policy)
}

// newFwPairAsym builds two connected NICs with per-node pending pool sizes
// (element i for node i) — receiver-side exhaustion tests need a starved
// receiver but a roomy sender.
func newFwPairAsym(t *testing.T, p model.Params, pendings [2]int, policy ExhaustPolicy) *fwPair {
	t.Helper()
	s := sim.New()
	tp, err := topo.New(2, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	fp := &fwPair{s: s, p: p, fab: fabric.New(s, tp, &p)}
	for i := 0; i < 2; i++ {
		chip := seastar.New(s, &p, topo.NodeID(i))
		nic, err := New(s, &p, chip, fp.fab, topo.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		nic.Policy = policy
		host := &testHost{s: s, nic: nic}
		if _, err := nic.RegisterGeneric(pendings[i], host.handle); err != nil {
			t.Fatal(err)
		}
		fp.nics[i] = nic
		fp.host[i] = host
	}
	return fp
}

// put submits a put of payload from node a to node b.
func (fp *fwPair) put(a, b int, payload []byte, done func(ok bool)) error {
	hdr := wire.Header{
		Type:   wire.TypePut,
		SrcNid: uint32(a),
		DstNid: uint32(b),
		Length: uint32(len(payload)),
	}
	return fp.nics[a].SubmitTx(&TxReq{
		Pid: 1,
		Hdr: hdr,
		Buf: sliceBuf(payload),
		Len: len(payload),
		Ctx: done,
	})
}

func TestInlinePutSingleEventAndData(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 64, ExhaustPanic)
	payload := []byte("tiny12bytes!")
	if err := fp.put(0, 1, payload, nil); err != nil {
		t.Fatal(err)
	}
	fp.s.Run()
	h := fp.host[1]
	if len(h.recv) != 1 || !bytes.Equal(h.recv[0], payload) {
		t.Fatalf("received %q", h.recv)
	}
	if !h.rxOK[0] {
		t.Error("clean inline message flagged as CRC failure")
	}
	for _, k := range h.events {
		if k == EvRxDone {
			t.Error("inline message should not produce a separate RX_DONE (saves an interrupt, §6)")
		}
	}
	if fp.nics[1].Stats.InlineRx != 1 {
		t.Errorf("InlineRx = %d", fp.nics[1].Stats.InlineRx)
	}
	if fp.host[0].txDone != 1 {
		t.Errorf("sender TX_DONE count = %d", fp.host[0].txDone)
	}
}

func TestChunkedPutDeliversExactBytes(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 64, ExhaustPanic)
	payload := make([]byte, 70000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := fp.put(0, 1, payload, nil); err != nil {
		t.Fatal(err)
	}
	fp.s.Run()
	h := fp.host[1]
	if len(h.recv) != 1 {
		t.Fatalf("completions = %d", len(h.recv))
	}
	if !bytes.Equal(h.recv[0], payload) {
		t.Error("payload corrupted in flight")
	}
	if !h.rxOK[0] {
		t.Error("CRC flagged a clean transfer")
	}
	// Both events must have fired: header first, completion later.
	if h.events[0] != EvNewHeader || h.events[len(h.events)-1] != EvRxDone {
		t.Errorf("event order: %v", h.events)
	}
}

func TestTransmitsSerializeThroughSingleFIFO(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 64, ExhaustPanic)
	var order []int
	fp.put(0, 1, make([]byte, 32<<10), func(bool) { order = append(order, 1) })
	fp.put(0, 1, make([]byte, 100), func(bool) { order = append(order, 2) })
	fp.s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("TX completion order %v: the short message must queue behind the long one (§4.3)", order)
	}
	if len(fp.host[1].recv) != 2 {
		t.Fatalf("received %d messages", len(fp.host[1].recv))
	}
}

func TestEndToEndCRCFailureFlagged(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 64, ExhaustPanic)
	fp.fab.CorruptNext(1)
	fp.put(0, 1, make([]byte, 8192), nil)
	fp.s.Run()
	h := fp.host[1]
	if len(h.rxOK) != 1 || h.rxOK[0] {
		t.Errorf("rxOK = %v, want one failed delivery", h.rxOK)
	}
	if fp.nics[1].Stats.CrcFails != 1 {
		t.Errorf("CrcFails = %d", fp.nics[1].Stats.CrcFails)
	}
}

func TestExhaustionPanicsUnderDefaultPolicy(t *testing.T) {
	// Pool of 2 pendings → 1 RX pending. Two un-released messages must
	// trip the paper's panic behavior.
	fp := newFwPairAsym(t, model.Defaults(), [2]int{64, 2}, ExhaustPanic)
	panicked := ""
	fp.nics[1].OnPanic = func(reason string) { panicked = reason }
	fp.host[1].holdPendings = true
	fp.host[1].releaseAt = sim.Second // effectively never
	fp.put(0, 1, []byte("a"), nil)
	fp.put(0, 1, []byte("b"), nil)
	fp.s.RunUntil(sim.Millisecond)
	if panicked == "" {
		t.Fatal("resource exhaustion did not panic the node (§4.3 default)")
	}
}

func TestGoBackNRecoversFromExhaustion(t *testing.T) {
	p := model.Defaults()
	fp := newFwPairAsym(t, p, [2]int{64, 2}, ExhaustGoBackN) // 1 RX pending at the receiver
	fp.host[1].holdPendings = true
	fp.host[1].releaseAt = 40 * sim.Microsecond
	sent := 5
	doneCount := 0
	for i := 0; i < sent; i++ {
		payload := bytes.Repeat([]byte{byte('A' + i)}, 8)
		if err := fp.put(0, 1, payload, func(ok bool) {
			if ok {
				doneCount++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	fp.s.RunUntil(20 * sim.Millisecond)
	h := fp.host[1]
	if len(h.recv) != sent {
		t.Fatalf("delivered %d of %d under go-back-n", len(h.recv), sent)
	}
	for i, b := range h.recv {
		want := byte('A' + i)
		if b[0] != want {
			t.Errorf("message %d out of order: got %q", i, b)
		}
	}
	if doneCount != sent {
		t.Errorf("sender completions = %d, want %d", doneCount, sent)
	}
	st := fp.nics[1].Stats
	if st.Exhaustions == 0 || st.NacksSent == 0 {
		t.Errorf("expected exhaustion+nack activity, got %+v", st)
	}
	if fp.nics[0].Stats.Retransmits == 0 {
		t.Error("sender never retransmitted")
	}
}

func TestGoBackNCRCFailureDeliversFlaggedAndAcks(t *testing.T) {
	// A CRC failure detected at completion cannot be retransmitted — the
	// host has already matched the header — so go-back-n delivers it
	// flagged (Portals NI_FAIL semantics) and acknowledges it so the
	// sender completes and the flow keeps moving.
	p := model.Defaults()
	fp := newFwPair(t, p, 64, ExhaustGoBackN)
	fp.fab.CorruptNext(1)
	done := 0
	fp.put(0, 1, make([]byte, 4096), func(ok bool) { done++ })
	fp.put(0, 1, []byte("after"), func(ok bool) { done++ })
	fp.s.RunUntil(5 * sim.Millisecond)
	h := fp.host[1]
	if len(h.rxOK) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(h.rxOK))
	}
	// Completion order differs from send order (the inline follow-up
	// finishes during header processing, before the chunked message's
	// deposit); identify messages by size.
	for i, data := range h.recv {
		switch len(data) {
		case 4096:
			if h.rxOK[i] {
				t.Error("corrupted message not flagged")
			}
		case 5:
			if !h.rxOK[i] {
				t.Error("follow-up message flagged")
			}
		default:
			t.Errorf("unexpected delivery of %d bytes", len(data))
		}
	}
	if done != 2 {
		t.Errorf("sender completions = %d, want 2 (acks must flow)", done)
	}
	if fp.nics[0].Stats.Retransmits != 0 {
		t.Errorf("CRC failure caused %d retransmits; delivery already happened", fp.nics[0].Stats.Retransmits)
	}
}

// TestPendingPoolLazyButExact: pending structures are built on first use, but
// the pool is exactly as large as registered — exhaustion, the free counts and
// the low-water marks read as if all of it had been built at init — and a
// recycled structure is reused before another fresh one is built.
func TestPendingPoolLazyButExact(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 8, ExhaustPanic) // 4 rx + 4 tx per node
	proc := fp.nics[0].generic
	if proc.RxPendingsFree() != 4 || proc.TxPendingsFree() != 4 || len(proc.rx.free)+len(proc.tx.free) != 0 {
		t.Fatalf("at init: rx free %d, tx free %d, %d structures built; want 4, 4, 0",
			proc.RxPendingsFree(), proc.TxPendingsFree(), len(proc.rx.free)+len(proc.tx.free))
	}
	for i := 0; i < 4; i++ {
		if err := fp.put(0, 1, []byte("x"), nil); err != nil {
			t.Fatalf("put %d of 4: %v", i, err)
		}
	}
	if err := fp.put(0, 1, []byte("x"), nil); err != ErrNoTxPending {
		t.Fatalf("fifth put: err = %v, want ErrNoTxPending at exactly the pool size", err)
	}
	fp.s.Run()
	o := fp.nics[0].Occupancy()
	if o.TxPendFree != 4 || o.TxPendTotal != 4 || o.TxPendLow != 0 {
		t.Errorf("sender occupancy after drain: free %d total %d low %d, want 4 4 0", o.TxPendFree, o.TxPendTotal, o.TxPendLow)
	}
	// The receiver released each message before the next header arrived: one
	// structure served all four, and three pendings were never built.
	rx := &fp.nics[1].generic.rx
	if ro := fp.nics[1].Occupancy(); ro.RxPendFree != 4 || ro.RxPendLow != 3 || len(rx.free) != 1 || rx.fresh != 3 {
		t.Errorf("receiver: free %d low %d, %d built, %d fresh; want 4 3 1 3", ro.RxPendFree, ro.RxPendLow, len(rx.free), rx.fresh)
	}
	// A second burst recycles the four built structures; none is added.
	for i := 0; i < 4; i++ {
		if err := fp.put(0, 1, []byte("y"), nil); err != nil {
			t.Fatal(err)
		}
	}
	fp.s.Run()
	if len(proc.tx.free) != 4 || proc.tx.fresh != 0 || len(fp.host[1].recv) != 8 {
		t.Errorf("after second burst: %d built, %d fresh, %d delivered; want 4 0 8", len(proc.tx.free), proc.tx.fresh, len(fp.host[1].recv))
	}
}

func TestDiscardConsumesStreamAndFreesPending(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 16, ExhaustPanic)
	// Override the host: discard every payload message.
	h := fp.host[1]
	h.nic.generic.Handle = func(ev Event) {
		if ev.Kind == EvNewHeader {
			if ev.Pending.Complete() {
				ev.Pending.Release()
				return
			}
			ev.Pending.Discard()
			ev.Pending.Release()
		}
	}
	fp.put(0, 1, make([]byte, 50000), nil)
	delivered := false
	fp.put(0, 1, make([]byte, 30000), nil)
	// Third message after the discards proves pendings and FIFO credits
	// came back.
	hdr := wire.Header{Type: wire.TypePut, SrcNid: 0, DstNid: 1, Length: 4}
	fp.nics[0].SubmitTx(&TxReq{Pid: 1, Hdr: hdr, Buf: sliceBuf("ping"), Len: 4,
		Ctx: func(bool) { delivered = true }})
	fp.s.Run()
	if fp.nics[1].Stats.Discards != 2 {
		t.Errorf("Discards = %d", fp.nics[1].Stats.Discards)
	}
	if !delivered {
		t.Error("traffic stalled after discards: credits or pendings leaked")
	}
	if free := fp.nics[1].generic.RxPendingsFree(); free != 8 {
		t.Errorf("rx pendings free = %d of 8 after discards", free)
	}
	if fp.nics[1].Chip.RxFIFO.Available() != fp.nics[1].Chip.RxFIFO.Capacity() {
		t.Errorf("RX FIFO credits leaked: %d of %d",
			fp.nics[1].Chip.RxFIFO.Available(), fp.nics[1].Chip.RxFIFO.Capacity())
	}
}

func TestSegsInRange(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 4, ExhaustPanic)
	nic := fp.nics[0]
	contig := make(sliceBuf, 1<<20)
	paged := make(pagedBuf, 1<<20)
	if got := nic.SegsInRange(contig, 100, 100000); got != 1 {
		t.Errorf("contiguous segs = %d", got)
	}
	if got := nic.SegsInRange(paged, 0, 4096); got != 1 {
		t.Errorf("one page = %d segs", got)
	}
	if got := nic.SegsInRange(paged, 4000, 200); got != 2 {
		t.Errorf("page-straddling segs = %d", got)
	}
	if got := nic.SegsInRange(paged, 0, 16384); got != 4 {
		t.Errorf("four pages = %d segs", got)
	}
}

func TestSourcePoolSharedAndReused(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 64, ExhaustPanic)
	fp.put(0, 1, []byte("x"), nil)
	fp.put(0, 1, []byte("y"), nil)
	fp.s.Run()
	if fp.nics[1].SourceCount() != 1 {
		t.Errorf("receiver allocated %d sources for one peer", fp.nics[1].SourceCount())
	}
	if fp.nics[0].SourceCount() != 1 {
		t.Errorf("sender allocated %d sources for one destination", fp.nics[0].SourceCount())
	}
}

// TestSourceFitsOneCacheLine: every flow of a machine-scale job holds a
// source, so its size is per-flow memory times the node count. The
// go-back-n backoff counters sit in what was padding after timerArmed; a
// field that pushes the struct past 64 B shows in the lossy benchmark's
// bytes per job.
func TestSourceFitsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(source{}); n > 64 {
		t.Errorf("source is %d B, want at most 64", n)
	}
}

func TestAccelRegistrationLimit(t *testing.T) {
	p := model.Defaults() // MaxAccelProcs = 2
	fp := newFwPair(t, p, 16, ExhaustPanic)
	n := fp.nics[0]
	if _, err := n.RegisterAccel(10, 16, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RegisterAccel(11, 16, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RegisterAccel(12, 16, func(Event) {}); err == nil {
		t.Error("third accelerated process accepted; the paper allows only a small number (§4.1)")
	}
	if _, err := n.RegisterAccel(10, 16, func(Event) {}); err == nil {
		t.Error("duplicate pid accepted")
	}
}

func TestSRAMBudgetEnforcedOnRegistration(t *testing.T) {
	s := sim.New()
	p := model.Defaults()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	fab := fabric.New(s, tp, &p)
	chip := seastar.New(s, &p, 0)
	nic, err := New(s, &p, chip, fab, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A pool that cannot fit in 384 KB must be rejected.
	if _, err := nic.RegisterGeneric(1<<20, func(Event) {}); err == nil {
		t.Error("oversized pending pool fit in 384 KB of SRAM?")
	}
	// The paper's configuration must fit.
	if _, err := nic.RegisterGeneric(p.NumGenericPendings, func(Event) {}); err != nil {
		t.Errorf("paper-sized pools rejected: %v", err)
	}
}

func TestHeartbeatAdvances(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 16, ExhaustPanic)
	fp.put(0, 1, []byte("x"), nil)
	fp.s.Run()
	if fp.nics[0].Heartbeat == 0 || fp.nics[1].Heartbeat == 0 {
		t.Error("heartbeat counters never ticked")
	}
}

func TestQueryStatsSyncCommand(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 64, ExhaustPanic)
	fp.put(0, 1, []byte("x"), nil)
	var snap Stats
	var took sim.Time
	fp.s.Go("ras-poll", func(proc *sim.Proc) {
		proc.Sleep(100 * sim.Microsecond) // after the message settled
		t0 := proc.Now()
		snap = fp.nics[1].Generic().QueryStats(proc)
		took = proc.Now() - t0
	})
	fp.s.Run()
	if snap.HeadersRx != 1 {
		t.Errorf("snapshot headers = %d, want 1", snap.HeadersRx)
	}
	// The round trip costs at least the command write, the handler and the
	// result write.
	p := fp.p
	min := p.HTWriteLatency + p.PPCCycles(p.FwDispatchCycles) + p.HTWriteLatency
	if took < min {
		t.Errorf("sync command took %v, below the physical floor %v", took, min)
	}
}

func TestAccelRejectsNonContiguousBuffers(t *testing.T) {
	fp := newFwPair(t, model.Defaults(), 64, ExhaustPanic)
	nic := fp.nics[0]
	if _, err := nic.RegisterAccel(7, 16, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	hdr := wire.Header{Type: wire.TypePut, SrcNid: 0, DstNid: 1, Length: 8192}
	err := nic.SubmitTx(&TxReq{Pid: 7, Hdr: hdr, Buf: make(pagedBuf, 8192), Len: 8192})
	if err != ErrAccelNonContiguous {
		t.Errorf("accelerated non-contiguous send: %v, want ErrAccelNonContiguous (§3.3)", err)
	}
	// The same buffer through the generic process is fine.
	if err := nic.SubmitTx(&TxReq{Pid: 1, Hdr: hdr, Buf: make(pagedBuf, 8192), Len: 8192}); err != nil {
		t.Errorf("generic non-contiguous send: %v", err)
	}
	fp.s.Run()
}

func TestTinyTxFIFOYieldsButDelivers(t *testing.T) {
	// §4.3: "If the message does not fit into the TX FIFO, the transmit
	// state machine will yield and return to the main loop until there is
	// more room in the FIFO." With a FIFO of exactly one chunk, a 64 KB
	// message forces a yield per chunk — and because the link drains the
	// FIFO faster than HyperTransport fills it, delivery time is
	// unchanged: the FIFO is pipeline slack, not a bottleneck.
	tiny := model.Defaults()
	tiny.TxFIFOBytes = int64(tiny.ChunkBytes)
	big := model.Defaults()

	run := func(p model.Params) (sim.Time, []byte, uint64) {
		fp := newFwPair(t, p, 64, ExhaustPanic)
		payload := make([]byte, 64<<10)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		var done sim.Time
		fp.put(0, 1, payload, func(bool) { done = fp.s.Now() })
		fp.s.Run()
		if len(fp.host[1].recv) != 1 {
			t.Fatal("message lost")
		}
		return done, fp.host[1].recv[0], fp.nics[0].Chip.TxFIFO.Waits
	}
	tTiny, dataTiny, waitsTiny := run(tiny)
	tBig, dataBig, waitsBig := run(big)
	if !bytes.Equal(dataTiny, dataBig) {
		t.Fatal("payload differs between FIFO sizes")
	}
	for i, v := range dataTiny {
		if v != byte(i*3) {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	if waitsTiny == 0 {
		t.Error("one-chunk FIFO never made the TX state machine yield")
	}
	if waitsBig != 0 {
		t.Errorf("default FIFO yielded %d times on an uncontended transfer", waitsBig)
	}
	if tTiny != tBig {
		t.Errorf("delivery time changed with FIFO size (%v vs %v); the link outruns HT, so it must not", tTiny, tBig)
	}
}
