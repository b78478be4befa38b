package fabric

import (
	"bytes"
	"fmt"
	"testing"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

type arrival struct {
	kind string // "hdr" or "chunk"
	off  int
	n    int
	at   sim.Time
}

// fakeEP records deliveries and reassembles payloads like a NIC would.
type fakeEP struct {
	win      *sim.Credits
	arrivals []arrival
	buf      []byte
	lastMsg  *Message
	autoFree bool // return credits immediately on delivery
}

func newFakeEP(s *sim.Sim, window int64, autoFree bool) *fakeEP {
	return &fakeEP{win: sim.NewCredits(s, "rxwin", window), autoFree: autoFree}
}

func (e *fakeEP) HeaderArrived(m *Message) {
	e.lastMsg = m
	e.arrivals = append(e.arrivals, arrival{kind: "hdr", n: wire.PacketBytes})
	if e.autoFree {
		e.win.Put(int64(wire.PacketBytes))
	}
	e.buf = append(e.buf, m.Inline...)
}

func (e *fakeEP) ChunkArrived(c *Chunk) {
	e.arrivals = append(e.arrivals, arrival{kind: "chunk", off: c.Off, n: len(c.Data)})
	e.buf = append(e.buf, c.Data...)
	if e.autoFree {
		e.win.Put(int64(len(c.Data)))
	}
}

func (e *fakeEP) RxWindow() *sim.Credits { return e.win }

// timedEP wraps fakeEP recording arrival times.
type timedEP struct {
	*fakeEP
	s     *sim.Sim
	times []sim.Time
}

func (e *timedEP) HeaderArrived(m *Message) {
	e.times = append(e.times, e.s.Now())
	e.fakeEP.HeaderArrived(m)
}

func (e *timedEP) ChunkArrived(c *Chunk) {
	e.times = append(e.times, e.s.Now())
	e.fakeEP.ChunkArrived(c)
}

func pairFabric(t *testing.T, p model.Params) (*sim.Sim, *Fabric, *timedEP, *timedEP) {
	t.Helper()
	s := sim.New()
	tp, err := topo.New(2, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	f := New(s, tp, &p)
	a := &timedEP{fakeEP: newFakeEP(s, 1<<20, true), s: s}
	b := &timedEP{fakeEP: newFakeEP(s, 1<<20, true), s: s}
	f.Attach(0, a)
	f.Attach(1, b)
	return s, f, a, b
}

func putHeader(src, dst uint32, n int) wire.Header {
	return wire.Header{Type: wire.TypePut, SrcNid: src, DstNid: dst, Length: uint32(n)}
}

func TestHeaderTimingSingleHop(t *testing.T) {
	p := model.Defaults()
	s, f, _, b := pairFabric(t, p)
	m := f.NewMessage(putHeader(0, 1, 0), 0, 1, nil)
	f.SendHeader(m)
	s.Run()
	// inject 60ns + 64B@2.5GB/s (25.6ns) + hop 55ns + eject 60ns = 200.6ns
	want := 2*p.InjectLatency + sim.BytesAt(64, p.LinkBps) + p.HopLatency
	if len(b.times) != 1 || b.times[0] != want {
		t.Errorf("header arrived at %v, want %v", b.times, want)
	}
	if f.Stats.Delivered != 1 {
		t.Errorf("delivered = %d", f.Stats.Delivered)
	}
}

func TestPayloadDeliveredInOrderWithRealBytes(t *testing.T) {
	p := model.Defaults()
	s, f, _, b := pairFabric(t, p)
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	m := f.NewMessage(putHeader(0, 1, len(payload)), 0, 1, payload)
	f.SendHeader(m)
	// Inject chunks in order, as the TX DMA engine would.
	for off := 0; off < len(payload); off += p.ChunkBytes {
		end := off + p.ChunkBytes
		if end > len(payload) {
			end = len(payload)
		}
		f.SendChunk(&Chunk{Msg: m, Off: off, Data: append([]byte(nil), payload[off:end]...), Last: end == len(payload)})
	}
	s.Run()
	if !bytes.Equal(b.buf, payload) {
		t.Fatalf("payload mangled: got %d bytes, want %d", len(b.buf), len(payload))
	}
	if b.arrivals[0].kind != "hdr" {
		t.Error("header must arrive before payload")
	}
	lastOff := -1
	for _, a := range b.arrivals[1:] {
		if a.off <= lastOff {
			t.Fatalf("chunks out of order: %v", b.arrivals)
		}
		lastOff = a.off
	}
	if got := wire.CRC32(&m.Hdr, b.buf); got != m.CRC {
		t.Errorf("end-to-end CRC mismatch on clean transfer: %#x vs %#x", got, m.CRC)
	}
}

func TestInlinePayloadRidesHeaderPacket(t *testing.T) {
	p := model.Defaults()
	s, f, _, b := pairFabric(t, p)
	payload := []byte("hello twelve") // exactly 12 bytes
	m := f.NewMessage(putHeader(0, 1, len(payload)), 0, 1, payload)
	if m.PayloadLen != 0 || m.Hdr.InlineLen != 12 {
		t.Fatalf("12-byte put should be fully inline, got payloadLen=%d inline=%d", m.PayloadLen, m.Hdr.InlineLen)
	}
	f.SendHeader(m)
	s.Run()
	if !bytes.Equal(b.buf, payload) {
		t.Errorf("inline payload mangled: %q", b.buf)
	}
	if f.Stats.Chunks != 0 {
		t.Errorf("inline message used %d chunks, want 0", f.Stats.Chunks)
	}
}

func TestThirteenBytesDoesNotInline(t *testing.T) {
	p := model.Defaults()
	_, f, _, _ := pairFabric(t, p)
	m := f.NewMessage(putHeader(0, 1, 13), 0, 1, make([]byte, 13))
	if m.Hdr.InlineLen != 0 || m.PayloadLen != 13 {
		t.Errorf("13-byte put must not inline (inline=%d payload=%d)", m.Hdr.InlineLen, m.PayloadLen)
	}
}

func TestGetRequestNeverInlines(t *testing.T) {
	p := model.Defaults()
	_, f, _, _ := pairFabric(t, p)
	h := wire.Header{Type: wire.TypeGet, Length: 8}
	m := f.NewMessage(h, 0, 1, nil)
	if m.Hdr.InlineLen != 0 {
		t.Error("get requests carry no inline data")
	}
}

func TestBackpressureStallsSender(t *testing.T) {
	p := model.Defaults()
	s := sim.New()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	f := New(s, tp, &p)
	a := &timedEP{fakeEP: newFakeEP(s, 1<<20, true), s: s}
	// Receiver window: room for the header plus one 100-byte chunk only.
	b := &timedEP{fakeEP: newFakeEP(s, int64(wire.PacketBytes)+100, false), s: s}
	f.Attach(0, a)
	f.Attach(1, b)

	m := f.NewMessage(putHeader(0, 1, 200), 0, 1, make([]byte, 200))
	f.SendHeader(m)
	f.SendChunk(&Chunk{Msg: m, Off: 0, Data: make([]byte, 100)})
	f.SendChunk(&Chunk{Msg: m, Off: 100, Data: make([]byte, 100), Last: true})
	// Drain nothing until 10us; the second chunk must wait for credits.
	s.After(10*sim.Microsecond, func() { b.win.Put(int64(wire.PacketBytes) + 100) })
	s.Run()
	if len(b.times) != 3 {
		t.Fatalf("got %d deliveries, want 3", len(b.times))
	}
	if b.times[1] >= 10*sim.Microsecond {
		t.Errorf("first chunk should arrive before the drain, at %v", b.times[1])
	}
	if b.times[2] < 10*sim.Microsecond {
		t.Errorf("second chunk arrived at %v despite full RX window", b.times[2])
	}
	if b.win.Waits == 0 {
		t.Error("expected a backpressure wait")
	}
}

func TestLinkRetriesSlowTransferAndCount(t *testing.T) {
	clean := model.Defaults()
	dirty := model.Defaults()
	dirty.LinkBitErrorRate = 0.02 // per 64B packet

	run := func(p model.Params) (sim.Time, uint64) {
		s, f, _, b := pairFabric(t, p)
		payload := make([]byte, 64<<10)
		m := f.NewMessage(putHeader(0, 1, len(payload)), 0, 1, payload)
		f.SendHeader(m)
		for off := 0; off < len(payload); off += p.ChunkBytes {
			end := off + p.ChunkBytes
			if end > len(payload) {
				end = len(payload)
			}
			f.SendChunk(&Chunk{Msg: m, Off: off, Data: payload[off:end], Last: end == len(payload)})
		}
		s.Run()
		return b.times[len(b.times)-1], f.Stats.LinkRetries
	}
	tClean, rClean := run(clean)
	tDirty, rDirty := run(dirty)
	if rClean != 0 {
		t.Errorf("clean link retried %d times", rClean)
	}
	if rDirty == 0 {
		t.Error("dirty link never retried")
	}
	if tDirty <= tClean {
		t.Errorf("retries should slow the transfer: %v <= %v", tDirty, tClean)
	}
}

func TestEndToEndCorruptionDetectedByCRC32(t *testing.T) {
	p := model.Defaults()
	s, f, _, b := pairFabric(t, p)
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	m := f.NewMessage(putHeader(0, 1, len(payload)), 0, 1, payload)
	f.CorruptNext(1)
	f.SendHeader(m)
	for off := 0; off < len(payload); off += p.ChunkBytes {
		end := off + p.ChunkBytes
		if end > len(payload) {
			end = len(payload)
		}
		f.SendChunk(&Chunk{Msg: m, Off: off, Data: append([]byte(nil), payload[off:end]...), Last: end == len(payload)})
	}
	s.Run()
	if got := wire.CRC32(&m.Hdr, b.buf); got == m.CRC {
		t.Error("corruption was injected but CRC-32 still matches")
	}
}

func TestMultiHopTiming(t *testing.T) {
	p := model.Defaults()
	s := sim.New()
	tp, _ := topo.New(4, 1, 1, false, false, false)
	f := New(s, tp, &p)
	var eps []*timedEP
	for n := topo.NodeID(0); n < 4; n++ {
		ep := &timedEP{fakeEP: newFakeEP(s, 1<<20, true), s: s}
		eps = append(eps, ep)
		f.Attach(n, ep)
	}
	m := f.NewMessage(putHeader(0, 3, 0), 0, 3, nil)
	f.SendHeader(m)
	s.Run()
	hops := sim.Time(3)
	want := 2*p.InjectLatency + hops*(sim.BytesAt(64, p.LinkBps)+p.HopLatency)
	if eps[3].times[0] != want {
		t.Errorf("3-hop header arrived at %v, want %v", eps[3].times[0], want)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	p := model.Defaults()
	s := sim.New()
	tp, _ := topo.New(2, 1, 1, false, false, false)
	f := New(s, tp, &p)
	f.Attach(0, newFakeEP(s, 1, true))
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double attach")
		}
	}()
	f.Attach(0, newFakeEP(s, 1, true))
}

func TestLinkUtilizationReported(t *testing.T) {
	p := model.Defaults()
	s, f, _, _ := pairFabric(t, p)
	if u := f.LinkUtilization(0, topo.Dir{Axis: topo.X, Sign: 1}); u != 0 || f.links != nil {
		t.Errorf("before any traffic: utilization %v, link table built: %v", u, f.links != nil)
	}
	m := f.NewMessage(putHeader(0, 1, 0), 0, 1, nil)
	f.SendHeader(m)
	s.Run()
	if u := f.LinkUtilization(0, topo.Dir{Axis: topo.X, Sign: 1}); u <= 0 {
		t.Errorf("used link reports zero utilization")
	}
	if u := f.LinkUtilization(1, topo.Dir{Axis: topo.X, Sign: 1}); u != 0 {
		t.Errorf("unused link reports nonzero utilization %v", u)
	}
	// Every (node, direction) has a link of its own, named as it always was.
	seen := map[*sim.Server]bool{}
	for node := topo.NodeID(0); node < 2; node++ {
		for _, d := range []topo.Dir{{Axis: topo.X, Sign: 1}, {Axis: topo.X, Sign: -1}, {Axis: topo.Y, Sign: 1},
			{Axis: topo.Y, Sign: -1}, {Axis: topo.Z, Sign: 1}, {Axis: topo.Z, Sign: -1}} {
			sv := f.link(node, d)
			if want := fmt.Sprintf("link[%d %v]", node, d); sv.Name() != want || seen[sv] || f.link(node, d) != sv {
				t.Errorf("link(%d, %v) is %q (shared: %v), want its own %q", node, d, sv.Name(), seen[sv], want)
			}
			seen[sv] = true
		}
	}
}

func TestRetryRateTracksBitErrorRate(t *testing.T) {
	// The per-packet retry probability should produce retries in rough
	// proportion to packets × BER over a large transfer.
	p := model.Defaults()
	p.LinkBitErrorRate = 0.01
	s, f, _, _ := pairFabric(t, p)
	payload := make([]byte, 1<<20)
	m := f.NewMessage(putHeader(0, 1, len(payload)), 0, 1, payload)
	f.SendHeader(m)
	for off := 0; off < len(payload); off += p.ChunkBytes {
		end := off + p.ChunkBytes
		if end > len(payload) {
			end = len(payload)
		}
		f.SendChunk(&Chunk{Msg: m, Off: off, Data: payload[off:end], Last: end == len(payload)})
	}
	s.Run()
	packets := float64(len(payload)) / 64
	expect := packets * p.LinkBitErrorRate
	got := float64(f.Stats.LinkRetries)
	if got < expect/2 || got > expect*2 {
		t.Errorf("retries = %.0f, expected around %.0f for %0.f packets at BER %v",
			got, expect, packets, p.LinkBitErrorRate)
	}
}
