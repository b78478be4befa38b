package flightrec

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"portals3/internal/sim"
	"portals3/internal/wire"
)

func TestNilRingIsDisabled(t *testing.T) {
	var r *Ring
	r.Record(KTxHeader, 1, 2, 3, 4) // must not panic
	if r.NewSpan() != 0 {
		t.Fatal("nil ring minted a span")
	}
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Fatal("nil ring holds events")
	}
}

func TestRingRecordAndSpans(t *testing.T) {
	rec := NewRecorder(6, 8)
	r := rec.Ring(3)
	// Spans are node-scoped: (node+1)<<32 | the ring's own sequence.
	if s := r.NewSpan(); s != 4<<32|1 {
		t.Fatalf("node 3's first span = %#x, want %#x", s, uint64(4<<32|1))
	}
	if s := rec.Ring(5).NewSpan(); s != 6<<32|1 {
		t.Fatalf("node 5's first span = %#x, want %#x: another ring's minting moved it", s, uint64(6<<32|1))
	}
	if s := r.NewSpan(); s != 4<<32|2 {
		t.Fatalf("node 3's second span = %#x, want %#x", s, uint64(4<<32|2))
	}
	r.Record(KCmdDequeue, 10, 0, 7, 0)
	r.Record(KTxHeader, 20, 1, 1, 64)
	if r.Len() != 2 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 2, 0", r.Len(), r.Dropped())
	}
	ev := r.Events()
	if ev[0].Kind != KCmdDequeue || ev[1].Kind != KTxHeader {
		t.Fatalf("events out of order: %v", ev)
	}
	if rec.Ring(3) != r || len(rec.rings) != 6 || rec.rings[4] != nil {
		t.Fatalf("rings by node = %v, want nodes 3 and 5 built, dense by id", rec.rings)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	rec := NewRecorder(2, 4)
	r := rec.Ring(0)
	for i := 0; i < 10; i++ {
		r.Record(KEvPost, sim.Time(i), 0, uint32(i), 0)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	ev := r.Events()
	for i, e := range ev {
		if want := uint32(6 + i); e.A != want {
			t.Fatalf("event %d: A = %d, want %d (oldest-first after wrap)", i, e.A, want)
		}
	}
}

func testDump() *Dump {
	return &Dump{
		Reason:  "stall: no forward progress",
		Trigger: "stall",
		At:      12345678,
		Node:    1,
		Nodes: []NodeDump{
			{
				Node: 0,
				Occ: Occupancy{
					RxPendFree: 3, RxPendTotal: 8, RxPendLow: 1,
					TxPendFree: 8, TxPendTotal: 8, TxPendLow: 5,
					SourcesFree: 60, SourcesTotal: 64, SourcesLow: 59,
					TxQueueDepth: 2, TxQueueHigh: 6,
					RxStreams: 1, RxStreamsHigh: 3,
					Unacked: 4, EvQueueDepth: 0, EvQueueHigh: 2,
					SRAMUsed: 1 << 16,
				},
				Dropped: 7,
				Events: []Event{
					{T: 100, Span: 1, A: 1, B: 64, Kind: KTxSerialize},
					{T: 200, Span: 1, A: 1, B: 64, Kind: KTxHeader},
					{T: 900, Span: 1, A: 1, B: 0, Kind: KGbnRewind},
				},
			},
			{
				Node: 1,
				Events: []Event{
					{T: 300, Span: 1, A: 1, B: 64, Kind: KRxHeader},
					{T: 400, Span: 0, A: 2, B: 0, Kind: KGbnAckTx},
					{T: 950, Span: 1, A: 1, B: 0, Kind: KRxDone},
				},
			},
		},
	}
}

func TestDumpRoundTrip(t *testing.T) {
	d := testDump()
	b := d.Bytes()
	got, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Reason != d.Reason || got.Trigger != d.Trigger || got.At != d.At || got.Node != d.Node {
		t.Fatalf("header mismatch: %+v vs %+v", got, d)
	}
	if len(got.Nodes) != len(d.Nodes) {
		t.Fatalf("node count %d, want %d", len(got.Nodes), len(d.Nodes))
	}
	for i := range d.Nodes {
		w, g := d.Nodes[i], got.Nodes[i]
		if g.Node != w.Node || g.Occ != w.Occ || g.Dropped != w.Dropped {
			t.Fatalf("node %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
		if len(g.Events) != len(w.Events) {
			t.Fatalf("node %d event count %d, want %d", i, len(g.Events), len(w.Events))
		}
		for j := range w.Events {
			if g.Events[j] != w.Events[j] {
				t.Fatalf("node %d event %d: %+v, want %+v", i, j, g.Events[j], w.Events[j])
			}
		}
	}
	// Re-encoding the decoded dump must be byte-identical — the determinism
	// the same-seed-rerun contract builds on.
	if !bytes.Equal(got.Bytes(), b) {
		t.Fatal("re-encoded dump differs from original bytes")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOTADUMP........"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTimelineMergesAndOrders(t *testing.T) {
	d := testDump()
	tl := d.Timeline()
	if len(tl) != 6 {
		t.Fatalf("timeline has %d events, want 6", len(tl))
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].T < tl[i-1].T {
			t.Fatalf("timeline out of order at %d: %v after %v", i, tl[i].T, tl[i-1].T)
		}
	}
	// The cross-node hop chain of span 1: serialize and header on node 0,
	// rx-header on node 1, then the rewind and the delivery.
	span := d.Span(1)
	wantKinds := []Kind{KTxSerialize, KTxHeader, KRxHeader, KGbnRewind, KRxDone}
	if len(span) != len(wantKinds) {
		t.Fatalf("span 1 has %d events, want %d", len(span), len(wantKinds))
	}
	for i, e := range span {
		if e.Kind != wantKinds[i] {
			t.Fatalf("span 1 event %d = %v, want %v", i, e.Kind, wantKinds[i])
		}
	}
	if sp := d.Spans(); len(sp) != 1 || sp[0] != 1 {
		t.Fatalf("Spans() = %v, want [1]", sp)
	}
}

// TestKindNamesCoverAllKinds: every kind has a name, renders its
// arguments, and maps onto a Chrome record — the trace kinds onto the
// tracks their components named, every other kind onto the flightrec track.
func TestKindNamesCoverAllKinds(t *testing.T) {
	if len(kindNames) != int(kindCount) {
		t.Fatalf("kindNames has %d entries, want %d", len(kindNames), int(kindCount))
	}
	for k := KNone; k < kindCount; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", int(k))
		}
		e := Event{T: 5 * sim.Microsecond, Span: 1, A: 2, B: 3, Kind: k}
		if k != KNone && e.ArgString() == "" {
			t.Errorf("%v renders no arguments", k)
		}
		r := record(7, e)
		if r.Name == "" || r.Cat == "" || r.PID != 7 || (r.TID == trackFlight) == k.trace() {
			t.Errorf("%v maps onto %+v", k, r)
		}
	}
}

// TestEventIs32Bytes: the trace kinds' sub-kind rides in the padding after
// Kind, so an event costs what it did.
func TestEventIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 32 {
		t.Fatalf("Event is %d bytes, want 32", n)
	}
}

// TestTraceKindsRenderAsTheirComponentsNamedThem: each trace kind's Chrome
// record carries the name, category, track, phase, times and arguments the
// component that records it gives it.
func TestTraceKindsRenderAsTheirComponentsNamedThem(t *testing.T) {
	us := sim.Microsecond
	for _, tc := range []struct {
		e    Event
		want Record
	}{
		{Event{T: 5 * us, Kind: KWireTx, Sub: uint8(wire.TypePut), Span: 1<<32 | 7, A: 9, B: 64},
			Record{Name: "tx PUT", Cat: "net", Ph: "i", TS: 5 * us, TID: trackWire,
				Args: map[string]interface{}{"msg": uint64(1<<32 | 7), "dst": uint32(9), "len": uint32(64)}}},
		{Event{T: 5 * us, Kind: KWireRxHdr, Sub: uint8(wire.TypeGet), Span: 2<<32 | 1, A: 1},
			Record{Name: "rx hdr GET", Cat: "net", Ph: "i", TS: 5 * us, TID: trackWire,
				Args: map[string]interface{}{"msg": uint64(2<<32 | 1), "src": uint32(1)}}},
		{Event{T: 5 * us, Kind: KWireRxLast, Span: 2<<32 | 1, A: 1},
			Record{Name: "rx last chunk", Cat: "net", Ph: "i", TS: 5 * us, TID: trackWire,
				Args: map[string]interface{}{"msg": uint64(2<<32 | 1), "src": uint32(1)}}},
		{Event{T: 5 * us, Kind: KHostIrq, Span: uint64(2 * us)},
			Record{Name: "interrupt", Cat: "os", Ph: "X", TS: 3 * us, Dur: 2 * us, TID: trackHost}},
		{Event{T: 5 * us, Kind: KHostWork, Span: uint64(us)},
			Record{Name: "portals-processing", Cat: "os", Ph: "X", TS: 4 * us, Dur: us, TID: trackHost}},
		{Event{T: 5 * us, Kind: KFwHandler, Sub: 2, Span: uint64(us)},
			Record{Name: "rx-header", Cat: "fw", Ph: "X", TS: 4 * us, Dur: us, TID: trackPPC}},
		{Event{T: 5 * us, Kind: KEQPost, Sub: 3, Span: 12, A: 1, B: 1024},
			Record{Name: "PUT_END", Cat: "portals", Ph: "i", TS: 5 * us, TID: trackApp,
				Args: map[string]interface{}{"pid": uint32(1), "mlen": uint32(1024), "seq": uint64(12)}}},
	} {
		if got := record(0, tc.e); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v:\n got %+v\nwant %+v", tc.e.Kind, got, tc.want)
		}
		if tc.e.SpanID() != 0 {
			t.Errorf("%v: its argument reads as causal span %d", tc.e.Kind, tc.e.SpanID())
		}
	}
}

// TestRecordsOrderByStartThenNode: the timeline is in (start, node) order
// with each node's ring order kept for ties, a lasting kind counting from
// its start, and the covering spans follow in (span, node) order.
func TestRecordsOrderByStartThenNode(t *testing.T) {
	d := &Dump{Nodes: []NodeDump{
		{Node: 0, Events: []Event{
			{T: 10, Kind: KTxHeader, Span: 1},
			{T: 30, Kind: KFwHandler, Span: 25}, // runs from 5
			{T: 30, Kind: KRxDone, Span: 1, A: 1},
		}},
		{Node: 1, Events: []Event{
			{T: 5, Kind: KRxHeader, Span: 1},
			{T: 10, Kind: KWireRxHdr, Sub: uint8(wire.TypePut), Span: 1 << 32},
		}},
	}}
	var got []string
	for _, r := range d.Records() {
		got = append(got, fmt.Sprintf("%d@%d:%s", r.PID, int64(r.TS), r.Name))
	}
	want := []string{"0@5:tx-program", "1@5:rx-header", "0@10:tx-header", "1@10:rx hdr PUT",
		"0@30:rx-done", "0@10:span 1", "1@5:span 1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("records\n got %v\nwant %v", got, want)
	}
}

// TestKeepAllGrowsAndDumpsTakeTheNewest: a ring whose bound exceeds what
// it records keeps all of it, growing instead of wrapping, and Newest still
// hands a dump the latest n.
func TestKeepAllGrowsAndDumpsTakeTheNewest(t *testing.T) {
	r := NewRecorder(1, math.MaxInt).Ring(0)
	for i := 0; i < 200; i++ {
		r.Record(KEvPost, sim.Time(i), 0, uint32(i), 0)
	}
	if r.Len() != 200 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 200, 0", r.Len(), r.Dropped())
	}
	for i, e := range r.Events() {
		if e.A != uint32(i) {
			t.Fatalf("event %d: A = %d, want %d", i, e.A, i)
		}
	}
	newest := r.Newest(4)
	if len(newest) != 4 || newest[0].A != 196 || newest[3].A != 199 {
		t.Errorf("Newest(4) = %v, want events 196..199", newest)
	}
}

// TestEventsReturnCopies: what a ring hands out does not alias its buffer.
func TestEventsReturnCopies(t *testing.T) {
	r := NewRecorder(1, 4).Ring(0)
	r.Record(KEvPost, 1, 0, 7, 0)
	ev := r.Events()
	ev[0].A = 99
	if r.Events()[0].A != 7 || r.Newest(1)[0].A != 7 {
		t.Error("Events exposed the ring's buffer")
	}
}

func TestRenderTextMentionsTrigger(t *testing.T) {
	var buf bytes.Buffer
	testDump().RenderText(&buf, 0)
	out := buf.String()
	for _, want := range []string{"trigger stall", "node 1", "tx-serialize", "rx-done", "7 older events lost"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("RenderText output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteChromeEmitsSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := testDump().WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	for _, want := range []string{`"flightrec"`, `"span 1"`, "tx-serialize"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("chrome trace missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRecordIsAllocationFree(t *testing.T) {
	rec := NewRecorder(1, 64)
	r := rec.Ring(0)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(KChunkTx, 5, 9, 4096, 512)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v per op, want 0", allocs)
	}
	var nilRing *Ring
	allocs = testing.AllocsPerRun(1000, func() {
		nilRing.Record(KChunkTx, 5, 9, 4096, 512)
	})
	if allocs != 0 {
		t.Fatalf("nil Record allocates %v per op, want 0", allocs)
	}
}
