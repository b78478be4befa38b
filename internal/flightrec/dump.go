package flightrec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"

	"portals3/internal/sim"
)

// Occupancy is one node's firmware resource watermarks at snapshot time —
// the control-block numbers a service poll would read off the real SeaStar.
// Low-water marks start at the pool total and record the worst depletion;
// high-water marks record the deepest queue.
type Occupancy struct {
	RxPendFree    int // rx pendings free now
	RxPendTotal   int
	RxPendLow     int // fewest rx pendings ever free
	TxPendFree    int
	TxPendTotal   int
	TxPendLow     int
	SourcesFree   int
	SourcesTotal  int
	SourcesLow    int
	TxQueueDepth  int // serialized TX queue backlog now
	TxQueueHigh   int
	RxStreams     int // open receive streams now
	RxStreamsHigh int
	Unacked       int // go-back-n sends awaiting acknowledgment
	EvQueueDepth  int // driver event queue backlog now
	EvQueueHigh   int
	SRAMUsed      int64
}

// NodeDump is one node's snapshot: occupancy plus the ring contents.
type NodeDump struct {
	Node    int
	Occ     Occupancy
	Dropped uint64 // ring events lost to wrap-around before the snapshot
	Events  []Event
}

// Dump is one machine snapshot, taken on panic, ledger imbalance, stall
// detection, or explicitly at end of run. Everything in it is derived from
// virtual time and seeded state, so a same-seed rerun encodes to identical
// bytes.
type Dump struct {
	// Reason is the human-readable trigger ("panic: ...", "stall: ...").
	Reason string
	// Trigger is the machine-readable trigger class: "panic", "ledger",
	// "stall" or "snapshot".
	Trigger string
	// At is the virtual time of the snapshot.
	At sim.Time
	// Node is the triggering node, or -1 for machine-scoped triggers.
	Node  int
	Nodes []NodeDump
}

// dumpMagic leads every encoded dump.
var dumpMagic = [8]byte{'P', '3', 'D', 'U', 'M', 'P', '0', '1'}

// fields reads a dump's fixed-width fields in order. Past the magic every
// field is required, so running out of bytes anywhere is a truncation, and
// after the first failure every read returns zero.
type fields struct {
	b   []byte
	err error
}

func (f *fields) take(n uint64) []byte {
	if f.err == nil && n > uint64(len(f.b)) {
		f.err = fmt.Errorf("flightrec: truncated dump: %w", io.ErrUnexpectedEOF)
	}
	if f.err != nil {
		return nil
	}
	v := f.b[:n]
	f.b = f.b[n:]
	return v
}

func (f *fields) u64() uint64 {
	if v := f.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

func (f *fields) i64() int64  { return int64(f.u64()) }
func (f *fields) str() string { return string(f.take(f.u64())) }

// occFields lists an occupancy's int fields in the canonical encoding order
// (SRAMUsed, an int64, follows them) — one list, so Bytes and Decode cannot
// disagree field for field.
func occFields(o *Occupancy) []*int {
	return []*int{
		&o.RxPendFree, &o.RxPendTotal, &o.RxPendLow,
		&o.TxPendFree, &o.TxPendTotal, &o.TxPendLow,
		&o.SourcesFree, &o.SourcesTotal, &o.SourcesLow,
		&o.TxQueueDepth, &o.TxQueueHigh,
		&o.RxStreams, &o.RxStreamsHigh,
		&o.Unacked,
		&o.EvQueueDepth, &o.EvQueueHigh,
	}
}

// Bytes encodes the dump in the deterministic binary format: fixed-width
// little-endian fields, nodes in ascending id order (TakeDump builds them
// that way), no host-time or pointer content anywhere. An event is four
// words: time, span, A<<32|B and Sub<<8|Kind — a reader that takes the
// last word's low byte as the kind reads every event but the sub-kind.
func (d *Dump) Bytes() []byte {
	size := 48 + len(d.Reason) + len(d.Trigger)
	for i := range d.Nodes {
		size += 160 + 32*len(d.Nodes[i].Events)
	}
	b := append(make([]byte, 0, size), dumpMagic[:]...)
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	str := func(s string) {
		u64(uint64(len(s)))
		b = append(b, s...)
	}
	str(d.Reason)
	str(d.Trigger)
	u64(uint64(d.At))
	u64(uint64(d.Node))
	u64(uint64(len(d.Nodes)))
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		u64(uint64(nd.Node))
		for _, f := range occFields(&nd.Occ) {
			u64(uint64(*f))
		}
		u64(uint64(nd.Occ.SRAMUsed))
		u64(nd.Dropped)
		u64(uint64(len(nd.Events)))
		for _, e := range nd.Events {
			u64(uint64(e.T))
			u64(e.Span)
			u64(uint64(e.A)<<32 | uint64(e.B))
			u64(uint64(e.Sub)<<8 | uint64(e.Kind))
		}
	}
	return b
}

// Decode reads a dump written by Bytes. The counts in the file are not
// trusted: nodes and events are appended as their bytes are read and
// decoding stops at the first field missing, so a file costs what it
// contains, not what its header claims (a 210-byte file announcing 2^26
// events once allocated 2 GB before reporting EOF).
func Decode(r io.Reader) (*Dump, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("flightrec: reading dump: %w", err)
	}
	if !bytes.HasPrefix(b, dumpMagic[:]) {
		return nil, fmt.Errorf("flightrec: not a p3dump file (magic %q)", b[:min(len(b), len(dumpMagic))])
	}
	f := &fields{b: b[len(dumpMagic):]}
	d := &Dump{}
	d.Reason = f.str()
	d.Trigger = f.str()
	d.At = sim.Time(f.i64())
	d.Node = int(f.i64())
	nNodes := f.u64()
	if f.err == nil && nNodes > 1<<20 {
		f.err = fmt.Errorf("flightrec: implausible node count %d", nNodes)
	}
	for i := uint64(0); i < nNodes && f.err == nil; i++ {
		var nd NodeDump
		nd.Node = int(f.i64())
		for _, o := range occFields(&nd.Occ) {
			*o = int(f.i64())
		}
		nd.Occ.SRAMUsed = f.i64()
		nd.Dropped = f.u64()
		nEv := f.u64()
		if f.err == nil && nEv > 1<<28 {
			f.err = fmt.Errorf("flightrec: implausible event count %d", nEv)
		}
		for j := uint64(0); j < nEv && f.err == nil; j++ {
			var e Event
			e.T = sim.Time(f.i64())
			e.Span = f.u64()
			ab := f.u64()
			e.A = uint32(ab >> 32)
			e.B = uint32(ab)
			k := f.u64()
			e.Kind, e.Sub = Kind(k), uint8(k>>8)
			if f.err == nil {
				nd.Events = append(nd.Events, e)
			}
		}
		d.Nodes = append(d.Nodes, nd)
	}
	if f.err != nil {
		return nil, f.err
	}
	return d, nil
}

// Dropped is how many events the dump's nodes lost to ring wrap: 0 when it
// holds every event the run recorded.
func (d *Dump) Dropped() uint64 {
	var n uint64
	for i := range d.Nodes {
		n += d.Nodes[i].Dropped
	}
	return n
}

// TimelineEvent is one dump event tagged with its node.
type TimelineEvent struct {
	Node int
	Event
}

// Timeline merges every node's events into one time-ordered sequence.
// Within a node the ring order is preserved (rings are recorded in
// non-decreasing virtual time); cross-node ties break by node id, so the
// result is deterministic.
func (d *Dump) Timeline() []TimelineEvent {
	var out []TimelineEvent
	for _, nd := range d.Nodes {
		for _, e := range nd.Events {
			out = append(out, TimelineEvent{Node: nd.Node, Event: e})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Span extracts one causal span's hop-by-hop timeline across all nodes,
// ordered as in Timeline: it filters before it sorts, and a stable sort
// keeps the filtered events in their Timeline order.
func (d *Dump) Span(span uint64) []TimelineEvent {
	var out []TimelineEvent
	for _, nd := range d.Nodes {
		for _, e := range nd.Events {
			if e.SpanID() == span {
				out = append(out, TimelineEvent{Node: nd.Node, Event: e})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Spans returns every nonzero span id present in the dump, sorted.
func (d *Dump) Spans() []uint64 {
	var out []uint64
	for s := range d.SpanEvents() {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// SpanEvents counts each nonzero span's events in one walk of the dump.
func (d *Dump) SpanEvents() map[uint64]int {
	n := make(map[uint64]int)
	for _, nd := range d.Nodes {
		for _, e := range nd.Events {
			if s := e.SpanID(); s != 0 {
				n[s]++
			}
		}
	}
	return n
}
