package flightrec

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"portals3/internal/sim"
)

// Occupancy is one node's firmware resource watermarks at snapshot time —
// the control-block numbers a RAS poll would read off the real SeaStar.
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

type binReader struct {
	r   io.Reader
	b   [8]byte
	err error
}

func (br *binReader) u64() uint64 {
	if br.err != nil {
		return 0
	}
	if _, err := io.ReadFull(br.r, br.b[:]); err != nil {
		br.fail(err)
		return 0
	}
	return binary.LittleEndian.Uint64(br.b[:])
}

// fail records a read error. Past the magic every field is required, so a
// clean EOF is as much a truncation as a short read.
func (br *binReader) fail(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	br.err = fmt.Errorf("flightrec: truncated dump: %w", err)
}

func (br *binReader) i64() int64 { return int64(br.u64()) }

func (br *binReader) str() string {
	n := br.u64()
	if br.err != nil {
		return ""
	}
	if n > 1<<20 {
		br.err = fmt.Errorf("flightrec: implausible string length %d", n)
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br.r, buf); err != nil {
		br.fail(err)
		return ""
	}
	return string(buf)
}

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
// that way), no host-time or pointer content anywhere.
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
			u64(uint64(e.Kind))
		}
	}
	return b
}

// Decode reads a dump written by Bytes. The counts in the file are not
// trusted: nodes and events are appended as their bytes arrive and decoding
// stops at the first read error, so a file costs what it contains, not what
// its header claims (a 210-byte file announcing 2^26 events once allocated
// 2 GB before reporting EOF).
func Decode(r io.Reader) (*Dump, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("flightrec: reading dump magic: %w", err)
	}
	if magic != dumpMagic {
		return nil, fmt.Errorf("flightrec: not a p3dump file (magic %q)", magic[:])
	}
	br := &binReader{r: r}
	d := &Dump{}
	d.Reason = br.str()
	d.Trigger = br.str()
	d.At = sim.Time(br.i64())
	d.Node = int(br.i64())
	nNodes := br.u64()
	if br.err == nil && nNodes > 1<<20 {
		br.err = fmt.Errorf("flightrec: implausible node count %d", nNodes)
	}
	for i := uint64(0); i < nNodes && br.err == nil; i++ {
		var nd NodeDump
		nd.Node = int(br.i64())
		for _, f := range occFields(&nd.Occ) {
			*f = int(br.i64())
		}
		nd.Occ.SRAMUsed = br.i64()
		nd.Dropped = br.u64()
		nEv := br.u64()
		if br.err == nil && nEv > 1<<28 {
			br.err = fmt.Errorf("flightrec: implausible event count %d", nEv)
		}
		for j := uint64(0); j < nEv && br.err == nil; j++ {
			var e Event
			e.T = sim.Time(br.i64())
			e.Span = br.u64()
			ab := br.u64()
			e.A = uint32(ab >> 32)
			e.B = uint32(ab)
			e.Kind = Kind(br.u64())
			if br.err == nil {
				nd.Events = append(nd.Events, e)
			}
		}
		d.Nodes = append(d.Nodes, nd)
	}
	if br.err != nil {
		return nil, br.err
	}
	return d, nil
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
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return false // stable: keep node-then-ring order for ties
	})
	return out
}

// Span extracts one causal span's hop-by-hop timeline across all nodes.
func (d *Dump) Span(span uint64) []TimelineEvent {
	var out []TimelineEvent
	for _, e := range d.Timeline() {
		if e.Span == span {
			out = append(out, e)
		}
	}
	return out
}

// Spans returns every nonzero span id present in the dump, sorted.
func (d *Dump) Spans() []uint64 {
	seen := make(map[uint64]bool)
	for _, nd := range d.Nodes {
		for _, e := range nd.Events {
			if e.Span != 0 {
				seen[e.Span] = true
			}
		}
	}
	out := make([]uint64, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
