// Package flightrec is the machine's flight recorder: a per-node,
// fixed-size ring of compact binary events written at every firmware state
// transition, in the spirit of the in-NIC event capture RDMA-era stacks
// lean on for post-mortem debugging. Recording follows the telemetry
// registry's rules — the ring is preallocated, a record is a struct store
// into it, and a nil *Ring is valid and disabled (one pointer test on the
// hot path, zero allocations either way).
//
// Every event carries a causal span id. A span is minted when the host
// submits a transmit request and propagates with the request onto the
// fabric message, its payload chunks, and the receiver's pending — so the
// complete hop-by-hop path of one message (submit, serialize, header tx,
// chunk tx, chunk rx, retransmissions, delivery, event post) can be
// reconstructed across nodes from a dump, even through go-back-n rewinds:
// a retransmission reuses the original request and therefore the original
// span. Span 0 means "node-scoped, no message attached" (control frames,
// pool watermarks observed outside a message's context).
package flightrec

import (
	"fmt"
	"sort"

	"portals3/internal/sim"
)

// Kind identifies one firmware state transition.
type Kind uint8

// Event kinds. A and B are kind-specific arguments; the tables in
// kindNames/ArgString document them.
const (
	KNone        Kind = iota
	KCmdDequeue       // mailbox command popped by the firmware; A=pid
	KPendAlloc        // pending allocated; A=pool free after, B=1 tx / 0 rx
	KPendFree         // pending freed; A=pool free after, B=1 tx / 0 rx
	KSrcHit           // source hash hit; A=pool free
	KSrcAlloc         // source allocated (hash miss); A=pool free after
	KTxSerialize      // request entered the serialized TX queue; A=seq, B=len
	KTxHeader         // header packet injected; A=seq, B=payload len
	KChunkTx          // payload chunk entered the wire; A=offset, B=len
	KChunkRx          // payload chunk landed in the RX FIFO; A=offset, B=len
	KCrcFail          // end-to-end CRC-32 mismatch; A=seq
	KGbnAckTx         // FC_ACK transmitted; A=cumulative acked seq
	KGbnAckRx         // FC_ACK received; A=cumulative acked seq
	KGbnNackTx        // FC_NACK transmitted; A=seq to resume from
	KGbnNackRx        // FC_NACK received; A=seq to resume from
	KGbnRewind        // request re-queued for retransmission; A=seq
	KGbnTimeout       // retransmission timer expired; A=resend count
	KEvPost           // event-queue post; A=event kind, B=queue depth
	KIrqRaise         // host interrupt requested; A=driver event-queue depth
	KRxHeader         // data header accepted; A=seq, B=payload len
	KRxDone           // message fully received; A=1 CRC ok / 0 fail
	KExhaust          // resource exhaustion; A=exhaust code (see ExhaustName)
	KStall            // stall detector fired on this node; A=open work items
	kindCount
)

var kindNames = [...]string{
	"none", "cmd-dequeue", "pend-alloc", "pend-free", "src-hit", "src-alloc",
	"tx-serialize", "tx-header", "chunk-tx", "chunk-rx", "crc-fail",
	"gbn-ack-tx", "gbn-ack-rx", "gbn-nack-tx", "gbn-nack-rx", "gbn-rewind",
	"gbn-timeout", "ev-post", "irq-raise", "rx-header", "rx-done",
	"exhaust", "stall",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Exhaustion codes carried in A of a KExhaust event.
const (
	ExhaustSources   = 1 // global source pool empty (rx)
	ExhaustRxPending = 2 // rx pending pool empty
	ExhaustTxSource  = 3 // tx-side source pool empty (always fatal)
)

// ExhaustName decodes a KExhaust code.
func ExhaustName(code uint32) string {
	switch code {
	case ExhaustSources:
		return "source pool empty"
	case ExhaustRxPending:
		return "rx pending pool empty"
	case ExhaustTxSource:
		return "tx source pool empty"
	}
	return fmt.Sprintf("code %d", code)
}

// Event is one recorded state transition: virtual time, causal span, two
// kind-specific arguments. The struct is fixed-size and inline in the ring
// buffer; recording one is a bounds-checked store.
type Event struct {
	T    sim.Time
	Span uint64
	A, B uint32
	Kind Kind
}

// ArgString renders the kind-specific arguments for timelines.
func (e Event) ArgString() string {
	switch e.Kind {
	case KCmdDequeue:
		return fmt.Sprintf("pid=%d", e.A)
	case KPendAlloc, KPendFree:
		pool := "rx"
		if e.B == 1 {
			pool = "tx"
		}
		return fmt.Sprintf("pool=%s free=%d", pool, e.A)
	case KSrcHit, KSrcAlloc:
		return fmt.Sprintf("free=%d", e.A)
	case KTxSerialize, KTxHeader, KRxHeader:
		return fmt.Sprintf("seq=%d len=%d", e.A, e.B)
	case KChunkTx, KChunkRx:
		return fmt.Sprintf("off=%d len=%d", e.A, e.B)
	case KCrcFail, KGbnRewind:
		return fmt.Sprintf("seq=%d", e.A)
	case KGbnAckTx, KGbnAckRx:
		return fmt.Sprintf("acked=%d", e.A)
	case KGbnNackTx, KGbnNackRx:
		return fmt.Sprintf("resume=%d", e.A)
	case KGbnTimeout:
		return fmt.Sprintf("resend=%d", e.A)
	case KEvPost:
		return fmt.Sprintf("ev=%d depth=%d", e.A, e.B)
	case KIrqRaise:
		return fmt.Sprintf("evq=%d", e.A)
	case KRxDone:
		if e.A == 1 {
			return "crc=ok"
		}
		return "crc=FAIL"
	case KExhaust:
		return ExhaustName(e.A)
	case KStall:
		return fmt.Sprintf("open=%d", e.A)
	}
	return ""
}

// DefaultRingEvents is the per-node ring capacity unless configured.
const DefaultRingEvents = 4096

// Ring is one node's recorder. A nil *Ring is valid and disabled; every
// method is nil-safe, so components hold the pointer unconditionally.
type Ring struct {
	node    int
	buf     []Event
	head    int    // next write index
	n       uint64 // lifetime events recorded
	spanSeq uint64 // spans minted by this ring
}

// Enabled reports whether records will be kept.
func (r *Ring) Enabled() bool { return r != nil }

// Record stores one event, overwriting the oldest when the ring is full.
func (r *Ring) Record(k Kind, t sim.Time, span uint64, a, b uint32) {
	if r == nil {
		return
	}
	r.buf[r.head] = Event{T: t, Span: span, A: a, B: b, Kind: k}
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n++
}

// NewSpan mints a fresh causal span id, (node+1)<<32 | per-ring sequence:
// each ring numbers its own spans, tagged with the minting node in the high
// half, so span ids never depend on how nodes interleave, within an event
// lane or across lanes. The nil ring returns span 0 ("untracked"), so the
// submit path needs no separate enabled test.
func (r *Ring) NewSpan() uint64 {
	if r == nil {
		return 0
	}
	r.spanSeq++
	return uint64(uint32(r.node)+1)<<32 | r.spanSeq
}

// Len reports how many events the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped reports how many events were overwritten by wrap-around.
func (r *Ring) Dropped() uint64 {
	if r == nil || r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Events returns the ring contents oldest-first (a copy; snapshots must not
// alias the live buffer).
func (r *Ring) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	if r.n <= uint64(len(r.buf)) {
		return append([]Event(nil), r.buf[:r.head]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Recorder owns the per-node rings.
type Recorder struct {
	cap   int
	rings map[int]*Ring
}

// NewRecorder builds a recorder whose rings hold capPerNode events each
// (DefaultRingEvents when capPerNode <= 0).
func NewRecorder(capPerNode int) *Recorder {
	if capPerNode <= 0 {
		capPerNode = DefaultRingEvents
	}
	return &Recorder{cap: capPerNode, rings: make(map[int]*Ring)}
}

// Ring returns (allocating on first use) the ring for one node.
func (rec *Recorder) Ring(node int) *Ring {
	if r, ok := rec.rings[node]; ok {
		return r
	}
	r := &Ring{node: node, buf: make([]Event, rec.cap)}
	rec.rings[node] = r
	return r
}

// Nodes returns the ids of all nodes with a ring, sorted.
func (rec *Recorder) Nodes() []int {
	out := make([]int, 0, len(rec.rings))
	for id := range rec.rings {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}
