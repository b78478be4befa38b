// Package flightrec is the machine's flight recorder: a per-node ring of
// compact binary events written at every firmware state transition, in the
// spirit of the in-NIC event capture RDMA-era stacks lean on for
// post-mortem debugging. Recording follows the telemetry registry's rules —
// a record is a struct store into the ring, whose buffer doubles up to its
// capacity as it fills, and a nil *Ring is valid and disabled (one pointer
// test on the hot path, no allocation per event either way).
//
// Every firmware event carries a causal span id. A span is minted when the
// host submits a transmit request and propagates with the request onto the
// fabric message, its payload chunks, and the receiver's pending — so the
// complete hop-by-hop path of one message (submit, serialize, header tx,
// chunk tx, chunk rx, retransmissions, delivery, event post) can be
// reconstructed across nodes from a dump, even through go-back-n rewinds:
// a retransmission reuses the original request and therefore the original
// span. Span 0 means "node-scoped, no message attached" (control frames,
// pool watermarks observed outside a message's context).
//
// The rings are the machine's only event record. Beside the firmware's
// transitions they hold the trace kinds — wire injections and deliveries,
// host interrupts and kernel work, PowerPC handlers, Portals event posts —
// so one stream shows where each microsecond of a message went. A dump is
// the one artifact the rings leave; the Chrome timeline (Dump.WriteChrome)
// and the busy time per track and handler (Dump.RenderText) are renderings
// of it. A ring bound larger than the run's event count keeps every event.
package flightrec

import (
	"fmt"
	"strings"

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

	// The trace kinds: what the timeline's wire, host-cpu, seastar-ppc and
	// app tracks show. None belongs to a causal span, so Span carries the
	// kind's 64-bit argument instead (a message ID, a duration or an event
	// sequence number), and Sub a wire message type, a firmware handler
	// (HandlerName) or a Portals event type (EventName). A kind that lasts
	// is recorded when it ends, with its duration, so a ring stays in time
	// order.
	KWireTx     // packet injected at the source; Span=message ID, A=dst, B=length, Sub=wire type
	KWireRxHdr  // header packet delivered; Span=message ID, A=src, Sub=wire type
	KWireRxLast // last payload chunk delivered; Span=message ID, A=src
	KHostIrq    // host interrupt entry ended; Span=duration
	KHostWork   // kernel-context Portals processing ended; Span=duration
	KFwHandler  // firmware handler ended on the PowerPC; Span=duration, Sub=handler
	KEQPost     // Portals event posted to an event queue; Span=sequence, A=pid, B=mlength, Sub=event type
	kindCount
)

var kindNames = [...]string{
	"none", "cmd-dequeue", "pend-alloc", "pend-free", "src-hit", "src-alloc",
	"tx-serialize", "tx-header", "chunk-tx", "chunk-rx", "crc-fail",
	"gbn-ack-tx", "gbn-ack-rx", "gbn-nack-tx", "gbn-nack-rx", "gbn-rewind",
	"gbn-timeout", "ev-post", "irq-raise", "rx-header", "rx-done",
	"exhaust", "stall",
	"wire-tx", "wire-rx-hdr", "wire-rx-last", "host-irq", "host-work",
	"fw-handler", "eq-post",
}

func (k Kind) String() string { return named(kindNames[:], int(k), "kind") }

// trace reports whether k is one of the trace kinds.
func (k Kind) trace() bool { return k >= KWireTx && k < kindCount }

// handlerNames and eventNames are the firmware's handler names and the
// Portals event type names in the order of their codes. The recorder keeps
// them so that a dump renders without the model; fw and core name their
// values through HandlerName and EventName.
var (
	handlerNames = [...]string{"tx-program", "tx-done", "rx-header", "rx-done", "mailbox-cmd",
		"rx-program-local", "rx-discard-local", "release-local"}
	eventNames = [...]string{"GET_START", "GET_END", "PUT_START", "PUT_END",
		"REPLY_START", "REPLY_END", "SEND_START", "SEND_END", "ACK", "UNLINK"}
)

// HandlerName names firmware handler code h.
func HandlerName(h uint8) string { return named(handlerNames[:], int(h), "handler") }

// EventName names Portals event type code t.
func EventName(t int) string { return named(eventNames[:], t, "EventType") }

// named is names[i], or what(i) for a code outside the table.
func named(names []string, i int, what string) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", what, i)
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
// kind-specific arguments and a sub-kind. The struct is fixed-size (32
// bytes) and inline in the ring buffer; recording one is a bounds-checked
// store.
type Event struct {
	T    sim.Time
	Span uint64 // the causal span, or a trace kind's argument
	A, B uint32
	Kind Kind
	Sub  uint8
}

// SpanID is e's causal span: Span, or 0 for the trace kinds, whose Span
// field holds their argument.
func (e Event) SpanID() uint64 {
	if e.Kind.trace() {
		return 0
	}
	return e.Span
}

// Dur is a lasting trace kind's duration.
func (e Event) Dur() sim.Time { return sim.Time(e.Span) }

// ArgString renders the kind-specific arguments for timelines. A trace
// kind reads as its Chrome record does: name, then duration or arguments.
func (e Event) ArgString() string {
	if e.Kind.trace() {
		r := record(0, e)
		if r.Ph == "X" {
			return fmt.Sprintf("%s dur=%v", r.Name, r.Dur)
		}
		return r.Name + " " + strings.TrimPrefix(fmt.Sprint(r.Args), "map")
	}
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
	cap     int    // the buffer doubles up to cap events, then wraps
}

// Record stores one event without a sub-kind.
func (r *Ring) Record(k Kind, t sim.Time, span uint64, a, b uint32) {
	r.Put(Event{T: t, Span: span, A: a, B: b, Kind: k})
}

// Put stores one event. A full buffer doubles until it holds cap events;
// from then on each event overwrites the oldest.
func (r *Ring) Put(e Event) {
	if r == nil {
		return
	}
	if r.head == len(r.buf) {
		if len(r.buf) < r.cap {
			r.buf = append(r.buf, make([]Event, min(max(len(r.buf), 64), r.cap-len(r.buf)))...)
		} else {
			r.head = 0
		}
	}
	r.buf[r.head] = e
	r.head++
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
	if r.n > uint64(r.head) && len(r.buf) == r.cap { // wrapped
		return len(r.buf)
	}
	return r.head
}

// Dropped reports how many events were overwritten by wrap-around.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.n - uint64(r.Len())
}

// Events returns the ring contents oldest-first (a copy; snapshots must not
// alias the live buffer).
func (r *Ring) Events() []Event { return r.Newest(r.Len()) }

// Newest returns the newest n events the ring holds (every one when it
// holds fewer), oldest-first, as a copy.
func (r *Ring) Newest(n int) []Event {
	n = min(n, r.Len())
	if n <= 0 {
		return nil
	}
	out := make([]Event, 0, n)
	if start := r.head - n; start < 0 {
		out = append(out, r.buf[len(r.buf)+start:]...)
		return append(out, r.buf[:r.head]...)
	}
	return append(out, r.buf[r.head-n:r.head]...)
}

// Recorder owns the per-node rings, dense by node id.
type Recorder struct {
	cap   int
	rings []*Ring
}

// NewRecorder builds a recorder for nodes 0..nodes-1 whose rings hold
// capPerNode events each (DefaultRingEvents when capPerNode <= 0).
func NewRecorder(nodes, capPerNode int) *Recorder {
	if capPerNode <= 0 {
		capPerNode = DefaultRingEvents
	}
	return &Recorder{cap: capPerNode, rings: make([]*Ring, nodes)}
}

// Ring returns the ring for one node, building it on first use. The
// machine builds a node's ring with the node, so every later call — the
// fabric's, on the hot path — is a slice read that writes nothing.
func (rec *Recorder) Ring(node int) *Ring {
	if rec.rings[node] == nil {
		rec.rings[node] = &Ring{node: node, cap: rec.cap}
	}
	return rec.rings[node]
}
