package core

import (
	"portals3/internal/flightrec"
	"portals3/internal/sim"
)

// EventType enumerates Portals event kinds (ptl_event_kind_t).
type EventType int

// Event kinds. START events fire when the library begins processing an
// operation (the header has been matched); END events fire when the data
// movement has completed.
const (
	// EventGetStart/End: an incoming get began/finished at the target.
	EventGetStart EventType = iota
	EventGetEnd
	// EventPutStart/End: an incoming put began/finished at the target.
	EventPutStart
	EventPutEnd
	// EventReplyStart/End: the reply to our get began/finished arriving.
	EventReplyStart
	EventReplyEnd
	// EventSendStart/End: our outgoing put began/finished transmission
	// (END means the local buffer may be reused).
	EventSendStart
	EventSendEnd
	// EventAck: the acknowledgment for our put arrived.
	EventAck
	// EventUnlink: a match entry or memory descriptor was automatically
	// unlinked (threshold or max_size exhaustion).
	EventUnlink
)

func (t EventType) String() string { return flightrec.EventName(int(t)) }

// Event is one entry in an event queue (ptl_event_t).
type Event struct {
	Type      EventType
	Initiator ProcessID // who caused the event
	UID       uint32
	PtlIndex  int
	MatchBits uint64
	RLength   int // requested length
	MLength   int // manipulated (actually moved) length
	Offset    int // offset the operation used in the descriptor
	MD        MDHandle
	User      interface{} // the descriptor's user pointer (ptl_event_t md.user_ptr)
	HdrData   uint64
	Unlinked  bool // the operation auto-unlinked the descriptor
	NIFail    bool // delivery failed (end-to-end CRC error)
	Sequence  uint64
	At        sim.Time // virtual time the event was posted (diagnostic)
}

// EQ is an event queue: a ring of the depth given to EQAlloc, written by the
// library and read by the application. Overflow drops the newest events and
// poisons the queue with ErrEQDropped, as the specification requires. A
// queue has no wake-up of its own: every post raises its library's one
// event signal (Lib.Events), and a waiter re-checks its own queues.
//
// The depth is what is modelled; the host backs only what a queue has held
// at once. The ring starts at eqFirstRing slots and doubles, up to depth,
// when an event arrives with every slot occupied.
type EQ struct {
	lib     *Lib
	handle  EQHandle
	depth   int     // slots EQAlloc was asked for: overflow is count == depth
	ring    []Event // len(ring) <= depth
	head    int     // next slot to read
	count   int     // occupied slots
	dropped bool
	seq     uint64
	freed   bool
}

// eqFirstRing is the ring a queue starts with, in events of 128 bytes. The
// most any queue holds at once is 2 events in the 512-rank collective, 4 in
// the halo and in the figure sweeps, and up to 64 in the paced traffic
// generator's bursts (half its queues pass 16, a fifth pass 32, none 64). 16
// covers the first three with nothing to grow and leaves the bursts two
// doublings, 737 allocations in a 441,260-allocation job; 64 would spare
// those and cost every queue of a 32,768-rank machine 6 KB more.
const eqFirstRing = 16

func newEQ(lib *Lib, h EQHandle, size int) *EQ {
	return &EQ{lib: lib, handle: h, depth: size, ring: make([]Event, min(size, eqFirstRing))}
}

// grow doubles a full ring, unwrapping it so the oldest event lands in slot 0.
func (q *EQ) grow() {
	ring := make([]Event, min(2*len(q.ring), q.depth))
	n := copy(ring, q.ring[q.head:])
	copy(ring[n:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// post appends an event, dropping it (and poisoning the queue) on overflow.
// The wakeup signal may be deferred by the NAL driver (Lib.BeginDefer) so
// blocked processes resume only when the kernel finishes processing the
// triggering message, as on the real machine.
func (q *EQ) post(ev Event) {
	if q.lib.deferWake {
		q.lib.deferred = append(q.lib.deferred, deferredEvent{q: q, ev: ev})
		return
	}
	q.insert(ev)
}

// insert writes the event record into the (host-memory) ring and raises the
// library's event signal, also when overflow drops the record.
func (q *EQ) insert(ev Event) {
	if q.freed {
		return
	}
	q.seq++
	ev.Sequence = q.seq
	ev.At = q.lib.sim.Now()
	if q.count == q.depth {
		q.dropped = true
		q.lib.counters.eqDrops++
	} else {
		if q.count == len(q.ring) {
			q.grow()
		}
		q.ring[(q.head+q.count)%len(q.ring)] = ev
		q.count++
	}
	if q.lib.FR != nil {
		q.lib.FR.Put(flightrec.Event{T: ev.At, Kind: flightrec.KEQPost, Sub: uint8(ev.Type),
			Span: ev.Sequence, A: q.lib.id.Pid, B: uint32(ev.MLength)})
	}
	q.lib.events.Raise()
}

// get removes the oldest event. It returns ErrEQDropped (with a valid
// event, if one is available) when overflow has lost events, clearing the
// poisoned state; ErrEQEmpty when nothing is pending.
func (q *EQ) get() (Event, error) {
	if q.count == 0 {
		if q.dropped {
			q.dropped = false
			return Event{}, ErrEQDropped
		}
		return Event{}, ErrEQEmpty
	}
	ev := q.ring[q.head]
	q.head = (q.head + 1) % len(q.ring)
	q.count--
	if q.dropped {
		q.dropped = false
		return ev, ErrEQDropped
	}
	return ev, nil
}

// Pending reports queued events.
func (q *EQ) Pending() int { return q.count }

// Empty reports whether a get would find nothing: no event, and no overflow
// to report.
func (q *EQ) Empty() bool { return q.count == 0 && !q.dropped }
