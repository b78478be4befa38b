package core

import (
	"fmt"

	"portals3/internal/flightrec"
	"portals3/internal/sim"
	"portals3/internal/wire"
)

// Backend is what the library requires from the layer below it — in the
// paper's architecture, the library-to-network half of the NAL (the SSNAL).
// The generic-mode backend pushes commands to the firmware through the OS
// kernel; the accelerated-mode backend posts them to a dedicated mailbox.
type Backend interface {
	// Send queues one outgoing message. The backend owns pacing and must
	// eventually call Lib.SendDone (puts), Lib.ReplySent (get replies at
	// the target) or nothing (acks) as transmission completes.
	Send(req *SendReq)
	// Distance returns the network hop count to nid (PtlNIDist).
	Distance(nid uint32) int
}

// SendReq is one message the library asks the backend to transmit. The
// library composes the wire header; the backend only moves it.
type SendReq struct {
	Hdr    wire.Header
	Region Region // payload source; nil when the message carries none
	Off    int    // payload offset within Region
	Len    int    // payload length
	MD     MDHandle
	RxOp   *RxOp // for get replies: the target-side op to complete at TX done
}

// acEntry is one access control list slot (PtlACEntry).
type acEntry struct {
	valid   bool
	uid     uint32
	matchID ProcessID
	ptl     int // portal index or PtlIndexAny
}

// PtlIndexAny is the ACL wildcard portal index (PTL_PT_INDEX_ANY).
const PtlIndexAny = -1

// ptlEntry is one portal table slot: a match list.
type ptlEntry struct {
	head, tail *me
	count      int
}

// Lib is the Portals library state for one process on one network
// interface: the portal table, the match entries, memory descriptors, event
// queues and access control list. It is pure bookkeeping — all crossing and
// processing costs are charged by the NAL layer that invokes it, so the same
// instance can be driven from the host kernel (generic mode) or the NIC
// firmware (accelerated mode), as on the real machine.
type Lib struct {
	// FR, when non-nil, is the node's flight-recorder ring: event-queue
	// posts are recorded on it.
	FR *flightrec.Ring

	sim     *sim.Sim
	id      ProcessID
	uid     uint32
	limits  Limits
	backend Backend

	ptable []ptlEntry
	mes    table[me]
	mds    table[md]
	eqs    table[EQ]
	acl    []acEntry

	status   [srCount]uint64
	counters struct {
		eqDrops uint64
	}
	deferWake bool
	deferred  []deferredEvent
	locked    bool
	lockSig   *sim.Signal
	// events is raised by every post that reaches a live queue and by
	// EQFree: the one wake-up of all the library's queues, built by the
	// first EQAlloc. Both signals sit behind pointers: held by value they
	// would take the Lib past its size class.
	events *sim.Signal
	// Free lists for the per-message bookkeeping structures. Receive
	// operations are recycled at their terminal calls (Delivered,
	// ReplySent); send requests when transmission completes (SendDone) or
	// when the driver hands one back (FreeSendReq). Dropped operations are
	// simply left to the garbage collector.
	opFree  []*RxOp
	reqFree []*SendReq
	meFree  []*me
	mdFree  []*md
	// DropCounts tallies drops by reason, for tests and diagnostics.
	DropCounts [DropCRC + 1]uint64
}

// NewLib creates the library state for process id with the given resource
// limits. A permissive ACL entry is installed at index 0, as the reference
// implementation does, so simple programs work before touching the ACL.
func NewLib(s *sim.Sim, id ProcessID, uid uint32, limits Limits, backend Backend) *Lib {
	limits = limits.withDefaults()
	l := &Lib{
		sim:     s,
		id:      id,
		uid:     uid,
		limits:  limits,
		backend: backend,
		ptable:  make([]ptlEntry, limits.MaxPtIndices),
		mes:     newTable[me](limits.MaxMEs),
		mds:     newTable[md](limits.MaxMDs),
		eqs:     newTable[EQ](limits.MaxEQs),
		acl:     make([]acEntry, limits.MaxACEntries),
	}
	l.acl[0] = acEntry{valid: true, uid: UIDAny, matchID: ProcessID{NidAny, PidAny}, ptl: PtlIndexAny}
	l.lockSig = &sim.Signal{}
	return l
}

// Lock marks the library busy with driver-side message processing. API
// calls arriving meanwhile wait in AwaitUnlocked — the analogue of the
// kernel lock that serializes user API calls against the interrupt
// handler in the real implementation. Without it, the MDUpdate-conditional
// receive protocol has a race: a message could be matched to an overflow
// buffer while an application observes an empty event queue and arms a
// descriptor the message will never see.
func (l *Lib) Lock() { l.locked = true }

// Unlock releases the processing lock and wakes waiting API callers.
func (l *Lib) Unlock() {
	l.locked = false
	l.lockSig.Raise()
}

// Locked reports whether driver-side processing holds the library.
func (l *Lib) Locked() bool { return l.locked }

// AwaitUnlocked blocks the calling process while the library is locked.
func (l *Lib) AwaitUnlocked(p *sim.Proc) {
	for l.locked {
		l.lockSig.Wait(p)
	}
}

// ID returns the process identifier (PtlGetId).
func (l *Lib) ID() ProcessID { return l.id }

// UID returns the user identifier (PtlGetUid).
func (l *Lib) UID() uint32 { return l.uid }

// Limits returns the active resource limits.
func (l *Lib) Limits() Limits { return l.limits }

// Status reads an NI status register (PtlNIStatus).
func (l *Lib) Status(r StatusRegister) uint64 {
	if r < 0 || r >= srCount {
		return 0
	}
	return l.status[r]
}

// Distance returns the hop count to nid (PtlNIDist).
func (l *Lib) Distance(nid uint32) int { return l.backend.Distance(nid) }

// ACEntry installs an access control entry (PtlACEntry): messages from
// processes matching matchID with user id uid may target portal index ptl
// (or any index, with PtlIndexAny).
func (l *Lib) ACEntry(index int, uid uint32, matchID ProcessID, ptl int) error {
	if index < 0 || index >= len(l.acl) {
		return ErrAcIndexInvalid
	}
	if ptl != PtlIndexAny && (ptl < 0 || ptl >= len(l.ptable)) {
		return ErrPtIndexInvalid
	}
	l.acl[index] = acEntry{valid: true, uid: uid, matchID: matchID, ptl: ptl}
	return nil
}

// ACClear removes an access control entry.
func (l *Lib) ACClear(index int) error {
	if index < 0 || index >= len(l.acl) {
		return ErrAcIndexInvalid
	}
	l.acl[index] = acEntry{}
	return nil
}

// aclPermits checks the sender against the ACL.
func (l *Lib) aclPermits(uid uint32, src ProcessID, ptl int) bool {
	for _, e := range l.acl {
		if !e.valid {
			continue
		}
		if (e.uid == UIDAny || e.uid == uid) && e.matchID.Matches(src) &&
			(e.ptl == PtlIndexAny || e.ptl == ptl) {
			return true
		}
	}
	return false
}

// ---- Event queues ----

// EQAlloc creates an event queue holding count events (PtlEQAlloc).
func (l *Lib) EQAlloc(count int) (EQHandle, error) {
	if count <= 0 {
		return EQHandle(InvalidHandle), ErrInvalidArg
	}
	q := &EQ{}
	h, err := l.eqs.alloc(q)
	if err != nil {
		return EQHandle(InvalidHandle), err
	}
	*q = *newEQ(l, EQHandle(h), count)
	if l.events == nil {
		l.events = &sim.Signal{}
	}
	return EQHandle(h), nil
}

// EQFree destroys an event queue (PtlEQFree). Memory descriptors still
// referencing it keep a dangling handle, as in C; their event posts are
// silently discarded (the freed flag).
func (l *Lib) EQFree(h EQHandle) error {
	q, ok := l.eqs.get(uint32(h))
	if !ok {
		return ErrInvalidHandle
	}
	q.freed = true
	l.events.Raise()
	l.eqs.release(uint32(h))
	return nil
}

// EQGet returns the next event without blocking (PtlEQGet). ErrEQEmpty when
// none is pending; ErrEQDropped (possibly with a valid event) after
// overflow.
func (l *Lib) EQGet(h EQHandle) (Event, error) {
	q, ok := l.eqs.get(uint32(h))
	if !ok {
		return Event{}, ErrInvalidHandle
	}
	return q.get()
}

// EQ resolves an event queue handle for NAL-level blocking support.
func (l *Lib) EQ(h EQHandle) (*EQ, bool) {
	return l.eqs.get(uint32(h))
}

// Events is the signal every post to one of the library's queues raises,
// dropped posts included, and EQFree too; the NAL's blocking calls wait on
// it and re-check their own queues. It is nil until the first EQAlloc.
func (l *Lib) Events() *sim.Signal { return l.events }

// eqFor resolves an MD's event queue, nil when absent or freed. Both NoEQ
// and the zero value mean "no queue".
func (l *Lib) eqFor(h EQHandle) *EQ {
	if h == NoEQ || h == 0 {
		return nil
	}
	q, ok := l.eqs.get(uint32(h))
	if !ok || q.freed {
		return nil
	}
	return q
}

// deferredEvent is an event generated mid-handler, delivered at EndDefer.
type deferredEvent struct {
	q  *EQ
	ev Event
}

// BeginDefer suspends event delivery: the library's state changes apply
// immediately, but event records reach their (application-visible) queues
// only at EndDefer. NAL drivers bracket their per-message processing with
// this pair so applications observe events when the kernel handler
// completes, not mid-handler — the real driver writes the user-space event
// queue as its final act.
func (l *Lib) BeginDefer() { l.deferWake = true }

// EndDefer delivers every deferred event and re-enables direct delivery.
func (l *Lib) EndDefer() {
	l.deferWake = false
	evs := l.deferred
	for _, d := range evs {
		d.q.insert(d.ev)
	}
	// Delivery runs with deferWake off, so nothing appended meanwhile:
	// rewind in place and keep the buffer's capacity for the next message.
	l.deferred = evs[:0]
}

// drop records a dropped incoming message.
func (l *Lib) drop(reason DropReason) {
	l.status[SRDropCount]++
	l.DropCounts[reason]++
}

func (l *Lib) String() string {
	return fmt.Sprintf("lib(%v)", l.id)
}
