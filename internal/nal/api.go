package nal

import (
	"math"

	"portals3/internal/core"
	"portals3/internal/model"
	"portals3/internal/sim"
)

// API is the user-level Portals 3.3 interface bound to one application
// process: every method is one Ptl* call, paying the bridge crossing and
// the library processing costs before the (pure) library state machine in
// package core runs. Applications receive an API from the machine layer
// when they are spawned.
type API struct {
	// Proc is the owning application coroutine; API calls may only be made
	// from it.
	Proc *sim.Proc

	lib   *core.Lib
	p     *model.Params
	cross sim.Time // the bridge's crossing cost

	// The call under way, for its chain (Step): where it stands, what
	// follows its library cost and that tail's arguments — the descriptor or
	// event queue, the pages a PutRegion spans, or an EQPoll's queues, its
	// deadline and whether its deadline event is queued; and the number of
	// the last EQPoll, which that event checks. The struct fills its 80-byte
	// size class: every process has one.
	polled   []core.EQHandle
	deadline sim.Time
	stage    stage
	tail     tail
	armed    bool
	handle   uint32
	pages    uint32
	polls    uint32
}

// NewAPI binds an API front end to a library instance through a bridge.
// The machine layer calls this; tests may too.
func NewAPI(proc *sim.Proc, lib *core.Lib, br Bridge, p *model.Params) *API {
	return &API{Proc: proc, lib: lib, p: p, cross: br.Cross()}
}

// stage is where a call's chain stands: the cost it has just paid.
type stage uint8

const (
	crossed stage = iota // the bridge crossing: the library cost is next, unless a driver holds the library
	charged              // the library cost: the tail is next
	setUp                // a transmit's set-up: the call is done
	raised               // EQWait: the library's events were raised, the call begins again if its queue is not empty
	polling              // EQPoll: waiting on the library's events, whose raise begins the call again
	expired              // EQPoll: its deadline event ended the wait
	done
)

// tail is what a call does once its library cost is paid, before the
// library state machine runs.
type tail uint8

const (
	tailNone   tail = iota
	tailPut         // the transmit set-up of the whole descriptor
	tailRegion      // the transmit set-up of a part of the descriptor
	tailGet         // a get's transmit set-up
	tailEQ          // EQWait: wait on the queue while it is empty
	tailPoll        // EQPoll: wait on the library's events while every queue is empty
)

// call charges one API crossing and serializes against in-progress driver
// processing of the same library (the kernel-lock semantics the receive
// protocols depend on).
func (a *API) call() { a.charge(tailNone) }

// charge makes a call's host-side charges and then its tail: the bridge
// crossing, the wait while a driver holds the library, the library cost,
// then a transmit's set-up or an EQWait's wait. The process parks once for
// all of them, each wake-up between being a Step on the event loop. Only a
// driver holding the library past the crossing resumes the process early:
// it waits for the lock itself and chains the rest.
func (a *API) charge(t tail) {
	a.tail = t
	a.stage = crossed
	if a.cross > 0 {
		a.Proc.Chain(a.cross, a)
	}
	for a.stage == crossed {
		a.lib.AwaitUnlocked(a.Proc)
		a.stage = charged
		a.Proc.Chain(a.p.HostCycles(a.p.HostAPICycles), a)
	}
}

// Step is the call's chain (sim.Step), called only by the chain: at each
// wake-up it does what the process would do next and answers the sleep or
// wait that follows, until the call is done or a driver holds the library.
func (a *API) Step(proc *sim.Proc) sim.Next {
	switch a.stage {
	case raised:
		if q, ok := a.lib.EQ(core.EQHandle(a.handle)); ok && q.Empty() {
			// The raise was for another of the library's queues.
			return sim.WaitFor(a.lib.Events())
		}
		fallthrough
	case polling:
		a.stage = crossed
		if a.cross > 0 {
			return sim.SleepFor(a.cross)
		}
		fallthrough
	case crossed:
		if a.lib.Locked() {
			return sim.Resume()
		}
		a.stage = charged
		return sim.SleepFor(a.p.HostCycles(a.p.HostAPICycles))
	case charged:
		switch a.tail {
		case tailEQ:
			// The process takes the event itself, at this instant; an empty
			// queue is waited on, and a raise that leaves it non-empty (or
			// frees it) begins the call again.
			if q, ok := a.lib.EQ(core.EQHandle(a.handle)); ok && q.Empty() {
				a.stage = raised
				return sim.WaitFor(a.lib.Events())
			}
		case tailPoll:
			// Every queue is polled at this instant: the process is resumed
			// only to take an event, to report a bad handle, or at the
			// deadline; else the call waits again, and a deadline arms one
			// event at the first wait.
			if len(a.polled) > 0 && !a.ready() && proc.Now() < a.deadline {
				if !a.armed {
					a.armed = true
					proc.Sim().At(a.deadline, a.expire(a.polls))
				}
				a.stage = polling
				return sim.WaitFor(a.lib.Events())
			}
		case tailPut, tailRegion, tailGet:
			a.stage = setUp
			return sim.SleepFor(a.sendSetup())
		}
	case expired:
		return sim.Resume()
	}
	a.stage = done
	return sim.Resume()
}

// ID returns this process's Portals id (PtlGetId).
func (a *API) ID() core.ProcessID { a.call(); return a.lib.ID() }

// UID returns this process's user id (PtlGetUid).
func (a *API) UID() uint32 { a.call(); return a.lib.UID() }

// NIStatus reads a status register (PtlNIStatus).
func (a *API) NIStatus(r core.StatusRegister) uint64 { a.call(); return a.lib.Status(r) }

// NIDist returns the network distance to nid in hops (PtlNIDist).
func (a *API) NIDist(nid uint32) int { a.call(); return a.lib.Distance(nid) }

// MEAttach creates a match entry on a portal index (PtlMEAttach).
func (a *API) MEAttach(ptl int, matchID core.ProcessID, matchBits, ignoreBits uint64,
	unlink core.Unlink, pos core.Position) (core.MEHandle, error) {
	a.call()
	return a.lib.MEAttach(ptl, matchID, matchBits, ignoreBits, unlink, pos)
}

// MEAttachAny claims the first unused portal index (PtlMEAttachAny).
func (a *API) MEAttachAny(matchID core.ProcessID, matchBits, ignoreBits uint64,
	unlink core.Unlink, pos core.Position) (int, core.MEHandle, error) {
	a.call()
	return a.lib.MEAttachAny(matchID, matchBits, ignoreBits, unlink, pos)
}

// MEInsert creates a match entry adjacent to an existing one (PtlMEInsert).
func (a *API) MEInsert(base core.MEHandle, matchID core.ProcessID, matchBits, ignoreBits uint64,
	unlink core.Unlink, pos core.Position) (core.MEHandle, error) {
	a.call()
	return a.lib.MEInsert(base, matchID, matchBits, ignoreBits, unlink, pos)
}

// MEUnlink removes a match entry (PtlMEUnlink).
func (a *API) MEUnlink(h core.MEHandle) error { a.call(); return a.lib.MEUnlink(h) }

// MDAttach attaches a memory descriptor to a match entry (PtlMDAttach).
func (a *API) MDAttach(me core.MEHandle, d core.MDesc, unlink core.Unlink) (core.MDHandle, error) {
	a.call()
	return a.lib.MDAttach(me, d, unlink)
}

// MDBind creates a free-floating memory descriptor (PtlMDBind).
func (a *API) MDBind(d core.MDesc) (core.MDHandle, error) { a.call(); return a.lib.MDBind(d) }

// MDUnlink destroys a memory descriptor (PtlMDUnlink).
func (a *API) MDUnlink(h core.MDHandle) error { a.call(); return a.lib.MDUnlink(h) }

// MDUpdate conditionally replaces a descriptor (PtlMDUpdate). The
// re-acquire immediately before the operation makes the test-and-update
// atomic with respect to driver message processing — the property the
// race-free receive protocol needs.
func (a *API) MDUpdate(h core.MDHandle, old, newDesc *core.MDesc, testEQ core.EQHandle) error {
	a.call()
	a.lib.AwaitUnlocked(a.Proc)
	return a.lib.MDUpdate(h, old, newDesc, testEQ)
}

// EQAlloc creates an event queue (PtlEQAlloc).
func (a *API) EQAlloc(count int) (core.EQHandle, error) { a.call(); return a.lib.EQAlloc(count) }

// EQFree destroys an event queue (PtlEQFree).
func (a *API) EQFree(h core.EQHandle) error { a.call(); return a.lib.EQFree(h) }

// EQGet polls one event without blocking (PtlEQGet).
func (a *API) EQGet(h core.EQHandle) (core.Event, error) { a.call(); return a.lib.EQGet(h) }

// EQWait blocks until an event is available (PtlEQWait). In generic mode
// the process sleeps in the kernel and the interrupt path wakes it; in
// accelerated mode the user-level library polls — either way the wait is
// on the library's event signal, with the crossing cost per check that
// finds the queue non-empty.
func (a *API) EQWait(h core.EQHandle) (core.Event, error) {
	a.handle = uint32(h)
	a.charge(tailEQ)
	return a.lib.EQGet(h)
}

// EQPoll waits on several queues with a timeout (PtlEQPoll). It returns
// the queue index alongside the event; ErrEQEmpty signals timeout. Pass
// sim.Never for no timeout.
//
// Each round is a call that polls every queue and then waits on the
// library's event signal, which a post to any queue raises. The rounds are
// the call's chain (Step): a raise begins the call again on the event loop,
// and the process is resumed once a round finds something. A call with a
// timeout that waits schedules one deadline event; it raises the signal only
// if this same call is still waiting then, and the call returns at the
// deadline.
func (a *API) EQPoll(hs []core.EQHandle, timeout sim.Time) (core.Event, int, error) {
	a.polled, a.deadline = hs, sim.Never
	if timeout != sim.Never {
		a.deadline = a.Proc.Now() + timeout
	}
	a.armed = a.deadline == sim.Never // no deadline event to schedule
	a.polls++
	a.charge(tailPoll)
	a.polled = nil
	if a.stage == expired {
		return core.Event{}, -1, core.ErrEQEmpty // the deadline event woke the call
	}
	for i, h := range hs {
		ev, err := a.lib.EQGet(h)
		if err != core.ErrEQEmpty {
			return ev, i, err
		}
	}
	if len(hs) == 0 {
		return core.Event{}, -1, core.ErrInvalidHandle
	}
	return core.Event{}, -1, core.ErrEQEmpty
}

// ready reports whether a get from one of the polled queues would find
// something: an event, an overflow or a bad handle.
func (a *API) ready() bool {
	for _, h := range a.polled {
		if q, ok := a.lib.EQ(h); !ok || !q.Empty() {
			return true
		}
	}
	return false
}

// expire is poll number n's deadline event: it ends the wait of that call,
// if it is still waiting.
func (a *API) expire(n uint32) func() {
	return func() {
		if a.polls == n && a.stage == polling {
			a.stage = expired
			a.lib.Events().Raise()
		}
	}
}

// ACEntry installs an access control entry (PtlACEntry).
func (a *API) ACEntry(index int, uid uint32, matchID core.ProcessID, ptl int) error {
	a.call()
	return a.lib.ACEntry(index, uid, matchID, ptl)
}

// sendSetup is the host-side transmit preparation of the call's tail:
// header build, pending allocation, command push, and — for non-contiguous
// buffers — the per-page DMA command pre-computation of §3.3.
func (a *API) sendSetup() sim.Time {
	cycles := a.p.HostTxSetupCycles
	if a.tail == tailGet {
		return a.p.HostCycles(cycles)
	}
	if r, ok := a.lib.MDRegion(core.MDHandle(a.handle)); ok && r.Segments() > 1 {
		pages := a.pages
		if a.tail == tailPut {
			pages = a.spanned(0, r.Len())
		}
		cycles += int64(pages) * a.p.HostPerPageCycles
	}
	return a.p.HostCycles(cycles)
}

// spanned is the number of pages the length bytes at off touch, 0 for none.
func (a *API) spanned(off, length int) uint32 {
	if length <= 0 {
		return 0
	}
	page := int(a.p.PageBytes)
	return uint32(min((off+length-1)/page-off/page+1, math.MaxUint32))
}

// Put transmits the descriptor's memory to the target (PtlPut).
func (a *API) Put(md core.MDHandle, ack core.AckReq, target core.ProcessID, ptl int,
	matchBits uint64, remoteOffset int, hdrData uint64) error {
	a.handle = uint32(md)
	a.charge(tailPut)
	return a.lib.Put(md, ack, target, ptl, matchBits, remoteOffset, hdrData)
}

// PutRegion transmits part of the descriptor's memory (PtlPutRegion).
func (a *API) PutRegion(md core.MDHandle, localOffset, length int, ack core.AckReq,
	target core.ProcessID, ptl int, matchBits uint64, remoteOffset int, hdrData uint64) error {
	a.handle, a.pages = uint32(md), a.spanned(localOffset, length)
	a.charge(tailRegion)
	return a.lib.PutRegion(md, localOffset, length, ack, target, ptl, matchBits, remoteOffset, hdrData)
}

// Get requests the target's matched memory (PtlGet).
func (a *API) Get(md core.MDHandle, target core.ProcessID, ptl int, matchBits uint64, remoteOffset int) error {
	a.charge(tailGet)
	return a.lib.Get(md, target, ptl, matchBits, remoteOffset)
}

// GetRegion requests part of the target's matched memory (PtlGetRegion).
func (a *API) GetRegion(md core.MDHandle, localOffset, length int, target core.ProcessID,
	ptl int, matchBits uint64, remoteOffset int) error {
	a.charge(tailGet)
	return a.lib.GetRegion(md, localOffset, length, target, ptl, matchBits, remoteOffset)
}

// Lib exposes the underlying library for white-box tests and tools.
func (a *API) Lib() *core.Lib { return a.lib }
