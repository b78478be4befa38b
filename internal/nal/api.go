package nal

import (
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

	lib *core.Lib
	br  Bridge
	p   *model.Params
}

// NewAPI binds an API front end to a library instance through a bridge.
// The machine layer calls this; tests may too.
func NewAPI(proc *sim.Proc, lib *core.Lib, br Bridge, p *model.Params) *API {
	return &API{Proc: proc, lib: lib, br: br, p: p}
}

// call charges one API crossing and serializes against in-progress driver
// processing of the same library (the kernel-lock semantics the receive
// protocols depend on).
func (a *API) call() {
	a.br.Cross(a.Proc)
	a.lib.AwaitUnlocked(a.Proc)
	a.Proc.Sleep(a.p.HostCycles(a.p.HostAPICycles))
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
// a Signal on the queue, with the crossing cost per check.
func (a *API) EQWait(h core.EQHandle) (core.Event, error) {
	for {
		a.call()
		ev, err := a.lib.EQGet(h)
		if err != core.ErrEQEmpty {
			return ev, err
		}
		q, ok := a.lib.EQ(h)
		if !ok {
			return core.Event{}, core.ErrInvalidHandle
		}
		q.Signal().Wait(a.Proc)
	}
}

// EQPoll waits on several queues with a timeout (PtlEQPoll). It returns
// the queue index alongside the event; ErrEQEmpty signals timeout. Pass
// sim.Never for no timeout.
func (a *API) EQPoll(hs []core.EQHandle, timeout sim.Time) (core.Event, int, error) {
	deadline := sim.Never
	if timeout != sim.Never {
		deadline = a.Proc.Now() + timeout
	}
	for {
		a.call()
		for i, h := range hs {
			ev, err := a.lib.EQGet(h)
			if err != core.ErrEQEmpty {
				return ev, i, err
			}
		}
		if len(hs) == 0 {
			return core.Event{}, -1, core.ErrInvalidHandle
		}
		// Sleep until any of the polled queues delivers: an aggregate
		// signal fans in every queue's wakeup. Stale registrations from
		// earlier rounds raise the aggregate with no waiter, which is
		// harmless — the loop re-polls every queue after each wake.
		agg := sim.NewSignal(a.Proc.Sim())
		registered := false
		for _, h := range hs {
			if q, ok := a.lib.EQ(h); ok {
				q.Signal().Notify(func() { agg.Raise() })
				registered = true
			}
		}
		if !registered {
			return core.Event{}, -1, core.ErrInvalidHandle
		}
		if deadline == sim.Never {
			agg.Wait(a.Proc)
			continue
		}
		remaining := deadline - a.Proc.Now()
		if remaining <= 0 {
			return core.Event{}, -1, core.ErrEQEmpty
		}
		if !agg.WaitTimeout(a.Proc, remaining) && a.Proc.Now() >= deadline {
			return core.Event{}, -1, core.ErrEQEmpty
		}
	}
}

// ACEntry installs an access control entry (PtlACEntry).
func (a *API) ACEntry(index int, uid uint32, matchID core.ProcessID, ptl int) error {
	a.call()
	return a.lib.ACEntry(index, uid, matchID, ptl)
}

// sendSetup charges the host-side transmit preparation: header build,
// pending allocation, command push, and — for non-contiguous buffers — the
// per-page DMA command pre-computation of §3.3.
func (a *API) sendSetup(h core.MDHandle, off, length int) {
	cycles := a.p.HostTxSetupCycles
	if r, ok := a.lib.MDRegion(h); ok && r.Segments() > 1 && length > 0 {
		page := int(a.p.PageBytes)
		segs := (off+length-1)/page - off/page + 1
		cycles += int64(segs) * a.p.HostPerPageCycles
	}
	a.Proc.Sleep(a.p.HostCycles(cycles))
}

// Put transmits the descriptor's memory to the target (PtlPut).
func (a *API) Put(md core.MDHandle, ack core.AckReq, target core.ProcessID, ptl int,
	matchBits uint64, remoteOffset int, hdrData uint64) error {
	a.call()
	length := 0
	if r, ok := a.lib.MDRegion(md); ok {
		length = r.Len()
	}
	a.sendSetup(md, 0, length)
	return a.lib.Put(md, ack, target, ptl, matchBits, remoteOffset, hdrData)
}

// PutRegion transmits part of the descriptor's memory (PtlPutRegion).
func (a *API) PutRegion(md core.MDHandle, localOffset, length int, ack core.AckReq,
	target core.ProcessID, ptl int, matchBits uint64, remoteOffset int, hdrData uint64) error {
	a.call()
	a.sendSetup(md, localOffset, length)
	return a.lib.PutRegion(md, localOffset, length, ack, target, ptl, matchBits, remoteOffset, hdrData)
}

// Get requests the target's matched memory (PtlGet).
func (a *API) Get(md core.MDHandle, target core.ProcessID, ptl int, matchBits uint64, remoteOffset int) error {
	a.call()
	a.Proc.Sleep(a.p.HostCycles(a.p.HostTxSetupCycles))
	return a.lib.Get(md, target, ptl, matchBits, remoteOffset)
}

// GetRegion requests part of the target's matched memory (PtlGetRegion).
func (a *API) GetRegion(md core.MDHandle, localOffset, length int, target core.ProcessID,
	ptl int, matchBits uint64, remoteOffset int) error {
	a.call()
	a.Proc.Sleep(a.p.HostCycles(a.p.HostTxSetupCycles))
	return a.lib.GetRegion(md, localOffset, length, target, ptl, matchBits, remoteOffset)
}

// Lib exposes the underlying library for white-box tests and tools.
func (a *API) Lib() *core.Lib { return a.lib }

// Bridge reports which bridge this API crosses.
func (a *API) Bridge() string { return a.br.Name() }
