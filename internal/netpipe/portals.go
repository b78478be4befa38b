package netpipe

import (
	"fmt"
	"sync"

	"portals3/internal/core"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/sim"
)

// The transmit payload pattern is shared by every sweep: one append-only
// buffer, grown under a lock to the largest size any run has asked for,
// instead of building (and garbage-collecting) a fresh 8 MB pattern per
// sweep point. Existing bytes are never rewritten, so a slice handed out
// here stays valid even while another driver worker grows the buffer.
var (
	fillMu  sync.Mutex
	fillPat []byte
)

// payloadPattern returns n deterministic payload bytes (byte i is i*11,
// NetPIPE's fill).
func payloadPattern(n int) []byte {
	fillMu.Lock()
	defer fillMu.Unlock()
	for len(fillPat) < n {
		fillPat = append(fillPat, byte(len(fillPat)*11))
	}
	return fillPat[:n:n]
}

// patternBuf is the module's transmit buffer: the shape of the region
// app.Alloc built — its length and segments, so Linux still pays per page —
// over the shared payload pattern, which is its content. Nothing writes it,
// and the pattern's bytes are never rewritten, so reading them as a message
// leaves sees what a copy made at set-up would have held.
type patternBuf struct {
	shape core.Region
	pat   []byte
}

func (b *patternBuf) Len() int                  { return b.shape.Len() }
func (b *patternBuf) Segments() int             { return b.shape.Segments() }
func (b *patternBuf) ReadAt(off int, p []byte)  { copy(p, b.pat[off:off+len(p)]) }
func (b *patternBuf) WriteAt(off int, p []byte) { panic("netpipe: the transmit buffer is read-only") }

// This file is the NetPIPE Portals module of paper §5.2: it "creates a
// memory descriptor for receiving messages on a Portal with a single match
// entry attached" and measures put and get operations in ping-pong,
// streaming, and bi-directional patterns directly against the Portals API.

const (
	npPtl  = 5
	npBits = 0x4E50 // "NP"
)

// npSide is one process's benchmark state.
type npSide struct {
	app    *machine.App
	eq     core.EQHandle
	rxBuf  core.Region
	sendMD core.MDHandle
	getMD  core.MDHandle
	peer   core.ProcessID
}

// setup creates the module's Portals objects. The receive descriptor uses
// a remotely managed offset so every message lands at offset zero — each
// round overwrites the previous one, like NetPIPE's fixed receive buffer —
// and allows both put and get so one descriptor serves every test.
func npSetup(app *machine.App, maxBytes int, peer core.ProcessID, op Op) *npSide {
	s := &npSide{app: app, peer: peer}
	eq, err := app.API.EQAlloc(4096)
	if err != nil {
		panic(err)
	}
	s.eq = eq
	me, err := app.API.MEAttach(npPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
		npBits, 0, core.Retain, core.After)
	if err != nil {
		panic(err)
	}
	// The get tests keep START events enabled: GET_START (the header has
	// been matched) is the turnaround trigger for the get ping-pong.
	opts := core.MDOpPut | core.MDOpGet | core.MDManageRemote
	if op == OpPut {
		opts |= core.MDEventStartDisable
	}
	s.rxBuf = app.Alloc(maxBytes)
	if _, err := app.API.MDAttach(me, core.MDesc{
		Region:    s.rxBuf,
		Threshold: core.ThresholdInfinite,
		Options:   opts,
		EQ:        eq,
	}, core.Retain); err != nil {
		panic(err)
	}
	s.sendMD, err = app.API.MDBind(core.MDesc{
		Region:    &patternBuf{app.Alloc(maxBytes), payloadPattern(maxBytes)},
		Threshold: core.ThresholdInfinite,
		Options:   core.MDEventStartDisable,
		EQ:        eq,
	})
	if err != nil {
		panic(err)
	}
	s.getMD, err = app.API.MDBind(core.MDesc{
		Region:    s.rxBuf,
		Threshold: core.ThresholdInfinite,
		Options:   core.MDEventStartDisable,
		EQ:        eq,
	})
	if err != nil {
		panic(err)
	}
	return s
}

func (s *npSide) now() sim.Time { return s.app.Proc.Now() }

// wait blocks until the next event of type want, discarding others (the
// module's event loop filters SEND_ENDs while waiting for data, exactly as
// the C module's PtlEQWait loop does).
func (s *npSide) wait(want core.EventType) core.Event {
	for {
		ev, err := s.app.API.EQWait(s.eq)
		if err != nil && err != core.ErrEQDropped {
			panic(fmt.Sprintf("netpipe: EQWait: %v", err))
		}
		if ev.Type == want {
			return ev
		}
	}
}

// put sends n bytes to the peer.
func (s *npSide) put(n int) {
	if err := s.app.API.PutRegion(s.sendMD, 0, n, core.NoAck, s.peer, npPtl, npBits, 0, 0); err != nil {
		panic(err)
	}
}

// get pulls n bytes from the peer.
func (s *npSide) get(n int) {
	if err := s.app.API.GetRegion(s.getMD, 0, n, s.peer, npPtl, npBits, 0); err != nil {
		panic(err)
	}
}

// RunPortals measures one Portals-module curve over a fresh two-node
// machine.
func RunPortals(p model.Params, op Op, pat Pattern, cfg Config) Result {
	return drive(p, op.String(), pat, cfg, func(m *machine.Machine, c *curve) {
		gate := sim.NewBarrier(m.S, 2) // both sides set up before timing begins
		// Peer ids are filled in after both Spawn calls return (pids are
		// assigned synchronously); the closures read them at run time.
		var ids [2]core.ProcessID
		run := func(rank int) func(app *machine.App) {
			return func(app *machine.App) {
				side := npSetup(app, cfg.MaxBytes, ids[1-rank], op)
				gate.Wait(app.Proc)
				if op == OpPut {
					c.run(rank, putModule{side})
				} else {
					c.run(rank, getModule{side})
				}
			}
		}
		app0, err := m.Spawn(0, "np0", cfg.Mode, run(0))
		if err != nil {
			panic(err)
		}
		app1, err := m.Spawn(1, "np1", cfg.Mode, run(1))
		if err != nil {
			panic(err)
		}
		ids[0], ids[1] = app0.ID(), app1.ID()
	})
}

// putModule is the put variant of the module. A ping-pong round and a
// bidir exchange both end when the peer's put lands (PUT_END); a streamed
// put paces on its local SEND_END only, and the receiver answers the
// warm-up and the whole block with a zero-length put each.
type putModule struct{ *npSide }

func (s putModule) round(n int)    { s.put(n); s.wait(core.EventPutEnd) }
func (s putModule) echo(n int)     { s.wait(core.EventPutEnd); s.put(n) }
func (s putModule) send(n int)     { s.put(n); s.wait(core.EventSendEnd) }
func (s putModule) recv(int)       { s.wait(core.EventPutEnd) }
func (s putModule) await()         { s.wait(core.EventPutEnd) }
func (s putModule) exchange(n int) { s.put(n); s.wait(core.EventPutEnd) }

// signal is a zero-length put; the block's last one also waits for its
// SEND_END.
func (s putModule) signal(last bool) {
	s.put(0)
	if last {
		s.wait(core.EventSendEnd)
	}
}

// getModule is the get variant. Ping-pong alternates pulls: rank 0 gets
// from rank 1, which, seeing its data taken (GET_START: the header has
// been matched), gets back; the handshakes pipeline, which is why the
// paper's get latency is below a full get round trip. Otherwise a get is
// "a blocking operation (for this benchmark) that cannot be pipelined"
// (§6): it waits for its reply. A streaming rank 1 is a passive data
// source whose descriptor answers gets by itself; it only drains the
// block's GET_ENDs so the next block starts clean, and signals nothing.
type getModule struct{ *npSide }

func (s getModule) round(n int)    { s.get(n); s.wait(core.EventGetStart) }
func (s getModule) echo(n int)     { s.wait(core.EventGetStart); s.get(n) }
func (s getModule) send(n int)     { s.get(n); s.wait(core.EventReplyEnd) }
func (s getModule) recv(int)       { s.wait(core.EventGetEnd) }
func (s getModule) signal(bool)    {}
func (s getModule) await()         {}
func (s getModule) exchange(n int) { s.get(n); s.wait(core.EventReplyEnd) }
