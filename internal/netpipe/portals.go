package netpipe

import (
	"fmt"
	"sync"

	"portals3/internal/core"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
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
	// lat accumulates per-round latencies (RTT/2, in picoseconds) within
	// one ping-pong block; reset per size, so a point's percentiles cover
	// exactly its timed iterations.
	lat *telemetry.Histogram
}

// setup creates the module's Portals objects. The receive descriptor uses
// a remotely managed offset so every message lands at offset zero — each
// round overwrites the previous one, like NetPIPE's fixed receive buffer —
// and allows both put and get so one descriptor serves every test.
func npSetup(app *machine.App, maxBytes int, peer core.ProcessID, op Op) *npSide {
	s := &npSide{app: app, peer: peer, lat: telemetry.NewHistogram()}
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
	m := machine.NewPair(p)
	if cfg.Observe != nil {
		cfg.Observe(m)
	}
	sizes := Sizes(cfg.MaxBytes, cfg.Perturbation)
	var points []Point
	gate := sim.NewBarrier(m.S, 2) // both sides set up before timing begins

	// Peer ids are filled in after both Spawn calls return (pids are
	// assigned synchronously); the closures read them at run time.
	var ids [2]core.ProcessID
	run := func(rank int) func(app *machine.App) {
		return func(app *machine.App) {
			side := npSetup(app, cfg.MaxBytes, ids[1-rank], op)
			gate.Wait(app.Proc)
			for _, sz := range sizes {
				k := cfg.iters(sz)
				var elapsed sim.Time
				switch {
				case op == OpPut && pat == PingPong:
					elapsed = side.putPingPong(rank, sz, k)
				case op == OpPut && pat == Stream:
					elapsed = side.putStream(rank, sz, k)
				case op == OpPut && pat == Bidir:
					elapsed = side.putBidir(sz, k)
				case op == OpGet && pat == PingPong:
					elapsed = side.getPingPong(rank, sz, k)
				case op == OpGet && pat == Stream:
					elapsed = side.getStream(rank, sz, k)
				case op == OpGet && pat == Bidir:
					elapsed = side.getBidir(sz, k)
				}
				if rank == 0 {
					per := 1
					if pat != Stream {
						per = 2 // ping-pong rounds and bidir exchanges move two messages
					}
					pt := point(sz, k, elapsed, per, pat == PingPong)
					fillPercentiles(&pt, side.lat)
					points = append(points, pt)
				}
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
	m.Run()
	return Result{Series: op.String(), Pat: pat, Points: points}
}

// putPingPong: the classic alternating exchange; one warmup round, then k
// timed rounds. Latency = elapsed / (2k).
func (s *npSide) putPingPong(rank, sz, k int) sim.Time {
	if rank == 0 {
		s.put(sz)
		s.wait(core.EventPutEnd)
		s.lat.Reset()
		t0 := s.app.Proc.Now()
		for i := 0; i < k; i++ {
			t1 := s.app.Proc.Now()
			s.put(sz)
			s.wait(core.EventPutEnd)
			s.lat.Observe(int64((s.app.Proc.Now() - t1) / 2))
		}
		return s.app.Proc.Now() - t0
	}
	for i := 0; i < k+1; i++ {
		s.wait(core.EventPutEnd)
		s.put(sz)
	}
	return 0
}

// putStream: rank 0 fires k puts back to back, pacing only on local
// SEND_END (buffer reuse); rank 1 acknowledges the full batch with one
// zero-length put.
func (s *npSide) putStream(rank, sz, k int) sim.Time {
	if rank == 0 {
		s.put(sz) // warmup
		s.wait(core.EventSendEnd)
		s.wait(core.EventPutEnd) // peer's ready signal
		t0 := s.app.Proc.Now()
		for i := 0; i < k; i++ {
			s.put(sz)
			s.wait(core.EventSendEnd)
		}
		s.wait(core.EventPutEnd) // batch acknowledgment
		return s.app.Proc.Now() - t0
	}
	s.wait(core.EventPutEnd) // warmup
	s.put(0)                 // ready
	for i := 0; i < k; i++ {
		s.wait(core.EventPutEnd)
	}
	s.put(0)
	s.wait(core.EventSendEnd)
	return 0
}

// putBidir: both sides put and wait for the incoming put each round.
func (s *npSide) putBidir(sz, k int) sim.Time {
	s.put(sz)
	s.wait(core.EventPutEnd)
	t0 := s.app.Proc.Now()
	for i := 0; i < k; i++ {
		s.put(sz)
		s.wait(core.EventPutEnd)
	}
	return s.app.Proc.Now() - t0
}

// getPingPong: alternating pulls. Rank 0 gets from rank 1; rank 1, seeing
// its data taken (GET_END), gets back. The handshakes pipeline, which is
// why the paper's get latency is below a full get round trip.
func (s *npSide) getPingPong(rank, sz, k int) sim.Time {
	if rank == 0 {
		s.get(sz)
		s.wait(core.EventGetStart)
		s.lat.Reset()
		t0 := s.app.Proc.Now()
		for i := 0; i < k; i++ {
			t1 := s.app.Proc.Now()
			s.get(sz)
			s.wait(core.EventGetStart)
			s.lat.Observe(int64((s.app.Proc.Now() - t1) / 2))
		}
		return s.app.Proc.Now() - t0
	}
	for i := 0; i < k+1; i++ {
		s.wait(core.EventGetStart)
		s.get(sz)
	}
	return 0
}

// getStream: rank 0 pulls repeatedly. A get is "a blocking operation (for
// this benchmark) that cannot be pipelined" (§6): every iteration waits for
// its reply.
func (s *npSide) getStream(rank, sz, k int) sim.Time {
	if rank != 0 {
		// Passive data source; its descriptor answers gets by itself.
		// Drain the block's events so the next block starts clean.
		for i := 0; i < k+1; i++ {
			s.wait(core.EventGetEnd)
		}
		return 0
	}
	s.get(sz)
	s.wait(core.EventReplyEnd)
	t0 := s.app.Proc.Now()
	for i := 0; i < k; i++ {
		s.get(sz)
		s.wait(core.EventReplyEnd)
	}
	return s.app.Proc.Now() - t0
}

// getBidir: both sides pull simultaneously.
func (s *npSide) getBidir(sz, k int) sim.Time {
	s.get(sz)
	s.wait(core.EventReplyEnd)
	t0 := s.app.Proc.Now()
	for i := 0; i < k; i++ {
		s.get(sz)
		s.wait(core.EventReplyEnd)
	}
	return s.app.Proc.Now() - t0
}
