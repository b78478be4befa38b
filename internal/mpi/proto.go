package mpi

import (
	"portals3/internal/core"
	"portals3/internal/sim"
)

// Request is a nonblocking operation handle.
type Request struct {
	r    *Rank
	done bool

	// Receive results.
	N      int // bytes delivered
	Source int // resolved source rank
	Tag    int // resolved tag
	Err    error

	// internals
	isRecv  bool
	buf     core.Region
	off     int
	maxLen  int
	wantSrc int
	wantTag int
	me      core.MEHandle // posted receive entry
	md      core.MDHandle // posted receive descriptor / send descriptor
	rdvMD   core.MDHandle // rendezvous: exposed send buffer or get descriptor

	// tag and win are embedded so building a request needs no satellite
	// allocations: tag is the descriptor user pointer, win the narrowed
	// receive/expose window.
	tag reqTag
	win regionWindow
}

// newRequest builds a request with its event tag pointing back at it.
func (r *Rank) newRequest() *Request {
	if req := sim.Pop(&r.reqFree); req != nil {
		*req = Request{r: r}
		req.tag.req = req
		return req
	}
	req := &Request{r: r}
	req.tag.req = req
	return req
}

// freeRequest recycles a completed request. Only the blocking wrappers call
// it: they own the request end to end, its descriptors are unlinked by the
// time Wait returns, and the handle never escapes to the application.
func (r *Rank) freeRequest(req *Request) {
	*req = Request{}
	r.reqFree = append(r.reqFree, req)
}

// Done reports completion without progressing the engine.
func (q *Request) Done() bool { return q.done }

// Wait progresses the engine until the request completes and returns the
// received byte count (0 for sends).
func (q *Request) Wait() int {
	for !q.done {
		q.r.progressOne(true)
	}
	if q.Err != nil {
		q.r.fatal("request failed: %v", q.Err)
	}
	return q.N
}

// ---- Send ----

// Isend starts a nonblocking send of n bytes at off within buf.
func (r *Rank) Isend(dst, tag int, buf core.Region, off, n int) *Request {
	if dst < 0 || dst >= r.size {
		r.fatal("Isend to bad rank %d", dst)
	}
	r.charge(r.cfg.SendCycles)
	req := r.newRequest()
	bits := envBits(r.ctx, r.rank, tag)
	if n <= r.cfg.EagerMax {
		r.EagerSends++
		md, err := r.api.MDBind(core.MDesc{
			Region:    buf,
			Threshold: core.ThresholdInfinite,
			Options:   core.MDEventStartDisable,
			EQ:        r.eq,
			User:      &req.tag,
		})
		if err != nil {
			r.fatal("eager MDBind: %v", err)
		}
		req.md = md
		if err := r.api.PutRegion(md, off, n, core.NoAck, r.peers[dst], ptlMPI,
			bits, 0, hdrData(protoEager, 0, n)); err != nil {
			r.fatal("eager put: %v", err)
		}
		return req
	}

	// Rendezvous: expose the payload for the receiver's get, then send the
	// zero-byte request-to-send.
	r.RdvSends++
	r.rdvSeq++
	seq := r.rdvSeq
	rme, err := r.api.MEAttach(ptlRdv, r.peers[dst], seq, 0, core.UnlinkAuto, core.After)
	if err != nil {
		r.fatal("rdv MEAttach: %v", err)
	}
	req.win = regionWindow{buf, off, n}
	rmd, err := r.api.MDAttach(rme, core.MDesc{
		Region:    &req.win,
		Threshold: 1,
		Options:   core.MDOpGet | core.MDManageRemote | core.MDEventStartDisable,
		EQ:        r.eq,
		User:      &req.tag,
	}, core.UnlinkAuto)
	if err != nil {
		r.fatal("rdv MDAttach: %v", err)
	}
	req.rdvMD = rmd
	req.off = off
	req.maxLen = n
	rtsMD, err := r.api.MDBind(core.MDesc{
		Region:    core.SliceRegion{},
		Threshold: core.ThresholdInfinite,
		Options:   core.MDEventStartDisable | core.MDEventEndDisable,
		EQ:        core.NoEQ,
		User:      nil,
	})
	if err != nil {
		r.fatal("rts MDBind: %v", err)
	}
	// The RTS is a zero-byte put whose header data carries the protocol
	// marker, the rendezvous sequence, and the payload length.
	if err := r.api.PutRegion(rtsMD, 0, 0, core.NoAck, r.peers[dst], ptlMPI,
		bits, 0, hdrData(protoRTS, seq, n)); err != nil {
		r.fatal("rts put: %v", err)
	}
	r.api.MDUnlink(rtsMD)
	return req
}

// Send is the blocking send: it returns when the buffer is reusable.
func (r *Rank) Send(dst, tag int, buf core.Region, off, n int) {
	req := r.Isend(dst, tag, buf, off, n)
	req.Wait()
	r.freeRequest(req)
}

// ---- Receive ----

// Irecv starts a nonblocking receive into buf[off:off+n]. src and tag may
// be AnySource / AnyTag.
func (r *Rank) Irecv(src, tag int, buf core.Region, off, n int) *Request {
	r.charge(r.cfg.RecvCycles)
	req := r.newRequest()
	req.isRecv = true
	req.buf = buf
	req.off = off
	req.maxLen = n
	req.wantSrc = src
	req.wantTag = tag
	// The race-free posted-receive protocol: create the entry with an
	// inactive (threshold 0) descriptor, search the unexpected queue, then
	// activate with a conditional MDUpdate that fails if any event snuck
	// in while we searched.
	matchID := core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}
	if src != AnySource {
		matchID = r.peers[src]
	}
	bits := envBits(r.ctx, maxInt(src, 0), tag&tagMask)
	var ignore uint64
	if src == AnySource {
		ignore |= srcIgnore
	}
	if tag == AnyTag {
		ignore |= tagIgnore
		bits &^= tagIgnore
	}
	me, err := r.api.MEInsert(r.fence, matchID, bits, ignore, core.UnlinkAuto, core.Before)
	if err != nil {
		r.fatal("posted MEInsert: %v", err)
	}
	req.win = regionWindow{buf, off, n}
	desc := core.MDesc{
		Region:    &req.win,
		Threshold: 0,
		Options:   core.MDOpPut | core.MDTruncate | core.MDEventStartDisable,
		EQ:        r.eq,
		User:      &req.tag,
	}
	md, err := r.api.MDAttach(me, desc, core.UnlinkAuto)
	if err != nil {
		r.fatal("posted MDAttach: %v", err)
	}
	req.me = me
	req.md = md

	armed := desc
	armed.Threshold = 1
	for {
		if u := r.takeUnexpected(src, tag); u != nil {
			if err := r.api.MEUnlink(me); err != nil {
				r.fatal("unlink posted ME: %v", err)
			}
			r.consumeUnexpected(req, u)
			return req
		}
		if r.sinkInflight > 0 {
			// A message is mid-arrival into overflow space and might be
			// the one we want: wait for its completion before arming.
			r.progressOne(true)
			continue
		}
		err := r.api.MDUpdate(md, nil, &armed, r.eq)
		if err == nil {
			return req // armed; events will complete it
		}
		if err != core.ErrMDNoUpdate {
			r.fatal("MDUpdate: %v", err)
		}
		// Events arrived while we searched: drain them and re-search.
		r.progressOne(false)
	}
}

// Recv is the blocking receive; it returns the delivered byte count.
func (r *Rank) Recv(src, tag int, buf core.Region, off, n int) int {
	req := r.Irecv(src, tag, buf, off, n)
	n = req.Wait()
	r.freeRequest(req)
	return n
}

// Sendrecv performs the classic simultaneous exchange.
func (r *Rank) Sendrecv(dst, sendTag int, sendBuf core.Region, sendOff, sendN int,
	src, recvTag int, recvBuf core.Region, recvOff, recvN int) int {
	rq := r.Irecv(src, recvTag, recvBuf, recvOff, recvN)
	sq := r.Isend(dst, sendTag, sendBuf, sendOff, sendN)
	sq.Wait()
	n := rq.Wait()
	r.freeRequest(sq)
	r.freeRequest(rq)
	return n
}

// consumeUnexpected completes a receive from an already-arrived message.
func (r *Rank) consumeUnexpected(req *Request, u *unexpMsg) {
	req.Source = u.src
	req.Tag = u.tag
	if u.proto == protoEager {
		n := len(u.data)
		if n > req.maxLen {
			n = req.maxLen // MPI truncation
		}
		if n > 0 {
			req.buf.WriteAt(req.off+0, u.data[:n])
			r.charge(int64(n / memcpyBytesPerCycle))
		}
		req.N = n
		if u.nifail {
			r.fatal("unexpected eager message failed CRC")
		}
		req.done = true
		return
	}
	// Rendezvous: fetch the payload from the sender's exposed buffer.
	r.startGet(req, u.sender, u.rdvSeq, u.rlen)
}

// startGet issues the rendezvous get into the receive buffer.
func (r *Rank) startGet(req *Request, sender core.ProcessID, seq uint64, rlen int) {
	n := rlen
	if n > req.maxLen {
		n = req.maxLen
	}
	md, err := r.api.MDBind(core.MDesc{
		Region:    req.buf,
		Threshold: core.ThresholdInfinite,
		Options:   core.MDEventStartDisable,
		EQ:        r.eq,
		User:      &req.tag,
	})
	if err != nil {
		r.fatal("rdv get MDBind: %v", err)
	}
	req.rdvMD = md
	if err := r.api.GetRegion(md, req.off, n, sender, ptlRdv, seq, 0); err != nil {
		r.fatal("rdv get: %v", err)
	}
}

// ---- Progress engine ----

// progressOne handles one library event; with block=false it drains
// whatever is available and returns.
func (r *Rank) progressOne(block bool) {
	for {
		var ev core.Event
		var err error
		if block {
			ev, err = r.api.EQWait(r.eq)
		} else {
			ev, err = r.api.EQGet(r.eq)
		}
		if err == core.ErrEQEmpty {
			return
		}
		if err == core.ErrEQDropped {
			r.fatal("event queue overflowed: deepen eqDepth")
		}
		if err != nil {
			r.fatal("EQ read: %v", err)
		}
		r.handleEvent(ev)
		if block {
			return
		}
	}
}

// handleEvent dispatches one Portals event by the descriptor's user tag.
func (r *Rank) handleEvent(ev core.Event) {
	switch u := ev.User.(type) {
	case *sinkEntry:
		r.sinkEvent(ev, u)
	case *reqTag:
		r.requestEvent(ev, u.req)
	default:
		// Events from descriptors the engine no longer tracks (late
		// SEND_ENDs after completion) are ignorable.
	}
}

// sinkEvent records an unexpected message. PUT_START marks a message in
// flight into overflow space; PUT_END completes it and queues the
// envelope (and eager payload) for later matching.
func (r *Rank) sinkEvent(ev core.Event, sink *sinkEntry) {
	if ev.Type == core.EventPutStart {
		r.sinkInflight++
		return
	}
	if ev.Type != core.EventPutEnd {
		return
	}
	if r.sinkInflight > 0 {
		r.sinkInflight--
	}
	r.Unexpected++
	ctx, src, tag := envDecode(ev.MatchBits)
	proto, seq, rlen := hdrDecode(ev.HdrData)
	u := &unexpMsg{
		ctx: ctx, src: src, tag: tag,
		proto: proto, rdvSeq: seq,
		sender: ev.Initiator,
		rlen:   rlen,
		nifail: ev.NIFail,
	}
	if proto == protoEager && ev.MLength > 0 {
		u.data = make([]byte, ev.MLength)
		sink.buf.ReadAt(ev.Offset, u.data)
		r.charge(int64(ev.MLength / memcpyBytesPerCycle))
	}
	r.unexpected = append(r.unexpected, u)
	if ev.Unlinked {
		r.SinkRespawn++
		if err := r.addSink(); err != nil {
			r.fatal("sink respawn: %v", err)
		}
	}
}

// requestEvent advances a send or receive request.
func (r *Rank) requestEvent(ev core.Event, req *Request) {
	switch ev.Type {
	case core.EventSendEnd:
		// Eager send complete: the buffer is reusable.
		if !req.isRecv {
			if ev.NIFail {
				req.Err = core.ErrSegv
			}
			req.done = true
			if req.md != 0 && req.md != core.NoMD {
				r.api.MDUnlink(req.md)
				req.md = core.NoMD
			}
		}
	case core.EventGetEnd:
		// Rendezvous send complete: the receiver fetched the payload.
		req.done = true
	case core.EventPutEnd:
		// A posted receive matched.
		proto, seq, rlen := hdrDecode(ev.HdrData)
		_, src, tag := envDecode(ev.MatchBits)
		req.Source = src
		req.Tag = tag
		if proto == protoRTS {
			r.startGet(req, ev.Initiator, seq, rlen)
			return
		}
		req.N = ev.MLength
		if ev.NIFail {
			req.Err = core.ErrSegv
		}
		req.done = true
	case core.EventReplyEnd:
		// Rendezvous get complete.
		req.N = ev.MLength
		if ev.NIFail {
			req.Err = core.ErrSegv
		}
		req.done = true
		if req.rdvMD != 0 && req.rdvMD != core.NoMD {
			r.api.MDUnlink(req.rdvMD)
			req.rdvMD = core.NoMD
		}
	}
}

// takeUnexpected removes and returns the oldest matching unexpected
// message, or nil.
func (r *Rank) takeUnexpected(src, tag int) *unexpMsg {
	for i, u := range r.unexpected {
		if u.ctx != r.ctx {
			continue
		}
		if src != AnySource && u.src != src {
			continue
		}
		if tag != AnyTag && u.tag != tag {
			continue
		}
		r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
		return u
	}
	return nil
}

// ---- Collectives ----

// Barrier blocks until every rank arrives. Linear algorithm: everyone
// reports to rank 0, rank 0 releases everyone — adequate for the job sizes
// simulated here.
func (r *Rank) Barrier() {
	if r.empty == nil {
		r.empty = r.alloc(0)
	}
	empty := r.empty
	if r.rank == 0 {
		for i := 1; i < r.size; i++ {
			r.Recv(AnySource, barrierTag, empty, 0, 0)
		}
		for i := 1; i < r.size; i++ {
			r.Send(i, barrierTag, empty, 0, 0)
		}
		return
	}
	r.Send(0, barrierTag, empty, 0, 0)
	r.Recv(0, barrierTag, empty, 0, 0)
}

// regionWindow narrows a region to [off, off+n) so a posted receive's MD
// covers exactly the receive buffer slice.
type regionWindow struct {
	r   core.Region
	off int
	n   int
}

func (w regionWindow) Len() int                  { return w.n }
func (w regionWindow) ReadAt(off int, p []byte)  { w.r.ReadAt(w.off+off, p) }
func (w regionWindow) WriteAt(off int, p []byte) { w.r.WriteAt(w.off+off, p) }
func (w regionWindow) Segments() int             { return w.r.Segments() }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Waitall completes every request.
func Waitall(reqs ...*Request) {
	for _, q := range reqs {
		q.Wait()
	}
}
