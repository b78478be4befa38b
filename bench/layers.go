package main

// The layer ladder: each rung drives one layer through its public
// constructors with stub neighbours, so its host cost per simulated message
// is known in isolation. Every rung moves real bytes and checks they
// arrived before it reports anything.

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"portals3/internal/core"
	"portals3/internal/fabric"
	"portals3/internal/fw"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/nal"
	"portals3/internal/seastar"
	"portals3/internal/sim"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// ladderRepeats is how often each rung runs (odd); a rung reports the repeat
// with the median host time.
const ladderRepeats = 5

// cost is one rung repeat: host time, kernel events fired and heap objects
// allocated, all for ops simulated operations.
type cost struct {
	ns, events, allocs, ops float64
}

func (c cost) nsPer() float64     { return c.ns / c.ops }
func (c cost) eventsPer() float64 { return c.events / c.ops }
func (c cost) allocsPer() float64 { return c.allocs / c.ops }

// timeRung runs body ladderRepeats times and keeps the median-time repeat.
// body returns the events it fired and the operations it completed.
func timeRung(body func() (events uint64, ops int, err error)) (cost, error) {
	var runs []cost
	var ms0, ms1 runtime.MemStats
	for r := 0; r < ladderRepeats; r++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		ev, ops, err := body()
		ns := time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return cost{}, err
		}
		runs = append(runs, cost{float64(ns), float64(ev), float64(ms1.Mallocs - ms0.Mallocs), float64(ops)})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].ns < runs[j].ns })
	return runs[len(runs)/2], nil
}

// pattern fills n bytes that differ per message tag, so a stale buffer
// cannot pass a delivery check.
func pattern(n, tag int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + tag*13 + 1)
	}
	return b
}

// runLadder measures every rung and returns the per-layer metrics by name.
// Each rung's operation count is divided by scale (1 for a measurement).
func runLadder(scale int) (map[string]float64, error) {
	out := map[string]float64{}
	// A rung that cannot deliver has no cost: the first such error is what
	// the ladder returns, whatever the later rungs computed from it.
	var failed error
	rung := func(body func() (uint64, int, error)) cost {
		c, err := timeRung(body)
		if err != nil && failed == nil {
			failed = fmt.Errorf("layer ladder: %w", err)
		}
		return c
	}

	// sim: the three event lanes, a coroutine switch, a kernel window.
	out["sim.timed_ns_per_event"] = rung(func() (uint64, int, error) { return simChain(1_000_000/scale, sim.Nanosecond, 1) }).nsPer()
	out["sim.zero_delay_ns_per_event"] = rung(func() (uint64, int, error) { return simChain(1_000_000/scale, 0, 1) }).nsPer()
	out["sim.deep_heap_ns_per_event"] = rung(func() (uint64, int, error) { return simChain(500_000/scale, 1024*sim.Nanosecond, 1024) }).nsPer()
	out["sim.proc_switch_ns"] = rung(func() (uint64, int, error) { return procSwitch(100_000 / scale) }).nsPer()
	window := rung(func() (uint64, int, error) { return kernelWindows(20_000/scale, 0) })
	posting := rung(func() (uint64, int, error) { return kernelWindows(20_000/scale, kernelPostsPerWindow) })
	out["sim.kernel_window_ns"] = window.nsPer()
	out["sim.kernel_post_ns"] = (posting.ns - window.ns) / (posting.ops * 2 * kernelPostsPerWindow)

	out["topo.build_us"] = rung(topoBuild).nsPer() / 1e3
	out["wire.crc32_ns_per_kb"] = rung(crcSweep).nsPer()

	// fabric: the classic whole-path transport and the hopwise one.
	small := rung(func() (uint64, int, error) { return fabricClassic(1<<10, 4000/scale) })
	large := rung(func() (uint64, int, error) { return fabricClassic(1<<20, 1+24/scale) })
	out["fabric.classic_ns_per_msg"] = small.nsPer()
	out["fabric.classic_events_per_msg"] = small.eventsPer()
	out["fabric.classic_allocs_per_msg"] = small.allocsPer()
	out["fabric.classic_ns_per_mb"] = large.nsPer()
	hop1 := rung(func() (uint64, int, error) { return fabricHopwise(1, 3000/scale) })
	hop4 := rung(func() (uint64, int, error) { return fabricHopwise(4, 3000/scale) })
	out["fabric.hopwise_ns_per_msg_hop"] = (hop4.nsPer() - hop1.nsPer()) / 3
	out["fabric.hopwise_events_per_msg_hop"] = (hop4.eventsPer() - hop1.eventsPer()) / 3
	out["fabric.hopwise_allocs_per_msg"] = hop1.allocsPer()

	// fw: two NICs over the classic fabric, minus the fabric rung.
	nic := rung(func() (uint64, int, error) { return fwPair(1<<10, 3000/scale) })
	out["fw.ns_per_msg"] = nic.nsPer()
	out["fw.events_per_msg"] = nic.eventsPer()
	out["fw.allocs_per_msg"] = nic.allocsPer()
	out["fw.self_ns_per_msg"] = nic.nsPer() - small.nsPer()

	// core and nal: matching against a stub backend, then sim+core+nal.
	d1 := rung(func() (uint64, int, error) { return coreMatch(1, 200_000/scale) })
	d64 := rung(func() (uint64, int, error) { return coreMatch(64, 100_000/scale) })
	out["core.match_ns_depth1"] = d1.nsPer()
	out["core.match_ns_depth64"] = d64.nsPer()
	out["core.allocs_per_match"] = d1.allocsPer()
	ref := rung(func() (uint64, int, error) { return refNALPingPong(64, 5000/scale) })
	out["nal.refnal_put_ns"] = ref.nsPer()
	out["nal.refnal_events_per_msg"] = ref.eventsPer()

	// portals and mpi: the whole generic-mode stack on the 2-node machine.
	put := rung(func() (uint64, int, error) { return portalsPingPong(1, 2000/scale, false) })
	get := rung(func() (uint64, int, error) { return portalsPingPong(1, 2000/scale, true) })
	put1k := rung(func() (uint64, int, error) { return portalsPingPong(1<<10, 2000/scale, false) })
	out["portals.put_ns_per_msg"] = put.nsPer()
	out["portals.get_ns_per_msg"] = get.nsPer()
	out["portals.put_1k_ns_per_msg"] = put1k.nsPer()
	out["portals.put_events_per_msg"] = put.eventsPer()
	out["portals.put_allocs_per_msg"] = put.allocsPer()
	m1 := rung(func() (uint64, int, error) { return mpiPingPong(mpi.MPICH1, 1, 2000/scale) })
	m2 := rung(func() (uint64, int, error) { return mpiPingPong(mpi.MPICH2, 1, 2000/scale) })
	rdv := rung(func() (uint64, int, error) { return mpiPingPong(mpi.MPICH2, 256<<10, 1+60/scale) })
	out["mpi.mpich1_ns_per_msg"] = m1.nsPer()
	out["mpi.mpich2_ns_per_msg"] = m2.nsPer()
	out["mpi.self_ns_per_msg"] = m2.nsPer() - put.nsPer()
	out["mpi.rendezvous_ns_per_msg"] = rdv.nsPer()

	// machine: what one node costs to build and to keep.
	node := rung(func() (uint64, int, error) { return machineBuild(8) })
	pair := rung(func() (uint64, int, error) { return machineBuild(0) })
	out["machine.node_build_us"] = node.nsPer() / 1e3
	out["machine.node_allocs"] = node.allocsPer()
	out["machine.node_live_bytes"] = nodeLiveBytes()
	out["machine.pair_build_us"] = pair.ns / 1e3
	return out, failed
}

// ---- sim ----

// simChain fires n self-rescheduling events with `width` of them pending at
// once, delay apart: width 1 and a positive delay walks the timed heap,
// delay 0 the same-timestamp ring, width 1024 a deep heap.
func simChain(n int, delay sim.Time, width int) (uint64, int, error) {
	s := sim.New()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired+width <= n {
			s.After(delay, tick)
		}
	}
	for i := 0; i < width; i++ {
		s.After(sim.Time(i+1)*sim.Nanosecond, tick)
	}
	s.Run()
	if fired != n {
		return 0, 0, fmt.Errorf("sim chain fired %d of %d events", fired, n)
	}
	return s.Fired, n, nil
}

// procSwitch is one coroutine sleeping n times: each Sleep is a timed event
// plus a park/wake round trip between the process and kernel goroutines.
func procSwitch(n int) (uint64, int, error) {
	s := sim.New()
	woke := 0
	s.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Nanosecond)
			woke++
		}
	})
	s.Run()
	if woke != n || s.Now() != sim.Time(n)*sim.Nanosecond {
		return 0, 0, fmt.Errorf("proc woke %d of %d times, clock %v", woke, n, s.Now())
	}
	return s.Fired, n, nil
}

const kernelPostsPerWindow = 64

// kernelWindows runs n synchronization windows on a 2-lane kernel with one
// local event per lane per window; with posts > 0 each of those events also
// mails that many events to the other lane. ops is the window count.
func kernelWindows(n, posts int) (uint64, int, error) {
	const look = 100 * sim.Nanosecond
	k := sim.NewKernel(2, look)
	var ticks, mail [2]int
	var seq [2]uint64
	// land[i] runs on lane i, mailed there by the other lane.
	land := [2]func(){func() { mail[0]++ }, func() { mail[1]++ }}
	for lane := 0; lane < 2; lane++ {
		lane := lane
		s := k.Lane(lane)
		var tick func()
		tick = func() {
			ticks[lane]++
			for j := 0; j < posts; j++ {
				seq[lane]++
				k.Post(lane, 1-lane, s.Now()+look, int32(lane), seq[lane], land[1-lane])
			}
			if ticks[lane] < n {
				s.After(look, tick)
			}
		}
		s.At(look, tick)
	}
	k.Run()
	if ticks != [2]int{n, n} || mail != [2]int{n * posts, n * posts} {
		return 0, 0, fmt.Errorf("kernel ran %v ticks, delivered %v posts, want %d and %d", ticks, mail, n, n*posts)
	}
	// The mail posted by the last tick lands one window later.
	if w := int(k.Windows); w != n && w != n+1 {
		return 0, 0, fmt.Errorf("kernel ran %d windows for %d ticks", w, n)
	}
	return k.Lane(0).Fired + k.Lane(1).Fired, n, nil
}

// ---- topo, wire ----

// topoBuild builds the 512-node torus and every node's routing table
// (262,144 NextHop lookups, the call the hopwise fabric makes per hop).
func topoBuild() (uint64, int, error) {
	tp, err := topo.XT3Torus(8, 8, 8)
	if err != nil {
		return 0, 0, err
	}
	far := topo.NodeID(tp.Nodes() - 1)
	for id := 0; id < tp.Nodes(); id++ {
		table := tp.RouteTable(topo.NodeID(id))
		if id == 0 && table[far] != (topo.Dir{Axis: topo.X, Sign: -1}) {
			return 0, 0, fmt.Errorf("torus routes node 0 to %d via %v, want the X wraparound", far, table[far])
		}
	}
	return 0, 1, nil
}

// crcSweep checksums 64 KiB 256 times; ops is KiB checksummed.
func crcSweep() (uint64, int, error) {
	hdr := wire.Header{Type: wire.TypePut, Length: 64 << 10}
	buf := pattern(64<<10, 0)
	want := wire.CRC32(&hdr, buf)
	for i := 0; i < 255; i++ {
		if wire.CRC32(&hdr, buf) != want {
			return 0, 0, fmt.Errorf("CRC32 is not a function of its input")
		}
	}
	buf[100] ^= 1
	if wire.CRC32(&hdr, buf) == want {
		return 0, 0, fmt.Errorf("CRC32 missed a flipped bit")
	}
	return 0, 256 * 64, nil
}

// ---- fabric ----

// sinkEP is the stub fabric.Endpoint: it reassembles payload bytes, returns
// receive-window credits at once, recycles the carriers through port, and
// calls done when a message's last byte is in.
type sinkEP struct {
	win  *sim.Credits
	port fabric.Port
	buf  []byte
	done func()
}

func (e *sinkEP) RxWindow() *sim.Credits { return e.win }

func (e *sinkEP) HeaderArrived(m *fabric.Message) {
	e.buf = e.buf[:0]
	e.win.Put(int64(wire.PacketBytes))
}

func (e *sinkEP) ChunkArrived(c *fabric.Chunk) {
	e.buf = append(e.buf, c.Data...)
	e.win.Put(int64(len(c.Data)))
	m, last := c.Msg, c.Last
	e.port.RecycleChunk(c)
	if last {
		e.port.RecycleMsg(m)
		e.done()
	}
}

// inject sends one message of payload from src to dst the way a TX DMA
// engine does: header, then chunks of the model's chunk size in order.
func inject(port fabric.Port, p *model.Params, src, dst topo.NodeID, payload []byte) {
	hdr := wire.Header{Type: wire.TypePut, SrcNid: uint32(src), DstNid: uint32(dst), Length: uint32(len(payload))}
	m := port.NewStream(hdr, src, dst, len(payload))
	port.SendHeader(m)
	for off := 0; off < len(payload); off += p.ChunkBytes {
		end := off + p.ChunkBytes
		if end > len(payload) {
			end = len(payload)
		}
		c := port.AllocChunk(end - off)
		copy(c.Data, payload[off:end])
		c.Msg, c.Off, c.Last = m, off, end == len(payload)
		port.SendChunk(c)
	}
}

// fabricClassic streams n messages of size bytes, one at a time, across the
// 2-node classic fabric into a stub endpoint.
func fabricClassic(size, n int) (uint64, int, error) {
	p := model.Defaults()
	s := sim.New()
	tp, err := topo.New(2, 1, 1, false, false, false)
	if err != nil {
		return 0, 0, err
	}
	f := fabric.New(s, tp, &p)
	payload := pattern(size, 1)
	got := 0
	rx := &sinkEP{win: sim.NewCredits(s, "rxwin", 1<<20), port: f}
	rx.done = func() {
		got++
		if got < n {
			inject(f, &p, 0, 1, payload)
		}
	}
	f.Attach(0, &sinkEP{win: sim.NewCredits(s, "rxwin", 1<<20), port: f, done: func() {}})
	f.Attach(1, rx)
	inject(f, &p, 0, 1, payload)
	s.Run()
	if got != n || !bytes.Equal(rx.buf, payload) {
		return 0, 0, fmt.Errorf("classic fabric delivered %d of %d messages, last payload intact=%v", got, n, bytes.Equal(rx.buf, payload))
	}
	return s.Fired, n, nil
}

// fabricHopwise streams n 1 KB messages, one at a time, from node 0 to the
// node `hops` away on an 8-node ring, through the sharded cluster on one
// lane.
func fabricHopwise(hops, n int) (uint64, int, error) {
	p := model.Defaults()
	tp, err := topo.XT3Torus(8, 1, 1)
	if err != nil {
		return 0, 0, err
	}
	k := sim.NewKernel(1, fabric.MinHandoffLatency(&p))
	cl := fabric.NewCluster(k, tp, &p, func(topo.NodeID) int { return 0 })
	dst := topo.NodeID(hops)
	if tp.Hops(0, dst) != hops {
		return 0, 0, fmt.Errorf("ring route 0->%d is %d hops, want %d", dst, tp.Hops(0, dst), hops)
	}
	payload := pattern(1<<10, hops)
	got := 0
	var rx *sinkEP
	for id := 0; id < tp.Nodes(); id++ {
		id := topo.NodeID(id)
		ep := &sinkEP{win: sim.NewCredits(k.Lane(0), "rxwin", 1<<20), port: cl.Port(id), done: func() {}}
		if id == dst {
			rx = ep
			ep.done = func() {
				got++
				if got < n {
					inject(cl.Port(0), &p, 0, dst, payload)
				}
			}
		}
		cl.Port(id).Attach(id, ep)
	}
	k.Lane(0).At(0, func() { inject(cl.Port(0), &p, 0, dst, payload) })
	k.Run()
	if got != n || !bytes.Equal(rx.buf, payload) {
		return 0, 0, fmt.Errorf("hopwise fabric delivered %d of %d messages over %d hops, last payload intact=%v", got, n, hops, bytes.Equal(rx.buf, payload))
	}
	return k.Lane(0).Fired, n, nil
}

// ---- fw ----

// hostBuf is contiguous host memory for the firmware's DMA engines.
type hostBuf []byte

func (b hostBuf) Len() int                  { return len(b) }
func (b hostBuf) ReadAt(off int, p []byte)  { copy(p, b[off:off+len(p)]) }
func (b hostBuf) WriteAt(off int, p []byte) { copy(b[off:off+len(p)], p) }
func (b hostBuf) Segments() int             { return 1 }

// fwPair sends n puts of size bytes, one at a time, between two NICs whose
// host side is the least a generic-mode driver can be: program the receive,
// release the pending.
func fwPair(size, n int) (uint64, int, error) {
	p := model.Defaults()
	s := sim.New()
	tp, err := topo.New(2, 1, 1, false, false, false)
	if err != nil {
		return 0, 0, err
	}
	fab := fabric.New(s, tp, &p)
	var nics [2]*fw.NIC
	payload := hostBuf(pattern(size, 2))
	inbox := make(hostBuf, size)
	got := 0
	var failure error
	send := func() {
		hdr := wire.Header{Type: wire.TypePut, SrcNid: 0, DstNid: 1, Length: uint32(size)}
		if err := nics[0].SubmitTx(&fw.TxReq{Pid: 1, Hdr: hdr, Buf: payload, Len: size}); err != nil {
			failure = err
		}
	}
	received := func(ok bool) {
		if !ok {
			failure = fmt.Errorf("firmware flagged a CRC failure on a clean fabric")
		}
		got++
		if got < n {
			send()
		}
	}
	for i := range nics {
		i := i
		nic, err := fw.New(s, &p, seastar.New(s, &p, topo.NodeID(i)), fab, topo.NodeID(i))
		if err != nil {
			return 0, 0, err
		}
		_, err = nic.RegisterGeneric(64, func(ev fw.Event) {
			switch ev.Kind {
			case fw.EvNewHeader:
				pd := ev.Pending
				if pd.Complete() {
					copy(inbox, pd.Inline)
					pd.Release()
					received(ev.OK)
					return
				}
				pd.SubmitRx(inbox, 0, pd.PayloadLen(), nil)
			case fw.EvRxDone:
				ev.Pending.Release()
				received(ev.OK)
			}
		})
		if err != nil {
			return 0, 0, err
		}
		nics[i] = nic
	}
	send()
	s.Run()
	if failure != nil {
		return 0, 0, failure
	}
	if got != n || !bytes.Equal(inbox, payload) {
		return 0, 0, fmt.Errorf("firmware pair delivered %d of %d puts, last payload intact=%v", got, n, bytes.Equal(inbox, payload))
	}
	return s.Fired, n, nil
}

// ---- core, nal ----

// nullBackend is the stub core.Backend: the matching rung sends nothing.
type nullBackend struct{}

func (nullBackend) Send(*core.SendReq)  {}
func (nullBackend) Distance(uint32) int { return 1 }

var anyProcess = core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}

// coreMatch receives n puts into a library whose match list holds depth
// entries with the accepting one last: ReceivePut walks the list, the rung
// deposits the payload as a driver would, Delivered closes the operation.
func coreMatch(depth, n int) (uint64, int, error) {
	const ptl, bits, size = 4, 0x77, 64
	s := sim.New()
	lib := core.NewLib(s, core.ProcessID{Nid: 1, Pid: 1}, 1, core.Limits{}, nullBackend{})
	for i := 0; i < depth-1; i++ {
		if _, err := lib.MEAttach(ptl, anyProcess, uint64(0x1000+i), 0, core.Retain, core.After); err != nil {
			return 0, 0, err
		}
	}
	me, err := lib.MEAttach(ptl, anyProcess, bits, 0, core.Retain, core.After)
	if err != nil {
		return 0, 0, err
	}
	inbox := make(core.SliceRegion, size)
	if _, err := lib.MDAttach(me, core.MDesc{
		Region: inbox, Threshold: core.ThresholdInfinite, EQ: core.NoEQ,
		Options: core.MDOpPut | core.MDManageRemote,
	}, core.Retain); err != nil {
		return 0, 0, err
	}
	payload := pattern(size, 3)
	hdr := wire.Header{Type: wire.TypePut, SrcNid: 0, SrcPid: 1, DstNid: 1, DstPid: 1,
		PtlIndex: ptl, MatchBits: bits, Length: size, UID: 1}
	for i := 0; i < n; i++ {
		op := lib.ReceivePut(&hdr)
		if op.Drop || op.Walked != depth {
			return 0, 0, fmt.Errorf("put %d: dropped=%v (%v) after walking %d of %d entries", i, op.Drop, op.Reason, op.Walked, depth)
		}
		op.Region.WriteAt(op.Off, payload[:op.MLen])
		lib.Delivered(op, true)
	}
	if !bytes.Equal(inbox, payload) {
		return 0, 0, fmt.Errorf("core delivery did not land the payload")
	}
	return 0, n, nil
}

// pingPong is one side of a put (or get) ping-pong against the Portals API:
// rounds exchanges of size bytes with peer. In a put round the starter puts
// and waits for the answering put; in a get round the starter fetches the
// peer's buffer and the peer only serves. ok reports that the last bytes to
// arrive were the peer's pattern.
func pingPong(api *nal.API, alloc func(int) core.Region, peer core.ProcessID, proc *sim.Proc,
	starter bool, size, rounds int, get bool) (ok bool) {
	const ptl, bits = 6, 0x99
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	eq, err := api.EQAlloc(64)
	must(err)
	me, err := api.MEAttach(ptl, anyProcess, bits, 0, core.Retain, core.After)
	must(err)
	mine, theirs := 4, 5
	if starter {
		mine, theirs = 5, 4
	}
	inbox, outbox := alloc(size), alloc(size)
	outbox.WriteAt(0, pattern(size, mine))
	exposed := inbox
	if get && !starter {
		exposed = outbox
	}
	_, err = api.MDAttach(me, core.MDesc{Region: exposed, Threshold: core.ThresholdInfinite, EQ: eq,
		Options: core.MDOpPut | core.MDOpGet | core.MDManageRemote | core.MDEventStartDisable}, core.Retain)
	must(err)
	local := outbox
	if get {
		local = inbox
	}
	md, err := api.MDBind(core.MDesc{Region: local, Threshold: core.ThresholdInfinite, EQ: eq,
		Options: core.MDEventStartDisable})
	must(err)
	wait := func(want core.EventType) {
		for {
			ev, err := api.EQWait(eq)
			must(err)
			if ev.Type == want {
				return
			}
		}
	}
	proc.Sleep(50 * sim.Microsecond) // both sides attached before traffic
	for i := 0; i < rounds; i++ {
		switch {
		case get && starter:
			must(api.GetRegion(md, 0, size, peer, ptl, bits, 0))
			wait(core.EventReplyEnd)
		case get:
			wait(core.EventGetEnd)
		case starter:
			must(api.PutRegion(md, 0, size, core.NoAck, peer, ptl, bits, 0, uint64(i)))
			wait(core.EventPutEnd)
		default:
			wait(core.EventPutEnd)
			must(api.PutRegion(md, 0, size, core.NoAck, peer, ptl, bits, 0, uint64(i)))
		}
	}
	if get && !starter {
		return true
	}
	got := make([]byte, size)
	inbox.ReadAt(0, got)
	return bytes.Equal(got, pattern(size, theirs))
}

// refNALPingPong is the put ping-pong over nal.RefNAL: sim, core and the
// API front end with a delay line for a network. ops counts messages.
func refNALPingPong(size, rounds int) (uint64, int, error) {
	p := model.Defaults()
	s := sim.New()
	net := nal.NewRefNAL(s, 2*sim.Microsecond, 1_000_000_000)
	ids := [2]core.ProcessID{{Nid: 0, Pid: 1}, {Nid: 1, Pid: 1}}
	var ok [2]bool
	for i := range ids {
		i := i
		lib := net.AddProcess(ids[i], 1, core.Limits{})
		s.Go(fmt.Sprintf("ref%d", i), func(proc *sim.Proc) {
			api := nal.NewAPI(proc, lib, nal.KBridge{}, &p)
			alloc := func(n int) core.Region { return make(core.SliceRegion, n) }
			ok[i] = pingPong(api, alloc, ids[1-i], proc, i == 0, size, rounds, false)
		})
	}
	s.Run()
	if !ok[0] || !ok[1] {
		return 0, 0, fmt.Errorf("RefNAL ping-pong lost its payload: %v", ok)
	}
	return s.Fired, 2 * rounds, nil
}

// ---- portals, mpi ----

// portalsPingPong is the same ping-pong through the whole generic-mode
// stack of the 2-node machine. ops counts messages: two per round either
// way (put and answering put, or get request and reply).
func portalsPingPong(size, rounds int, get bool) (uint64, int, error) {
	m := machine.NewPair(model.Defaults())
	var apps [2]*machine.App
	var ok [2]bool
	for i := range apps {
		i := i
		app, err := m.Spawn(topo.NodeID(i), fmt.Sprintf("pp%d", i), machine.Generic, func(app *machine.App) {
			ok[i] = pingPong(app.API, app.Alloc, apps[1-i].ID(), app.Proc, i == 0, size, rounds, get)
		})
		if err != nil {
			return 0, 0, err
		}
		apps[i] = app
	}
	m.Run()
	if !ok[0] || !ok[1] {
		return 0, 0, fmt.Errorf("portals ping-pong (get=%v, %d B) lost its payload: %v", get, size, ok)
	}
	return m.S.Fired, 2 * rounds, nil
}

// mpiPingPong is an MPI Send/Recv ping-pong of size bytes; 256 KB takes the
// rendezvous path. ops counts messages.
func mpiPingPong(impl mpi.Impl, size, rounds int) (uint64, int, error) {
	m := machine.NewPair(model.Defaults())
	var ok [2]bool
	err := mpi.Launch(m, []topo.NodeID{0, 1}, impl, machine.Generic, func(r *mpi.Rank) {
		me, other := r.Rank(), 1-r.Rank()
		out, in := r.Alloc(size), r.Alloc(size)
		out.WriteAt(0, pattern(size, me))
		for i := 0; i < rounds; i++ {
			if me == 0 {
				r.Send(other, 1, out, 0, size)
				r.Recv(other, 2, in, 0, size)
			} else {
				r.Recv(other, 1, in, 0, size)
				r.Send(other, 2, out, 0, size)
			}
		}
		got := make([]byte, size)
		in.ReadAt(0, got)
		ok[me] = bytes.Equal(got, pattern(size, other))
	})
	if err != nil {
		return 0, 0, err
	}
	m.Run()
	if !ok[0] || !ok[1] {
		return 0, 0, fmt.Errorf("%v ping-pong (%d B) lost its payload: %v", impl, size, ok)
	}
	return m.S.Fired, 2 * rounds, nil
}

// ---- machine ----

// buildNodes instantiates every node of a dim^3 sharded torus (one lane),
// or of the 2-node classic pair when dim is 0.
func buildNodes(dim int) (*machine.Machine, int, error) {
	if dim == 0 {
		m := machine.NewPair(model.Defaults())
		m.Node(0)
		m.Node(1)
		return m, 2, nil
	}
	tp, err := topo.XT3Torus(dim, dim, dim)
	if err != nil {
		return nil, 0, err
	}
	m := machine.NewSharded(model.Defaults(), tp, 1)
	for id := 0; id < tp.Nodes(); id++ {
		m.Node(topo.NodeID(id))
	}
	return m, tp.Nodes(), nil
}

func machineBuild(dim int) (uint64, int, error) {
	_, nodes, err := buildNodes(dim)
	return 0, nodes, err
}

// nodeLiveBytes is the heap one built node of the 512-node machine keeps
// reachable.
func nodeLiveBytes() float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, nodes, err := buildNodes(8)
	if err != nil {
		panic(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(nodes)
}
