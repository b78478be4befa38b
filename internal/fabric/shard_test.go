package fabric

import (
	"testing"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// The cross-shard pool-handoff audit (PR 1 object pools under the sharded
// kernel): a carrier allocated on lane A and consumed on lane B is freed
// into B's pool — never written back into A's freelist — and B's next
// sender reuses it. A two-node ping-pong over two lanes migrates one chunk
// and one message carrier back and forth, walked by two transport carriers
// (the header's and the chunk's); if the ownership rule holds, the whole
// exchange runs on exactly one of each payload carrier and two transport
// carriers.

// handoffEP is a receiver that consumes and recycles carriers through its
// own node's port, then answers with a message of its own.
type handoffEP struct {
	cl      *Cluster
	node    topo.NodeID
	peer    topo.NodeID
	win     *sim.Credits
	rounds  *int
	seen    map[*Chunk]bool
	seenMsg map[*Message]bool
	deliv   *int
}

func (e *handoffEP) RxWindow() *sim.Credits { return e.win }

func (e *handoffEP) HeaderArrived(m *Message) {
	e.seenMsg[m] = true
	e.win.Put(int64(wire.PacketBytes))
}

func (e *handoffEP) ChunkArrived(c *Chunk) {
	e.seen[c] = true
	e.win.Put(int64(len(c.Data)))
	m, last := c.Msg, c.Last
	pt := e.cl.Port(e.node)
	pt.RecycleChunk(c) // frees into e.node's lane — the rule under test
	if !last {
		return
	}
	pt.RecycleMsg(m)
	*e.deliv++
	if *e.rounds > 0 {
		*e.rounds--
		handoffSend(e.cl, e.node, e.peer)
	}
}

// handoffSend injects one header plus one payload chunk from src to dst,
// drawing both carriers from src's lane pool.
func handoffSend(cl *Cluster, src, dst topo.NodeID) {
	const n = 512
	pt := cl.Port(src)
	m := pt.NewStream(putHeader(uint32(src), uint32(dst), n), src, dst, n)
	pt.SendHeader(m)
	c := pt.AllocChunk(n)
	c.Msg = m
	c.Off = 0
	c.Last = true
	pt.SendChunk(c)
}

func TestClusterPoolHandoff(t *testing.T) {
	p := model.Defaults()
	// Arm the per-node fault planes, with no rule to fire: every delivered
	// header then sends a ledger note back to its source's lane.
	p.FaultSeed = 1
	tp, err := topo.New(2, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel(2, MinHandoffLatency(&p))
	cl := NewCluster(k, tp, &p, func(id topo.NodeID) int { return int(id) })

	rounds, deliv := 8, 0
	seen := map[*Chunk]bool{}
	seenMsg := map[*Message]bool{}
	for id := 0; id < 2; id++ {
		id := topo.NodeID(id)
		lane := cl.Lane(id)
		cl.Port(id).Attach(id, &handoffEP{
			cl: cl, node: id, peer: 1 - id,
			win:    sim.NewCredits(k.Lane(lane), "rxwin", 1<<20),
			rounds: &rounds, seen: seen, seenMsg: seenMsg, deliv: &deliv,
		})
	}
	k.Lane(0).At(0, func() { handoffSend(cl, 0, 1) })
	k.Run()

	if deliv != 9 { // the opening send plus eight replies
		t.Fatalf("deliveries = %d, want 9", deliv)
	}
	// Reuse across shards: every round drew its carriers from the pool the
	// previous receiver freed into, so one of each ever existed.
	if len(seen) != 1 {
		t.Errorf("distinct chunk carriers = %d, want 1 (cross-shard recycled carrier not reused)", len(seen))
	}
	if len(seenMsg) != 1 {
		t.Errorf("distinct message carriers = %d, want 1 (cross-shard recycled carrier not reused)", len(seenMsg))
	}
	// Ownership: the final delivery landed at node 1 (odd count, alternating
	// sides), so its carriers rest in lane 1's freelists and lane 0's — which
	// the final receiver must never have written — stay empty.
	l0, l1 := cl.lanes[0], cl.lanes[1]
	if len(l0.chunkFree) != 0 || len(l0.msgFree) != 0 {
		t.Errorf("lane 0 pools = %d chunks, %d msgs; want empty (carrier freed cross-lane?)",
			len(l0.chunkFree), len(l0.msgFree))
	}
	if len(l1.chunkFree) != 1 || len(l1.msgFree) != 1 {
		t.Errorf("lane 1 pools = %d chunks, %d msgs; want 1 and 1",
			len(l1.chunkFree), len(l1.msgFree))
	}
	// The transport carriers obey the same rule: launched from the sender's
	// lane pool, walked across the mailbox, recycled where they deliver. Two
	// were ever built (nine round trips would otherwise have built eighteen)
	// and both rest on lane 1.
	if len(l0.carrierFree) != 0 || len(l1.carrierFree) != 2 {
		t.Errorf("transport carriers pooled = %d on lane 0, %d on lane 1; want 0 and 2",
			len(l0.carrierFree), len(l1.carrierFree))
	}
	// So do the ledger notes, which travel the other way: drawn from the
	// receiver's lane pool, recycled on the source's lane where they close
	// the entry. Nine deliveries used one note, and the last of them (at
	// node 1) sent it to rest on lane 0.
	if len(l0.noteFree) != 1 || len(l1.noteFree) != 0 {
		t.Errorf("ledger notes pooled = %d on lane 0, %d on lane 1; want 1 and 0",
			len(l0.noteFree), len(l1.noteFree))
	}
	if fs, ok := cl.LaneFabric(0).FaultSnapshot(); !ok || fs.Injected() != 0 || fs.Open() != 0 {
		t.Errorf("fault ledger = %+v (armed %v), want armed and empty", fs, ok)
	}
}

// ringStream sends n 1 KB messages (header plus one chunk), one at a time,
// from node 0 to the node hops away on an 8-node ring through a one-lane
// cluster, and reports how many arrived. Everything the loop needs is built
// once, so a second call measures the transport alone.
type ringStream struct {
	k    *sim.Kernel
	cl   *Cluster
	dst  topo.NodeID
	left int
	got  int
	win  *sim.Credits
	send func()
}

func newRingStream(t *testing.T, hops int) *ringStream {
	t.Helper()
	p := model.Defaults()
	tp, err := topo.XT3Torus(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs := &ringStream{k: sim.NewKernel(1, MinHandoffLatency(&p)), dst: topo.NodeID(hops)}
	if tp.Hops(0, rs.dst) != hops {
		t.Fatalf("ring route 0->%d is %d hops, want %d", rs.dst, tp.Hops(0, rs.dst), hops)
	}
	rs.cl = NewCluster(rs.k, tp, &p, func(topo.NodeID) int { return 0 })
	rs.win = sim.NewCredits(rs.k.Lane(0), "rxwin", 1<<20)
	for id := 0; id < tp.Nodes(); id++ {
		rs.cl.Port(topo.NodeID(id)).Attach(topo.NodeID(id), rs)
	}
	rs.send = func() { handoffSend(rs.cl, 0, rs.dst) }
	return rs
}

func (rs *ringStream) RxWindow() *sim.Credits { return rs.win }

func (rs *ringStream) HeaderArrived(m *Message) { rs.win.Put(int64(wire.PacketBytes)) }

func (rs *ringStream) ChunkArrived(c *Chunk) {
	rs.win.Put(int64(len(c.Data)))
	m := c.Msg
	pt := rs.cl.Port(rs.dst)
	pt.RecycleChunk(c)
	pt.RecycleMsg(m)
	rs.got++
	if rs.left--; rs.left > 0 {
		rs.send()
	}
}

func (rs *ringStream) run(n int) {
	rs.left = n
	rs.k.Lane(0).After(0, rs.send)
	rs.k.Run()
}

// TestHopwiseSteadyStateAllocatesNothing pins the hopwise transport's
// steady state: once the pools are warm, moving a message across three
// routers — launch, three link reservations, three mailbox posts,
// destination-side admission, delivery — allocates nothing. A kernel run
// has a fixed cost of its own (pprof labels), so the per-message figure is
// the difference between a long run and a short one.
func TestHopwiseSteadyStateAllocatesNothing(t *testing.T) {
	rs := newRingStream(t, 3)
	rs.run(8) // warm the pools, links and mailbox
	if rs.got != 8 {
		t.Fatalf("warm-up delivered %d of 8 messages", rs.got)
	}
	const extra = 200
	short := testing.AllocsPerRun(5, func() { rs.run(1) })
	long := testing.AllocsPerRun(5, func() { rs.run(1 + extra) })
	if perMsg := (long - short) / extra; perMsg != 0 {
		t.Errorf("hopwise transport allocates %.2f objects per 3-hop message in steady state (run of 1: %.0f, run of %d: %.0f); want 0",
			perMsg, short, 1+extra, long)
	}
	if want := 8 + 6*(1+1+extra); rs.got != want {
		t.Errorf("delivered %d messages, want %d", rs.got, want)
	}
}
