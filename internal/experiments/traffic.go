// Synthetic point-to-point traffic over the routed torus: every node runs
// a generator that fires fixed-size messages at either uniform-random
// destinations or (with HotFrac > 0) a hot-spot node, paced to a
// configurable fraction of one link's line rate. This is the classic
// network-evaluation pair — uniform traffic measures the fabric's
// distance/contention profile under balanced load, the hot-spot
// concentrates head-of-line blocking on the victim's links — and it is the
// load generator behind the latency-under-load sweeps (EXPERIMENTS.md).
//
// Destinations come from per-sender splitmix64 streams seeded by (Seed,
// sender), a pure function, so the run precomputes every sender's
// destination sequence, derives each receiver's expected message count and
// an order-independent checksum, and verifies delivery without any
// cross-lane bookkeeping during the run. Each receiver also records the
// arrival ordinal of every message it takes, and after the run every
// (source, destination) flow must have arrived in send order: the SeaStar
// routes a pair over one fixed path, and go-back-n redelivers in order.
package experiments

import (
	"fmt"

	"portals3/internal/core"
	"portals3/internal/machine"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// trafPtl is the portal table index the traffic receivers attach to, and
// trafMatch the match-bits value every message uses.
const (
	trafPtl   = 4
	trafMatch = 0x7a
)

// TrafficConfig describes one traffic-generator run. The embedded
// TorusConfig supplies the torus shape, message size (Bytes), shard count,
// fault plan and observers; Radius and Steps are unused.
type TrafficConfig struct {
	TorusConfig

	Msgs int     // messages each sender fires
	Load float64 // offered load per sender, as a fraction of one link's line rate (0 = 1.0)

	// HotFrac is the probability a message targets HotNode instead of a
	// uniform-random destination; 0 is pure uniform traffic.
	HotFrac float64
	HotNode topo.NodeID

	Seed uint64 // destination-stream seed
}

// splitmix64 advances one destination stream.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// msgSum is the order-independent checksum contribution of message k from
// src — receivers accumulate these by addition, so arrival order (which
// contention legitimately reorders) cannot affect the verification.
func msgSum(src topo.NodeID, k uint64) uint64 {
	x := uint64(src)<<32 ^ k
	return splitmix64(&x)
}

// trafficDests precomputes sender src's destination sequence — the same
// pure replay both the sender and the verifier use.
func trafficDests(cfg *TrafficConfig, nodes int, src topo.NodeID) []topo.NodeID {
	state := cfg.Seed<<1 ^ uint64(src)*0xD6E8FEB86659FD93
	splitmix64(&state) // decorrelate adjacent senders' first draws
	out := make([]topo.NodeID, cfg.Msgs)
	for k := range out {
		if cfg.HotFrac > 0 && src != cfg.HotNode {
			if float64(splitmix64(&state)>>11)/(1<<53) < cfg.HotFrac {
				out[k] = cfg.HotNode
				continue
			}
		}
		// Uniform over the other nodes: draw in [0, nodes-1), skip self.
		d := topo.NodeID(splitmix64(&state) % uint64(nodes-1))
		if d >= src {
			d++
		}
		out[k] = d
	}
	return out
}

// flowOrderErrors checks that every (src, dst) flow arrived in send order.
// dests[src] is src's destination sequence and arrival[src*len(dests[src])+k]
// the arrival ordinal of its message k at the receiver (1 for the receiver's
// first arrival), 0 for a message that never arrived, which the count check
// reports. There is one error per message that overtook an earlier one of
// its flow.
func flowOrderErrors(dests [][]topo.NodeID, arrival []int32) []string {
	last := make([]int32, len(dests)) // per dst: latest ordinal of src's flow into it
	var errs []string
	for src, ds := range dests {
		clear(last)
		for k, dst := range ds {
			a := arrival[src*len(ds)+k]
			if a == 0 {
				continue
			}
			if a < last[dst] {
				errs = append(errs, fmt.Sprintf(
					"node %d: message %d from node %d overtook an earlier one of its flow", dst, k, src))
			}
			last[dst] = max(last[dst], a)
		}
	}
	return errs
}

// TorusTraffic runs one traffic-generator experiment and verifies every
// node received exactly its expected messages (count and checksum), each
// flow in send order.
func TorusTraffic(cfg TrafficConfig) TorusResult {
	m, tp := buildTorusMachine(&cfg.TorusConfig)
	nodes := tp.Nodes()
	if cfg.Msgs < 1 {
		cfg.Msgs = 1
	}
	if cfg.Load <= 0 {
		cfg.Load = 1.0
	}
	if int(cfg.HotNode) >= nodes || cfg.HotNode < 0 {
		panic(fmt.Sprintf("experiments: hot node %d outside the %d-node torus", cfg.HotNode, nodes))
	}
	B := cfg.Bytes

	// Pure precomputation: every sender's destinations, every receiver's
	// expected count and checksum.
	dests := make([][]topo.NodeID, nodes)
	wantCount := make([]int, nodes)
	wantSum := make([]uint64, nodes)
	for id := 0; id < nodes; id++ {
		dests[id] = trafficDests(&cfg, nodes, topo.NodeID(id))
		for k, dst := range dests[id] {
			wantCount[dst]++
			wantSum[dst] += msgSum(topo.NodeID(id), uint64(k))
		}
	}

	// Pacing: one message's serialization time on a link, stretched by the
	// inverse load factor. Integer picoseconds after one float division, so
	// the schedule is deterministic at any shard count.
	interval := sim.Time(float64(sim.BytesAt(int64(B), m.P.LinkBps)) / cfg.Load)
	const start = 100 * sim.Microsecond

	gotCount := make([]int, nodes)
	gotSum := make([]uint64, nodes)
	arrival := make([]int32, nodes*cfg.Msgs) // flowOrderErrors' layout
	sendErrs := make([][]string, nodes)
	apps := make([]*machine.App, nodes)
	res := TorusResult{Nodes: nodes}
	for id := 0; id < nodes; id++ {
		id := topo.NodeID(id)
		app, err := m.Spawn(id, fmt.Sprintf("traf-%d", id), machine.Generic, func(app *machine.App) {
			recvEq, err := app.API.EQAlloc(wantCount[id] + 32)
			if err != nil {
				panic(err)
			}
			me, err := app.API.MEAttach(trafPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
				trafMatch, 0, core.Retain, core.After)
			if err != nil {
				panic(err)
			}
			recvBuf := app.Alloc(B)
			if _, err := app.API.MDAttach(me, core.MDesc{
				Region: recvBuf, Threshold: core.ThresholdInfinite,
				Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable,
				EQ:      recvEq,
			}, core.Retain); err != nil {
				panic(err)
			}

			sendEq, err := app.API.EQAlloc(cfg.Msgs + 32)
			if err != nil {
				panic(err)
			}
			src := app.Alloc(B)
			payload := make([]byte, B)
			for i := range payload {
				payload[i] = byte(int(id)*167 + i*5 + 3)
			}
			src.WriteAt(0, payload)
			md, err := app.API.MDBind(core.MDesc{
				Region: src, Threshold: core.ThresholdInfinite,
				Options: core.MDEventStartDisable, EQ: sendEq,
			})
			if err != nil {
				panic(err)
			}

			// All receivers armed before traffic.
			if now := app.Proc.Now(); now < start {
				app.Proc.Sleep(start - now)
			}

			// Paced injection: the put is issued at its scheduled instant and
			// the SEND_END waits are deferred, so the offered-load factor —
			// not the NIC's send-completion latency — governs the injection
			// rate, and load > link share genuinely queues.
			sent := 0
			for k, dst := range dests[id] {
				if due := start + sim.Time(k)*interval; app.Proc.Now() < due {
					app.Proc.Sleep(due - app.Proc.Now())
				}
				if err := app.API.PutRegion(md, 0, B, core.NoAck, apps[dst].ID(),
					trafPtl, trafMatch, 0, uint64(k)); err != nil {
					sendErrs[id] = append(sendErrs[id], fmt.Sprintf("msg %d to %d: %v", k, dst, err))
					continue
				}
				sent++
			}
			waitEvents(app, sendEq, core.EventSendEnd, sent)

			// Drain arrivals; each PUT_END carries (initiator, k) for the
			// order-independent checksum and the message's arrival ordinal.
			for gotCount[id] < wantCount[id] {
				ev, err := app.API.EQWait(recvEq)
				if err != nil && err != core.ErrEQDropped {
					panic(err)
				}
				if ev.Type != core.EventPutEnd {
					continue
				}
				gotCount[id]++
				src, k := int(ev.Initiator.Nid), ev.HdrData
				gotSum[id] += msgSum(topo.NodeID(src), k)
				if src < nodes && k < uint64(cfg.Msgs) { // else the checksum fails
					arrival[src*cfg.Msgs+int(k)] = int32(gotCount[id])
				}
			}
		})
		if err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
		apps[id] = app
	}
	startObservers(m, cfg.TorusConfig)
	m.Run()
	harvest(m, &res)
	appendRankErrors(&res, sendErrs)
	for id := 0; id < nodes; id++ {
		if gotCount[id] != wantCount[id] {
			res.Errors = append(res.Errors, fmt.Sprintf(
				"node %d: received %d messages, want %d", id, gotCount[id], wantCount[id]))
		}
		if gotSum[id] != wantSum[id] {
			res.Errors = append(res.Errors, fmt.Sprintf(
				"node %d: checksum %#x, want %#x", id, gotSum[id], wantSum[id]))
		}
	}
	res.Errors = append(res.Errors, flowOrderErrors(dests, arrival)...)
	return res
}

// TrafficMsgs is the run's total message count, for liveness budgets.
func TrafficMsgs(cfg TrafficConfig) int {
	n := cfg.Dim * cfg.Dim * cfg.Dim
	m := cfg.Msgs
	if m < 1 {
		m = 1
	}
	return n * m
}
