package experiments

import (
	"fmt"

	"portals3/internal/core"
	"portals3/internal/fabric"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/netpipe"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// This file is the A2 ablation: resource exhaustion under a many-to-one
// incast, comparing the paper's current behavior ("panic the node, which
// results in application failure", §4.3) with the go-back-n recovery
// protocol the authors describe as in-progress work.

// GbnResult is one incast run.
type GbnResult struct {
	Policy      string
	Sent        int
	Completed   int
	Panicked    bool
	Elapsed     sim.Time
	Exhaustions uint64
	NacksSent   uint64
	NacksRcvd   uint64 // FC_NACK frames the senders received
	Retransmits uint64
	// Faults holds the fault plane's final counters when the run injected
	// faults (the A6 lossy ablation); zero otherwise.
	Faults fabric.FaultStats
}

func (r GbnResult) String() string {
	s := fmt.Sprintf("%-9s delivered %d/%d  panicked=%v  elapsed=%v  exhaustions=%d nacks-sent=%d nacks-rcvd=%d retransmits=%d",
		r.Policy, r.Completed, r.Sent, r.Panicked, r.Elapsed,
		r.Exhaustions, r.NacksSent, r.NacksRcvd, r.Retransmits)
	if r.Faults.Injected() > 0 {
		s += "\n          faults: " + r.Faults.String()
	}
	return s
}

// AblationGoBackN runs the incast twice — panic policy and go-back-n, both
// arms concurrently on the experiment driver — with a deliberately small
// receive pending pool so exhaustion actually happens, and reports what
// each policy delivered.
func AblationGoBackN(p model.Params, senders, msgsPerSender, msgBytes int) [2]GbnResult {
	var out [2]GbnResult
	netpipe.ForEach(Parallelism, 2, func(i int) {
		out[i] = runIncast(p, senders, msgsPerSender, msgBytes, i == 1)
	})
	return out
}

func runIncast(p model.Params, senders, msgsPerSender, msgBytes int, gbn bool) GbnResult {
	// Starve the receiver: a tiny pending pool makes the incast exhaust it.
	p.NumGenericPendings = 16
	tp, err := topo.New(senders+1, 1, 1, false, false, false)
	if err != nil {
		panic(err)
	}
	m := machine.New(p, tp)
	if gbn {
		m.EnableGoBackN()
	}
	res := GbnResult{Policy: "panic", Sent: senders * msgsPerSender}
	if gbn {
		res.Policy = "go-back-n"
	}

	recvNode := m.Node(0)
	recvNode.NIC.OnPanic = func(string) { res.Panicked = true }

	completed := 0
	var lastAt sim.Time
	recv, err := m.Spawn(0, "incast-recv", machine.Generic, func(app *machine.App) {
		eq, _ := app.API.EQAlloc(8192)
		me, _ := app.API.MEAttach(3, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 1, 0, core.Retain, core.After)
		buf := app.Alloc(msgBytes)
		app.API.MDAttach(me, core.MDesc{
			Region:    buf,
			Threshold: core.ThresholdInfinite,
			Options:   core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable,
			EQ:        eq,
		}, core.Retain)
		for completed < senders*msgsPerSender {
			ev, err := app.API.EQWait(eq)
			if err != nil && err != core.ErrEQDropped {
				return
			}
			if ev.Type == core.EventPutEnd {
				completed++
				lastAt = app.Proc.Now()
			}
		}
	})
	if err != nil {
		panic(err)
	}
	for s := 1; s <= senders; s++ {
		node := topo.NodeID(s)
		if _, err := m.Spawn(node, fmt.Sprintf("incast-tx%d", s), machine.Generic, func(app *machine.App) {
			app.Proc.Sleep(50 * sim.Microsecond)
			eq, _ := app.API.EQAlloc(1024)
			src := app.Alloc(msgBytes)
			md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite,
				Options: core.MDEventStartDisable, EQ: eq})
			// Burst every message without pacing — the driver backlogs
			// sends past the pending pool — then collect completions. The
			// unthrottled burst is what makes the incast exhaust the
			// receiver.
			for i := 0; i < msgsPerSender; i++ {
				if err := app.API.Put(md, core.NoAck, recv.ID(), 3, 1, 0, 0); err != nil {
					return
				}
			}
			for got := 0; got < msgsPerSender; {
				ev, err := app.API.EQWait(eq)
				if err != nil && err != core.ErrEQDropped {
					return
				}
				if ev.Type == core.EventSendEnd {
					got++
				}
			}
		}); err != nil {
			panic(err)
		}
	}
	// A panicked node wedges its streams (that is the failure mode); run to
	// a horizon rather than to quiescence.
	m.RunUntil(200 * sim.Millisecond)
	res.Completed = completed
	res.Elapsed = lastAt
	res.Exhaustions = recvNode.NIC.Stats.Exhaustions
	res.NacksSent = recvNode.NIC.Stats.NacksSent
	for s := 1; s <= senders; s++ {
		res.Retransmits += m.Node(topo.NodeID(s)).NIC.Stats.Retransmits
		res.NacksRcvd += m.Node(topo.NodeID(s)).NIC.Stats.NacksRcvd
	}
	if len(p.Faults) > 0 {
		res.Faults, _ = m.FaultSnapshot()
	}
	return res
}

// GbnChecks validates the ablation shape: panic loses the application,
// go-back-n delivers everything.
func GbnChecks(r [2]GbnResult) []Check {
	return []Check{
		{
			Name:     "panic policy fails the application under incast",
			Paper:    "the current approach is to panic the node (§4.3)",
			Measured: fmt.Sprintf("delivered %d/%d, panicked=%v", r[0].Completed, r[0].Sent, r[0].Panicked),
			Pass:     r[0].Panicked && r[0].Completed < r[0].Sent,
		},
		{
			Name:     "go-back-n resolves exhaustion gracefully",
			Paper:    "a simple go-back-n protocol to resolve resource exhaustion (§4.3)",
			Measured: fmt.Sprintf("delivered %d/%d with %d retransmits", r[1].Completed, r[1].Sent, r[1].Retransmits),
			Pass:     !r[1].Panicked && r[1].Completed == r[1].Sent && r[1].Retransmits > 0,
		},
	}
}
