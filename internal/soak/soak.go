// Package soak is the chaos soak campaign driver: seeded virtual-time
// fault campaigns — scheduled link flaps, node stalls, correlated burst
// loss and rolling firmware restarts — run over the repository's standard
// workloads (torus halo exchange, lossy incast, go-back-n stream), on the
// sequential reference kernel and the sharded parallel kernel alike.
//
// A campaign is reproducible by construction: the seed derives the fault
// schedule (model.GenSchedule), the schedule applies deterministically at
// any shard count (machine/schedule.go), and a Result's Summary excludes
// everything that may legitimately vary between arms — so the same seed
// must produce byte-identical summaries at shards=1 and shards=N, and any
// divergence is itself a failure.
//
// At quiescence every campaign asserts the soak invariants:
//
//   - the fault ledger balances: injected == recovered + condemned;
//   - zero failure reports — no stalls, panics or ledger imbalances;
//   - the workload's own delivery checks (sequence, integrity, counts).
//
// When a campaign fails, Bisect (bisect.go) minimizes the schedule to a
// smallest still-failing reproduction and renders a ready-to-paste repro
// command. DESIGN.md §13 describes the architecture.
package soak

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"portals3/internal/core"
	"portals3/internal/experiments"
	"portals3/internal/fabric"
	"portals3/internal/flightrec"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// Workload names.
const (
	// TorusHalo is the machine-scale halo exchange on a 3x3x3 torus.
	TorusHalo = "torus-halo"
	// TorusCollective is the MPI allreduce/broadcast-tree workload on a
	// 3x3x3 torus — one rank per node, binomial trees over the routed
	// fabric.
	TorusCollective = "torus-collective"
	// RandTraffic is the uniform-random point-to-point generator on a
	// 3x3x3 torus.
	RandTraffic = "rand-traffic"
	// HotSpot is the hot-spot point-to-point generator on a 3x3x3 torus:
	// a fraction of every sender's messages converge on one victim node.
	HotSpot = "hot-spot"
	// LossyIncast is three senders converging on one receiver over a
	// 4-node line, under a small receive pool.
	LossyIncast = "lossy-incast"
	// GbnStream is an ordered pipelined stream across a 4-node line.
	GbnStream = "gbn-stream"
)

// Workloads lists every workload name, in campaign order.
var Workloads = []string{TorusHalo, TorusCollective, RandTraffic, HotSpot, LossyIncast, GbnStream}

// soakPtl/soakMatch are the portal index and match bits the line workloads
// attach on, as in the machine tests.
const (
	soakPtl   = 4
	soakMatch = 7
)

// Campaign describes one soak run.
type Campaign struct {
	Workload string
	Seed     int64
	Entries  int // generated schedule length; 0 means 4
	Shards   int // event lanes; 0 means 1

	// Schedule, when non-empty, overrides seed generation — the bisector
	// and explicit repro runs set it.
	Schedule model.FaultSchedule

	// FlightRec enables the per-node flight recorder so a failing run
	// carries its dumps (render with p3stat).
	FlightRec bool

	// Progress, when set, receives live host-execution snapshots during
	// the run (about one per second of wall-clock) — cmd/soak's -progress.
	Progress func(sim.HostProgress)
}

// Result is one campaign's outcome.
type Result struct {
	Workload string
	Seed     int64
	Shards   int
	Schedule model.FaultSchedule

	FinishPs int64 // virtual completion time
	Msgs     int   // workload messages delivered (halo faces for torus)
	Ledger   fabric.FaultStats

	// Errors lists every violated invariant; empty on a passing run.
	Errors []string

	// Artifacts is what the run's armed planes recorded (machine.Artifacts):
	// the host profile always, the end-of-run dump and every failure
	// report's detection dump with FlightRec on.
	Artifacts machine.Artifacts

	// Host-execution measurements. Wall-clock and heap are host-side and
	// nondeterministic, so Summary deliberately never reads them — they
	// feed the trend JSON (soak-time regression tracking), not the
	// shard-invariance comparison.
	WallNs        int64
	PeakHeapBytes uint64
	HostProfile   *machine.HostProfile
}

// Failed reports whether any soak invariant was violated.
func (r *Result) Failed() bool { return len(r.Errors) > 0 }

// Summary renders the shard-invariant outcome: everything the campaign
// asserts, nothing that may differ between arms (no shard count, no
// wall-clock). Same seed, same workload => byte-identical summaries at
// every shard count.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s seed=%d\n", r.Workload, r.Seed)
	fmt.Fprintf(&b, "schedule=%s\n", r.Schedule)
	fmt.Fprintf(&b, "finish_ps=%d msgs=%d\n", r.FinishPs, r.Msgs)
	fmt.Fprintf(&b, "ledger=%v\n", r.Ledger)
	if len(r.Errors) == 0 {
		b.WriteString("status=PASS\n")
		return b.String()
	}
	fmt.Fprintf(&b, "status=FAIL errors=%d\n", len(r.Errors))
	for _, e := range r.Errors {
		b.WriteString("  " + e + "\n")
	}
	return b.String()
}

// campaigns is what a campaign of each workload runs: the span of virtual
// time its generated schedules target and, for a torus workload, its job as
// netpipe spells it (experiments.Job) on the 3x3x3 torus. The line
// workloads stream until the schedule's last window closes, so any span
// overlaps their traffic. A torus job runs a fixed amount of work, so its
// span sits inside the job's natural finish: the collective's ranks first
// hold at the mpi.DefaultStart barrier (500us), and the traffic jobs inject
// at a quarter of line rate so injection stays open across the fault
// windows. Node 13 is the torus center.
var campaigns = map[string]struct {
	span sim.Time
	job  string
}{
	TorusHalo:       {400 * sim.Microsecond, "-workload halo -bytes 512 -steps 4 -radius 1"},
	TorusCollective: {1000 * sim.Microsecond, "-workload collective -bytes 128 -steps 3"},
	RandTraffic:     {150 * sim.Microsecond, "-workload random -bytes 512 -msgs 24 -load 0.25"},
	HotSpot:         {150 * sim.Microsecond, "-workload hotspot -bytes 512 -msgs 24 -load 0.25 -hot 13 -hotfrac 0.3"},
	LossyIncast:     {700 * sim.Microsecond, ""},
	GbnStream:       {700 * sim.Microsecond, ""},
}

// Topology returns the workload's fixed topology — the validation target
// for schedules and the node-id space for generated ones.
func Topology(workload string) (*topo.Topology, error) {
	row, ok := campaigns[workload]
	switch {
	case !ok:
		return nil, fmt.Errorf("soak: unknown workload %q (want %s)", workload, strings.Join(Workloads, ", "))
	case row.job != "":
		return topo.XT3Torus(3, 3, 3)
	}
	return topo.New(4, 1, 1, false, false, false)
}

// Resolve returns the campaign's effective schedule: the explicit one
// validated, or the seed-generated one.
func Resolve(c Campaign) (model.FaultSchedule, error) {
	tp, err := Topology(c.Workload)
	if err != nil {
		return nil, err
	}
	if len(c.Schedule) > 0 {
		if err := c.Schedule.Validate(tp); err != nil {
			return nil, fmt.Errorf("soak: %v", err)
		}
		return c.Schedule, nil
	}
	n := c.Entries
	if n <= 0 {
		n = 4
	}
	return model.GenSchedule(c.Seed, tp, n, campaigns[c.Workload].span), nil
}

// Run executes one campaign and audits the soak invariants. Every
// campaign runs with the host-execution profiler armed, so the result
// carries wall-clock, peak heap, and the lane profile alongside the
// deterministic outcome.
func Run(c Campaign) Result {
	start := time.Now()
	c.Shards = max(c.Shards, 1)
	res := Result{Workload: c.Workload, Seed: c.Seed, Shards: c.Shards}
	sched, err := Resolve(c)
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
		res.WallNs = int64(time.Since(start))
		return res
	}
	res.Schedule = sched
	if j, ok := torusJob(c, sched); ok {
		r := j.Run()
		res.FinishPs, res.Msgs = r.FinishPs, j.Msgs()
		settle(&res, r.FaultStats, r.Errors, r.Artifacts, r.HostProfile)
	} else {
		runLine(c, sched, &res, c.Workload == LossyIncast)
	}
	res.WallNs = int64(time.Since(start))
	if res.HostProfile != nil {
		res.PeakHeapBytes = res.HostProfile.HeapInuseHigh
	}
	return res
}

// stallWindow sizes the stall detector safely above every scheduled
// blackout: a window shorter than a scheduled outage would report the
// fault plan itself as a hang.
func stallWindow(sched model.FaultSchedule) sim.Time {
	w := 2*sched.MaxDur() + 1500*sim.Microsecond
	return (w + sim.Microsecond - 1) / sim.Microsecond * sim.Microsecond // whole µs, as -dump-on-stall spells it
}

// settle records a finished run's ledger, with an imbalance as the first of
// its errors, and what the run recorded.
func settle(res *Result, ledger fabric.FaultStats, errs []string, art machine.Artifacts, hp *machine.HostProfile) {
	res.Ledger = ledger
	if ledger.Open() != 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("ledger imbalance: %d fault(s) neither recovered nor condemned", ledger.Open()))
	}
	res.Errors = append(res.Errors, errs...)
	res.Artifacts, res.HostProfile = art, hp
}

// torusJob is the job a torus campaign runs, false for a line workload:
// its row on the 3x3x3 torus with go-back-n carrying recovery, the
// schedule, a stall detector sized above it, the host profiler, and the
// traffic seed drawn from the campaign's.
func torusJob(c Campaign, sched model.FaultSchedule) (experiments.Job, bool) {
	row := campaigns[c.Workload].job
	if row == "" {
		return experiments.Job{}, false
	}
	j, err := experiments.ParseJob(strings.Fields(row + " -dim 3 -gbn -hostprof"))
	if err != nil {
		panic(err)
	}
	j.Shards, j.Schedule, j.StallWindow = c.Shards, sched, stallWindow(sched)
	if c.Workload == RandTraffic || c.Workload == HotSpot {
		j.Seed = uint64(c.Seed)*0x9E3779B9 + 0xd1ce
	}
	j.Progress = c.Progress
	if c.FlightRec {
		j.FlightRec = flightrec.DefaultRingEvents
	}
	return j, true
}

// runLine drives the two line workloads: incast (senders 1..3 converge on
// node 0) or an ordered stream (node 0 to node 3). Senders stream
// fixed-fill 1 KiB messages until every scheduled fault window has closed,
// then send a 1-byte sentinel; the receiver verifies per-sender sequence
// numbers from the put header data and message integrity from the fill.
func runLine(c Campaign, sched model.FaultSchedule, res *Result, incast bool) {
	p := model.Defaults()
	p.NumGenericPendings = 32
	p.Schedule = sched
	tp, _ := Topology(c.Workload) // Resolve vouched for the workload
	m := machine.NewSharded(p, tp, c.Shards)
	m.EnableGoBackN()
	m.EnableHostProfile()
	if c.Progress != nil {
		m.SetProgress(0, c.Progress)
	}
	if c.FlightRec {
		m.EnableFlightRecorder(0)
	}

	const B = 1024
	// Senders stream until the last fault window has closed (plus margin),
	// so the schedule always overlaps live traffic.
	until := max(sched.End()+100*sim.Microsecond, 300*sim.Microsecond)

	rxNode, senders := topo.NodeID(3), []topo.NodeID{0} // in ascending order
	if incast {
		rxNode, senders = 0, []topo.NodeID{1, 2, 3}
	}

	type flow struct {
		sent int
		next uint64 // next expected sequence at the receiver
	}
	flows := make(map[uint32]*flow)
	for _, s := range senders {
		flows[uint32(s)] = &flow{}
	}
	var mu []string // verification errors, collected in event order
	received := 0

	var rx *machine.App
	rx, _ = m.Spawn(rxNode, "soak-rx", machine.Generic, func(app *machine.App) {
		eq, err := app.API.EQAlloc(8192)
		if err != nil {
			panic(err)
		}
		me, err := app.API.MEAttach(soakPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
			soakMatch, 0, core.Retain, core.After)
		if err != nil {
			panic(err)
		}
		buf := app.Alloc(len(senders) * B)
		if _, err := app.API.MDAttach(me, core.MDesc{
			Region: buf, Threshold: core.ThresholdInfinite,
			Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable,
			EQ:      eq,
		}, core.Retain); err != nil {
			panic(err)
		}
		sentinels := 0
		for sentinels < len(senders) {
			ev, err := app.API.EQWait(eq)
			if err != nil && err != core.ErrEQDropped {
				panic(err)
			}
			if ev.Type != core.EventPutEnd {
				continue
			}
			if ev.NIFail {
				mu = append(mu, fmt.Sprintf("rx: NIFail from nid %d seq %d", ev.Initiator.Nid, ev.HdrData))
				continue
			}
			fl := flows[ev.Initiator.Nid]
			if fl == nil {
				mu = append(mu, fmt.Sprintf("rx: message from unexpected nid %d", ev.Initiator.Nid))
				continue
			}
			if ev.MLength == 1 {
				sentinels++
				continue
			}
			if ev.HdrData != fl.next {
				mu = append(mu, fmt.Sprintf("rx: nid %d out of order: got seq %d want %d", ev.Initiator.Nid, ev.HdrData, fl.next))
			}
			fl.next = ev.HdrData + 1
			data := make([]byte, ev.MLength)
			buf.ReadAt(ev.Offset, data)
			wantFill := fillByte(ev.Initiator.Nid, ev.HdrData)
			for _, v := range data {
				if v != wantFill {
					mu = append(mu, fmt.Sprintf("rx: nid %d seq %d corrupted: byte %#x want %#x", ev.Initiator.Nid, ev.HdrData, v, wantFill))
					break
				}
			}
			received++
		}
	})
	for slot, s := range senders {
		fl := flows[uint32(s)]
		m.Spawn(s, fmt.Sprintf("soak-tx-%d", s), machine.Generic, func(app *machine.App) {
			app.Proc.Sleep(50 * sim.Microsecond)
			eq, err := app.API.EQAlloc(8192)
			if err != nil {
				panic(err)
			}
			src := app.Alloc(B)
			md, err := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite,
				Options: core.MDEventStartDisable, EQ: eq})
			if err != nil {
				panic(err)
			}
			for seq := uint64(0); app.Proc.Now() < until; seq++ {
				src.WriteAt(0, bytes.Repeat([]byte{fillByte(uint32(s), seq)}, B))
				if err := app.API.PutRegion(md, 0, B, core.NoAck, rx.ID(),
					soakPtl, soakMatch, slot*B, seq); err != nil {
					panic(err)
				}
				waitSendEnd(app, eq)
				fl.sent++
			}
			src.WriteAt(0, []byte{0xff})
			if err := app.API.PutRegion(md, 0, 1, core.NoAck, rx.ID(),
				soakPtl, soakMatch, slot*B, ^uint64(0)); err != nil {
				panic(err)
			}
			waitSendEnd(app, eq)
		})
	}
	m.StartStallDetector(stallWindow(sched))
	m.Run()

	res.Msgs = received
	sent := 0
	for _, nid := range senders {
		fl := flows[uint32(nid)]
		sent += fl.sent
		if int(fl.next) != fl.sent {
			mu = append(mu, fmt.Sprintf("nid %d: sent %d messages, receiver saw %d", nid, fl.sent, fl.next))
		}
	}
	if received != sent {
		mu = append(mu, fmt.Sprintf("delivered %d of %d messages", received, sent))
	}
	res.Errors = append(res.Errors, mu...)
	var reports []string
	for _, r := range m.Reports() {
		reports = append(reports, "failure report: "+r.String())
	}
	res.FinishPs = int64(m.S.Now())
	st, _ := m.FaultSnapshot()
	settle(res, st, reports, m.Artifacts("end of soak campaign"), m.HostProfile())
}

// fillByte is the uniform fill of message seq from sender nid — a pure
// function any observer can recompute.
func fillByte(nid uint32, seq uint64) byte {
	return byte(nid<<4) | byte(seq%13+1)
}

// waitSendEnd consumes events until the put's SEND_END arrives.
func waitSendEnd(app *machine.App, eq core.EQHandle) {
	for {
		ev, err := app.API.EQWait(eq)
		if err != nil && err != core.ErrEQDropped {
			panic(err)
		}
		if ev.Type == core.EventSendEnd {
			return
		}
	}
}
