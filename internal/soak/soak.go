// Package soak is the chaos soak campaign driver: seeded virtual-time
// fault campaigns — scheduled link flaps, node stalls, correlated burst
// loss and rolling firmware restarts — run over four of the repository's
// torus jobs (halo exchange, collective, uniform and hot-spot traffic, each
// an experiments.Job on the 3x3x3 torus under go-back-n), on the
// sequential reference kernel and the sharded parallel kernel alike. A
// campaign is its job plus a schedule, so netpipe replays any of them.
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
//   - the job's own delivery checks: every halo face against its sender's
//     pattern, the collective's sums, and for the traffic jobs each
//     receiver's count and checksum and every flow's send order.
//
// When a campaign fails, Bisect (bisect.go) minimizes the schedule to a
// smallest still-failing reproduction and renders a ready-to-paste repro
// command. DESIGN.md §13 describes the architecture.
package soak

import (
	"fmt"
	"strings"

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
)

// Workloads lists every workload name, in campaign order.
var Workloads = []string{TorusHalo, TorusCollective, RandTraffic, HotSpot}

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
	// report's detection dump with FlightRec on. Summary never reads them.
	Artifacts machine.Artifacts
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
// time its generated schedules target and its job as netpipe spells it
// (experiments.Job) on the 3x3x3 torus. A job runs a fixed amount of work,
// so its span sits inside the job's natural finish: the collective's ranks
// first hold at the mpi.DefaultStart barrier (500us), and the traffic jobs
// inject at a quarter of line rate so injection stays open across the fault
// windows. Node 13 is the torus center.
var campaigns = map[string]struct {
	span sim.Time
	job  string
}{
	TorusHalo:       {400 * sim.Microsecond, "-workload halo -bytes 512 -steps 4 -radius 1"},
	TorusCollective: {1000 * sim.Microsecond, "-workload collective -bytes 128 -steps 3"},
	RandTraffic:     {150 * sim.Microsecond, "-workload random -bytes 512 -msgs 24 -load 0.25"},
	HotSpot:         {150 * sim.Microsecond, "-workload hotspot -bytes 512 -msgs 24 -load 0.25 -hot 13 -hotfrac 0.3"},
}

// Resolve returns the campaign's effective schedule: the explicit one
// validated against the 3x3x3 torus, or the seed-generated one. An unknown
// workload is an error.
func Resolve(c Campaign) (model.FaultSchedule, error) {
	if _, ok := campaigns[c.Workload]; !ok {
		return nil, fmt.Errorf("soak: unknown workload %q (want %s)", c.Workload, strings.Join(Workloads, ", "))
	}
	tp, err := topo.XT3Torus(3, 3, 3)
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
// campaign runs with the host-execution profiler armed, so the result's
// artifacts carry the lane profile alongside the deterministic outcome.
func Run(c Campaign) Result {
	c.Shards = max(c.Shards, 1)
	res := Result{Workload: c.Workload, Seed: c.Seed, Shards: c.Shards}
	sched, err := Resolve(c)
	if err != nil {
		res.Errors = append(res.Errors, err.Error())
		return res
	}
	res.Schedule = sched
	j := torusJob(c, sched)
	r := j.Run()
	res.FinishPs, res.Msgs, res.Ledger = r.FinishPs, j.Msgs(), r.FaultStats
	if open := r.FaultStats.Open(); open != 0 {
		res.Errors = append(res.Errors, fmt.Sprintf("ledger imbalance: %d fault(s) neither recovered nor condemned", open))
	}
	res.Errors = append(res.Errors, r.Errors...)
	res.Artifacts = r.Artifacts
	return res
}

// stallWindow sizes the stall detector safely above every scheduled
// blackout: a window shorter than a scheduled outage would report the
// fault plan itself as a hang.
func stallWindow(sched model.FaultSchedule) sim.Time {
	w := 2*sched.MaxDur() + 1500*sim.Microsecond
	return (w + sim.Microsecond - 1) / sim.Microsecond * sim.Microsecond // whole µs, as -dump-on-stall spells it
}

// torusJob is the job a campaign runs: its row on the 3x3x3 torus with
// go-back-n carrying recovery, the schedule, a stall detector sized above
// it, the host profiler, and the traffic seed drawn from the campaign's.
func torusJob(c Campaign, sched model.FaultSchedule) experiments.Job {
	j, err := experiments.ParseJob(strings.Fields(campaigns[c.Workload].job + " -dim 3 -gbn -hostprof"))
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
	return j
}
