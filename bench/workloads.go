package main

import (
	"bytes"
	"fmt"
	"math"

	"portals3/internal/experiments"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/netpipe"
	"portals3/internal/topo"
)

// jobOut is what one job iteration hands back to the harness: the simulated
// quantities the rate metrics divide by, the checks it ran on its own
// output, and the digest that must repeat byte for byte between iterations.
type jobOut struct {
	msgs     int64    // simulated messages
	payload  int64    // simulated application payload bytes
	finishPs int64    // torus: FinishPs; figures: sum of Point.Elapsed
	errPct   float64  // figures: max error vs the paper; torus: unvalidated (-1)
	checks   int      // checks attempted on this iteration's output
	failed   []string // the ones that failed
	digest   []byte

	obs *observed // traced iterations only
}

func (o *jobOut) check(ok bool, format string, args ...interface{}) {
	o.checks++
	if !ok {
		o.failed = append(o.failed, fmt.Sprintf(format, args...))
	}
}

// workload is one of the five benchmark jobs. run executes one iteration;
// when tr is non-nil the iteration runs with the observers on and records
// spans and counts into it. build is one set-up probe at the workload's
// shape: it returns the machine so the probe can measure what stays live.
type workload struct {
	name  string
	why   string
	iters int // fixed run length when no -seconds is given
	// setupReps is how many machines one set-up probe builds.
	setupReps int
	run       func(seed uint64, smoke bool, tr *tracer) jobOut
	build     func(seed uint64, smoke bool) *machine.Machine
}

var workloads = []workload{
	{
		name:  "fig4_latency",
		why:   "2-node ping-pong 1 B-1 KB: per-message cost of nal/core/fw/oskernel/mpi and Proc switches dominates, bytes do nothing",
		iters: 50, setupReps: 64,
		run:   runFig4,
		build: buildPair,
	},
	{
		name:  "fig567_bandwidth",
		why:   "2-node sweeps to 8 MB: fabric chunk pipeline, CRC32, fw DMA and region copies dominate, matching does little",
		iters: 7, setupReps: 64,
		run:   runFig567,
		build: buildPair,
	},
	{
		name:  "halo_512",
		why:   "512-node 2-hop halo on 2 lanes, ~20 msgs per window: hopwise fabric, fw and core steady state plus lane parallelism, no mpi",
		iters: 16, setupReps: 1,
		run: func(_ uint64, smoke bool, tr *tracer) jobOut {
			cfg := haloConfig(smoke)
			return runTorus(cfg, nodesOf(cfg)*6*cfg.Steps, experiments.TorusHalo, tr)
		},
		build: func(_ uint64, smoke bool) *machine.Machine { return buildTorus(haloConfig(smoke)) },
	},
	{
		name:  "collective_512",
		why:   "512-rank allreduce+bcast trees on 2 lanes, ~2 windows per message: kernel window fork/join/drain and mpi dominate, fabric idles",
		iters: 24, setupReps: 1,
		run: func(_ uint64, smoke bool, tr *tracer) jobOut {
			cfg := collectiveConfig(smoke)
			return runTorus(cfg, experiments.CollectiveMsgs(nodesOf(cfg), cfg.Steps), experiments.TorusCollective, tr)
		},
		build: func(_ uint64, smoke bool) *machine.Machine { return buildTorus(collectiveConfig(smoke)) },
	},
	{
		name:  "uniform_lossy_512",
		why:   "512-node uniform traffic on 1 inline lane, ~6-hop routes, 1% drop/dup with go-back-n: the recovery path every other workload bypasses",
		iters: 15, setupReps: 1,
		run: func(seed uint64, smoke bool, tr *tracer) jobOut {
			cfg := lossyConfig(seed, smoke)
			return runTorus(cfg.TorusConfig, experiments.TrafficMsgs(cfg), func(tc experiments.TorusConfig) experiments.TorusResult {
				c := cfg
				c.TorusConfig = tc
				return experiments.TorusTraffic(c)
			}, tr)
		},
		build: func(seed uint64, smoke bool) *machine.Machine {
			return buildTorus(lossyConfig(seed, smoke).TorusConfig)
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- figure workloads ----

// paperLatencyUs and the two bandwidth peaks are the paper's headline
// numbers (section 6), the reference sim_err_pct is measured against.
var paperLatencyUs = map[string]float64{"put": 5.39, "get": 6.60, "mpich-1.2.6": 7.97, "mpich2": 8.40}

const (
	paperUniPeakMBps = 1108.76
	paperBiPeakMBps  = 2203.19
)

// transfers is how many payload transfers one NetPIPE iteration makes.
func transfers(pat netpipe.Pattern) int64 {
	if pat == netpipe.Stream {
		return 1
	}
	return 2
}

// addFigure folds one figure into the job's simulated totals and digest.
func (o *jobOut) addFigure(f experiments.Figure) {
	for _, s := range f.Series {
		for _, pt := range s.Points {
			o.msgs += int64(pt.Iters)
			o.payload += int64(pt.Bytes) * int64(pt.Iters) * transfers(s.Pat)
			o.finishPs += int64(pt.Elapsed)
		}
	}
	var b bytes.Buffer
	f.Render(&b)
	o.digest = append(o.digest, b.Bytes()...)
}

func (o *jobOut) addChecks(cs []experiments.Check) {
	for _, c := range cs {
		o.check(c.Pass, "%s: paper %s, measured %s", c.Name, c.Paper, c.Measured)
	}
}

func relErrPct(got, want float64) float64 { return 100 * math.Abs(got-want) / want }

func seriesAt(f experiments.Figure, series string, size int) (netpipe.Point, bool) {
	for _, s := range f.Series {
		if s.Series != series {
			continue
		}
		for _, pt := range s.Points {
			if pt.Bytes == size {
				return pt, true
			}
		}
	}
	return netpipe.Point{}, false
}

func runFig4(_ uint64, _ bool, tr *tracer) jobOut {
	var o jobOut
	f := figure(tr, experiments.Figure4, "figure4", netpipe.PingPong, 1<<10)
	o.addFigure(f)
	o.addChecks(experiments.LatencyChecks(f))
	for series, want := range paperLatencyUs {
		pt, ok := seriesAt(f, series, 1)
		o.check(ok, "figure4 has no 1-byte point for %s", series)
		o.errPct = math.Max(o.errPct, relErrPct(pt.Latency.Micros(), want))
	}
	return o
}

func runFig567(_ uint64, _ bool, tr *tracer) jobOut {
	var o jobOut
	max := 8 << 20
	f5 := figure(tr, experiments.Figure5, "figure5", netpipe.PingPong, max)
	f6 := figure(tr, experiments.Figure6, "figure6", netpipe.Stream, max)
	f7 := figure(tr, experiments.Figure7, "figure7", netpipe.Bidir, max)
	for _, f := range []experiments.Figure{f5, f6, f7} {
		o.addFigure(f)
	}
	o.addChecks(experiments.BandwidthChecks(f5, f6, f7))
	p5, ok5 := seriesAt(f5, "put", max)
	p7, ok7 := seriesAt(f7, "put", max)
	o.check(ok5 && ok7, "figures 5/7 have no 8 MB put point")
	o.errPct = math.Max(relErrPct(p5.MBps, paperUniPeakMBps), relErrPct(p7.MBps, paperBiPeakMBps))
	return o
}

// figure produces one paper figure. Untraced it is exactly the generator
// the rest of the repository uses; traced it runs the same four series one
// by one so each gets a span and its machine can be observed.
func figure(tr *tracer, gen func(model.Params) experiments.Figure, id string, pat netpipe.Pattern, maxBytes int) experiments.Figure {
	if tr == nil {
		return gen(model.Defaults())
	}
	return tr.figure(id, pat, maxBytes)
}

// buildPair is the figures' set-up probe: the two-node machine every
// NetPIPE series builds, one no-op process per node, run to quiescence.
func buildPair(uint64, bool) *machine.Machine {
	m := machine.NewPair(model.Defaults())
	spawnNoops(m, 2)
	m.Run()
	return m
}

// ---- torus workloads ----

func haloConfig(smoke bool) experiments.TorusConfig {
	c := experiments.TorusConfig{Dim: 8, Bytes: 1024, Steps: 20, Radius: 2, Shards: 2}
	if smoke {
		c.Dim, c.Steps = 4, 2
	}
	return c
}

func collectiveConfig(smoke bool) experiments.TorusConfig {
	c := experiments.TorusConfig{Dim: 8, Bytes: 256, Steps: 8, Shards: 2}
	if smoke {
		c.Dim, c.Steps = 4, 2
	}
	return c
}

// lossyConfig is the only seeded workload: the seed picks both the
// destination streams and the fault plane's draws.
func lossyConfig(seed uint64, smoke bool) experiments.TrafficConfig {
	c := experiments.TrafficConfig{
		TorusConfig: experiments.TorusConfig{
			Dim: 8, Bytes: 1024, Shards: 1,
			GoBackN: true,
			Faults: []model.FaultRule{
				model.NewFault(model.FaultDrop, model.FrameData, 0.01),
				model.NewFault(model.FaultDrop, model.FrameFcAck, 0.01),
				model.NewFault(model.FaultDup, model.FrameData, 0.01),
			},
			FaultSeed: int64(seed),
		},
		Msgs: 32, Load: 1, Seed: seed,
	}
	if smoke {
		c.Dim, c.Msgs = 4, 8
	}
	return c
}

func nodesOf(c experiments.TorusConfig) int { return c.Dim * c.Dim * c.Dim }

// runTorus runs one torus job of msgs simulated messages. The three
// generators share TorusConfig and TorusResult, so one function checks and
// accounts all of them.
func runTorus(cfg experiments.TorusConfig, msgs int, gen func(experiments.TorusConfig) experiments.TorusResult, tr *tracer) jobOut {
	if tr != nil {
		cfg.HostProf = true
		cfg.Telemetry = true
	}
	res := gen(cfg)

	o := jobOut{msgs: int64(msgs), payload: int64(msgs) * int64(cfg.Bytes)}
	o.finishPs = res.FinishPs
	o.errPct = -1 // no reference exists at this scale: unvalidated
	o.check(len(res.Errors) == 0, "%d workload errors, first: %s", len(res.Errors), first(res.Errors))
	if len(cfg.Faults) > 0 {
		o.check(res.FaultStats.Injected() > 0 && res.FaultStats.Open() == 0,
			"fault ledger not closed: %s", res.FaultStats)
	}
	// Telemetry and host profiles are observer output; the digest of a
	// traced iteration is compared only against other traced iterations.
	o.digest = res.Digest()
	if tr != nil {
		o.obs = tr.harvestTorus(res)
	}
	return o
}

func first(s []string) string {
	if len(s) == 0 {
		return ""
	}
	return s[0]
}

// buildTorus is the torus set-up probe: the topology, the sharded machine
// with the workload's fault plan and recovery policy, one no-op process on
// every node in the workload's mode, run to quiescence.
func buildTorus(cfg experiments.TorusConfig) *machine.Machine {
	p := model.Defaults()
	p.Faults = cfg.Faults
	p.FaultSeed = cfg.FaultSeed
	tp, err := topo.XT3Torus(cfg.Dim, cfg.Dim, cfg.Dim)
	if err != nil {
		panic(err)
	}
	m := machine.NewSharded(p, tp, cfg.Shards)
	if cfg.GoBackN || len(cfg.Faults) > 0 {
		m.EnableGoBackN()
	}
	spawnNoops(m, tp.Nodes())
	m.Run()
	return m
}

func spawnNoops(m *machine.Machine, nodes int) {
	for id := 0; id < nodes; id++ {
		if _, err := m.Spawn(topo.NodeID(id), "noop", machine.Generic, func(*machine.App) {}); err != nil {
			panic(err)
		}
	}
}
