// Command netpipe is the benchmark driver: it regenerates the paper's
// figures over the simulated XT3 (two adjacent Catamount nodes, as in §5)
// and prints NetPIPE-style tables.
//
// Reproduce a whole figure:
//
//	netpipe -fig 4        # latency (paper Figure 4)
//	netpipe -fig 5        # uni-directional bandwidth (Figure 5)
//	netpipe -fig 6        # streaming bandwidth (Figure 6)
//	netpipe -fig 7        # bi-directional bandwidth (Figure 7)
//	netpipe -fig all -checks
//
// Or run one curve:
//
//	netpipe -series put -pattern pingpong -max 1048576
//	netpipe -series mpich2 -pattern stream
//	netpipe -series put -pattern pingpong -accel   # accelerated mode
//
// The fabric's fault-injection plane is exposed for lossy-fabric runs;
// combine it with -gbn so the go-back-n protocol recovers the losses
// (without it, dropped frames are simply gone, as on a panic-policy
// machine):
//
//	netpipe -series put -gbn -faults drop:data:0.01,drop:fcack:0.05
//	netpipe -series put -gbn -faults delay:data:0.02:20us -faultseed 7
//
// Timed faults — link flaps, node stalls, firmware restarts, loss bursts —
// use the declarative -schedule grammar instead; unlike -faults they are
// deterministic in virtual time and work at any -shards count:
//
//	netpipe -series put -pattern stream -gbn -schedule 'linkdown:0:X+:150us:100us'
//	netpipe -torus -shards 4 -gbn -schedule 'stall:5:400us:80us,burst:drop:data:0.2:200us:60us'
//
// The machine-scale torus halo exchange runs on the sharded parallel
// kernel; -shards picks the lane count (simulated results are
// bit-identical at every count):
//
//	netpipe -torus -shards 4
//	netpipe -torus -shards 1 -stats
//
// Host-side profiling (go tool pprof) works with every mode:
//
//	netpipe -torus -shards 4 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Every single run (-series, -torus and its sweep) ends the same way: the
// counters with -stats, the fault-plane line, every failure report, and the
// planes the observer switches armed (-telemetry, -flightrec, -hostprof)
// written through machine.Artifacts under -out BASE, as BASE.p3dump and so
// on; a failure exits 1. cmd/p3stat renders each file given only its path:
//
//	netpipe -torus -dim 3 -workload halo -flightrec -dump-on-stall 400 -out runs/halo
//	p3stat runs/halo.p3dump
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"portals3/internal/experiments"
	"portals3/internal/flightrec"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/netpipe"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cli is where a run mode prints: tables to out, diagnostics to err.
type cli struct{ out, err io.Writer }

func (c cli) printf(format string, a ...interface{}) { fmt.Fprintf(c.out, format, a...) }

// fail prints one attributed diagnostic line and returns the exit code: 2
// for a command line that cannot run, 1 for a run that failed.
func (c cli) fail(code int, format string, a ...interface{}) int {
	fmt.Fprintf(c.err, "netpipe: "+format+"\n", a...)
	return code
}

// scheduleTopology is the topology the selected run mode will build, used
// to validate -schedule before any machine exists.
func scheduleTopology(torusMode bool, dim int) (*topo.Topology, error) {
	if torusMode {
		return topo.XT3Torus(dim, dim, dim)
	}
	return topo.New(2, 1, 1, false, false, false)
}

// opts is the parsed command line: one field per flag a run mode reads.
type opts struct {
	// Every single run: the protocol, the observer switches and where
	// the epilogue writes what they armed.
	gbn, stats                     bool
	telemetry, flightrec, hostprof bool
	sampleUs                       int
	ringEvents                     int // flight recorder ring bound per node
	stallUs                        int // stall detection window in simulated microseconds, 0 off
	out                            string

	// -series.
	series, pattern string
	maxBytes        int
	accel           bool

	// -torus.
	workload      string
	dim, shards   int
	steps, msgs   int
	load          float64
	loads         []float64 // sweep ladder, parsed from -loads
	hot           int
	hotFrac       float64
	wseed         uint64
	progress      bool
	progressEvery time.Duration
}

func run(args []string, stdout, stderr io.Writer) int {
	c := cli{stdout, stderr}
	var o opts
	fs := flag.NewFlagSet("netpipe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to reproduce: 4, 5, 6, 7 or all")
	fs.StringVar(&o.series, "series", "", "single curve: put, get, mpich1, mpich2")
	fs.StringVar(&o.pattern, "pattern", "pingpong", "pingpong, stream or bidir")
	fs.IntVar(&o.maxBytes, "max", 8<<20, "largest message size in bytes")
	fs.BoolVar(&o.accel, "accel", false, "use accelerated-mode Portals processing")
	checks := fs.Bool("checks", false, "print paper-vs-measured checks (with -fig)")
	fs.BoolVar(&o.stats, "stats", false, "print machine counters after the run (with -series or -torus)")
	fs.BoolVar(&o.telemetry, "telemetry", false, "record telemetry and write BASE.telemetry.json (with -series or -torus)")
	fs.IntVar(&o.sampleUs, "sample", 1000, "RAS sampler period in simulated microseconds, 0 to disable (with -telemetry)")
	ablations := fs.Bool("ablations", false, "run the design-choice ablations (A1-A6) and print checks")
	faults := fs.String("faults", "", "seeded fault injection: kind:frame:prob[:delay] rules, comma-separated (kinds drop,dup,delay,reorder; frames any,data,fcack,fcnack)")
	faultSeed := fs.Int64("faultseed", 0, "fault plane PRNG seed; 0 uses the built-in default (with -faults)")
	schedule := fs.String("schedule", "", "declarative timed-fault schedule: linkdown:NODE:DIR:AT:DUR, stall:NODE:AT:DUR, restart:NODE:AT:DUR, burst:KIND:FRAME:PROB:AT:DUR[:DELAY], corrupt:NODE:AT, comma-separated; works at any -shards count (combine with -gbn to recover losses)")
	fs.BoolVar(&o.gbn, "gbn", false, "enable the go-back-n loss/exhaustion recovery protocol (with -series or -torus)")
	fs.BoolVar(&o.flightrec, "flightrec", false, "enable the per-node flight recorder and write BASE.p3dump, each failure report's dump beside it as BASE.<i>.<kind>.p3dump (with -series or -torus)")
	fs.IntVar(&o.ringEvents, "flightrec-events", flightrec.DefaultRingEvents, "flight recorder ring bound per node; a bound above the run's event count keeps every event")
	fs.IntVar(&o.stallUs, "dump-on-stall", 0, "stall detection window in simulated microseconds; a stalled flow files a report with a dump (implies -flightrec)")
	fs.StringVar(&o.out, "out", "netpipe", "base path of the written artifacts: BASE.telemetry.json, BASE.p3dump, BASE.hostprof.json; a sweep arm writes under BASE.load<L>")
	torus := fs.Bool("torus", false, "run a machine-scale torus workload instead of a netpipe curve")
	fs.IntVar(&o.dim, "dim", 8, "torus dimension: dim^3 nodes (with -torus)")
	fs.IntVar(&o.shards, "shards", 1, "event lanes for the sharded parallel kernel (with -torus)")
	fs.StringVar(&o.workload, "workload", "halo", "torus workload: halo, collective, random, hotspot or sweep (with -torus)")
	fs.IntVar(&o.steps, "steps", 0, "iterations: halo exchange steps or collective rounds, 0 for the workload default (with -torus)")
	fs.IntVar(&o.msgs, "msgs", 8, "messages per sender (with -workload random/hotspot/sweep)")
	fs.Float64Var(&o.load, "load", 1.0, "offered load per sender as a fraction of link line rate (with -workload random/hotspot)")
	loads := fs.String("loads", "0.25,0.5,0.75,1.0", "comma-separated offered-load ladder (with -workload sweep)")
	fs.IntVar(&o.hot, "hot", 0, "hot-spot destination node id (with -workload hotspot)")
	fs.Float64Var(&o.hotFrac, "hotfrac", 0.2, "probability a message targets the hot node (with -workload hotspot)")
	fs.Uint64Var(&o.wseed, "wseed", 1, "destination-stream seed (with -workload random/hotspot/sweep)")
	fs.BoolVar(&o.progress, "progress", false, "print a live progress line (virtual-time rate, events/sec, lane imbalance, heap, ETA) to stderr (with -torus)")
	fs.DurationVar(&o.progressEvery, "progress-every", time.Second, "progress line period in wall-clock (with -progress)")
	fs.BoolVar(&o.hostprof, "hostprof", false, "write the host-execution profile (per-lane busy/wait/drain, stragglers, memory watermarks) as BASE.hostprof.json (with -torus)")
	cpuprofile := fs.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a host heap profile at exit to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return c.fail(2, "unexpected argument %q: -telemetry, -flightrec and -hostprof are switches, and -out names the files", fs.Arg(0))
	}
	// Every -workload names a torus workload, so setting it explicitly
	// implies -torus: `netpipe -workload sweep -shards 4` runs the sweep.
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			*torus = true
		}
	})

	// Flag validation happens here, before any machine exists, so a bad
	// combination is one exit-2 diagnostic line rather than a panic deep in
	// construction (a schedule-validation panic).
	p := model.Defaults()
	var err error
	if p.Faults, err = model.ParseFaults(*faults); err != nil {
		return c.fail(2, "-faults: %v", err)
	}
	p.FaultSeed = *faultSeed
	o.flightrec = o.flightrec || o.stallUs > 0 // a stall dump needs the recorder
	if (o.progress || o.hostprof) && !*torus {
		return c.fail(2, "-progress/-hostprof profile the sharded kernel's lanes; they need -torus (classic runs profile with -cpuprofile)")
	}
	if o.progressEvery <= 0 {
		return c.fail(2, "-progress-every %v must be positive", o.progressEvery)
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"max", o.maxBytes, 1}, {"msgs", o.msgs, 1},
		{"steps", o.steps, 0}, {"sample", o.sampleUs, 0},
		{"flightrec-events", o.ringEvents, 1}, {"dump-on-stall", o.stallUs, 0},
	} {
		if f.val < f.min {
			return c.fail(2, "-%s %d must be at least %d", f.name, f.val, f.min)
		}
	}
	if *torus {
		nodes := o.dim * o.dim * o.dim
		if o.dim < 3 {
			return c.fail(2, "-dim %d: a torus needs dim >= 3 (smaller axes have no wraparound)", o.dim)
		}
		if o.shards < 1 {
			return c.fail(2, "-shards %d: the kernel needs at least one event lane", o.shards)
		}
		if o.shards > nodes {
			return c.fail(2, "-shards %d exceeds the %d-node torus: surplus lanes would sit permanently empty", o.shards, nodes)
		}
		switch o.workload {
		case "halo", "collective", "random", "hotspot", "sweep":
		default:
			return c.fail(2, "unknown -workload %q (want halo, collective, random, hotspot or sweep)", o.workload)
		}
		if o.workload == "hotspot" {
			if o.hot < 0 || o.hot >= nodes {
				return c.fail(2, "-hot %d outside the %d-node torus", o.hot, nodes)
			}
			if o.hotFrac <= 0 || o.hotFrac > 1 {
				return c.fail(2, "-hotfrac %g must be in (0, 1]", o.hotFrac)
			}
		}
		if (o.workload == "random" || o.workload == "hotspot") && o.load <= 0 {
			return c.fail(2, "-load %g must be positive", o.load)
		}
		if o.workload == "sweep" {
			for _, s := range strings.Split(*loads, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil || !(v > 0) {
					return c.fail(2, "-loads %q: each entry must be a positive load factor", *loads)
				}
				o.loads = append(o.loads, v)
			}
		}
	}
	switch *fig {
	case "", "4", "5", "6", "7", "all":
	default:
		return c.fail(2, "unknown figure %q (want 4, 5, 6, 7 or all)", *fig)
	}
	if *fig == "" && !*torus && !*ablations && o.series != "" {
		switch o.series {
		case "put", "get", "mpich1", "mpich2":
		default:
			return c.fail(2, "unknown series %q (want put, get, mpich1 or mpich2)", o.series)
		}
		switch o.pattern {
		case "pingpong", "stream", "bidir":
		default:
			return c.fail(2, "unknown pattern %q (want pingpong, stream or bidir)", o.pattern)
		}
	}
	if *ablations || (*fig != "" && !*torus) {
		// Figures and ablations build many machines, observe none of them
		// and end in no epilogue: a flag for one run would be ignored.
		single := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "telemetry", "flightrec", "flightrec-events", "dump-on-stall", "out", "stats", "schedule":
				if single == "" {
					single = f.Name
				}
			}
		})
		if single != "" {
			return c.fail(2, "-%s applies to a single run; use it with -series or -torus, not -fig/-ablations", single)
		}
	}
	if p.Schedule, err = model.ParseSchedule(*schedule); err != nil {
		return c.fail(2, "-schedule: %v", err)
	}
	if len(p.Schedule) > 0 {
		// Validate against the topology the run will actually build: the
		// dim^3 torus, or the two-node netpipe pair.
		tp, err := scheduleTopology(*torus, o.dim)
		if err != nil {
			return c.fail(2, "%v", err)
		}
		if err := p.Schedule.Validate(tp); err != nil {
			return c.fail(2, "-schedule: %v", err)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return c.fail(1, "%v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return c.fail(1, "%v", err)
		}
	}
	var code int
	switch {
	case *ablations:
		runAblations(c, p)
	case *torus:
		code = runTorus(c, p, o)
	case *fig != "":
		runFigures(c, p, *fig, *checks)
	case o.series != "":
		code = runSeries(c, p, o)
	default:
		return c.fail(2, "nothing to run: give -fig, -series, -torus or -ablations (-h lists every flag)")
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		c.printf("cpu profile written to %s (go tool pprof)\n", *cpuprofile)
	}
	if *memprofile != "" {
		runtime.GC()
		var heap bytes.Buffer
		err := pprof.WriteHeapProfile(&heap)
		if err == nil {
			err = os.WriteFile(*memprofile, heap.Bytes(), 0o644)
		}
		if err != nil {
			return c.fail(1, "%v", err)
		}
		c.printf("heap profile written to %s (go tool pprof)\n", *memprofile)
	}
	return code
}

// baseConfig assembles the TorusConfig shared by every workload from the
// command line and the fault plan.
func (o opts) baseConfig(c cli, p model.Params) experiments.TorusConfig {
	cfg := experiments.DefaultTorusConfig()
	cfg.Dim = o.dim
	cfg.Shards = o.shards
	cfg.GoBackN = o.gbn
	cfg.Faults = p.Faults
	cfg.FaultSeed = p.FaultSeed
	cfg.Schedule = p.Schedule
	cfg.Telemetry = o.telemetry
	if cfg.Telemetry {
		cfg.SamplePeriod = sim.Time(o.sampleUs) * sim.Microsecond
	}
	if o.flightrec {
		cfg.FlightRec = o.ringEvents
	}
	cfg.StallWindow = sim.Time(o.stallUs) * sim.Microsecond
	if o.steps > 0 {
		cfg.Steps = o.steps
	}
	cfg.HostProf = o.hostprof
	if o.progress { // implies HostProf
		// Stderr: stdout stays reserved for the workload's tables.
		cfg.Progress = func(hp sim.HostProgress) { fmt.Fprintln(c.err, "progress:", hp) }
		cfg.ProgressEvery = o.progressEvery
	}
	return cfg
}

// trafficConfig assembles the generator shape for the random/hotspot/sweep
// workloads at one offered load.
func (o opts) trafficConfig(c cli, p model.Params, load float64) experiments.TrafficConfig {
	return experiments.TrafficConfig{
		TorusConfig: o.baseConfig(c, p),
		Msgs:        o.msgs,
		Load:        load,
		HotFrac:     o.hotFrac,
		HotNode:     topo.NodeID(o.hot),
		Seed:        o.wseed,
	}
}

// ending is what one run leaves for the epilogue.
type ending struct {
	stats    string            // the machine's counter table
	faults   string            // the fault ledger's line, "" when no fault was planned
	failures []string          // failure reports and workload errors, in order
	art      machine.Artifacts // what the armed planes recorded
}

// torusEnding is a torus run's ending.
func torusEnding(r experiments.TorusResult) ending {
	return ending{r.StatsText, r.FaultsLine, r.Errors, r.Artifacts}
}

// epilogue ends every single run the same way: the counter table with
// -stats, the fault-plane line, every failure on stderr, then the planes
// the flags armed, written through Artifacts.WriteFiles under base. It
// returns the exit code: 1 on any failure or write error.
func (c cli) epilogue(o opts, base string, e ending) int {
	if o.stats {
		c.printf("\n%s", e.stats)
	}
	if e.faults != "" {
		c.printf("fault plane: %s\n", e.faults)
	}
	for _, f := range e.failures {
		fmt.Fprintln(c.err, "ERROR: "+f)
	}
	a := e.art
	if !o.telemetry {
		a.Telemetry = nil // a sweep records it for its curves
	}
	if !o.hostprof {
		a.HostProfile = nil // -progress arms the profiler
	}
	// Every simulated artifact is deterministic: a same-seed rerun writes
	// identical bytes under identical names.
	paths, err := a.WriteFiles(filepath.Dir(base), filepath.Base(base))
	for _, path := range paths {
		c.printf("artifact written to %s (render with p3stat)\n", path)
	}
	if err != nil {
		return c.fail(1, "%v", err)
	}
	if len(e.failures) > 0 {
		return 1
	}
	return 0
}

// hopRows reads the per-hop-count latency curve out of a telemetry export.
func hopRows(telemetryJSON []byte) ([]experiments.HopRow, error) {
	e, err := telemetry.ReadJSON(bytes.NewReader(telemetryJSON))
	if err != nil {
		return nil, err
	}
	return experiments.HopCurve(e), nil
}

// runTorus drives one machine-scale workload (or the latency-under-load
// sweep) on the sharded kernel. With telemetry on, the RAS sampler runs
// too (lane-local, merged at snapshot time) so the export carries the
// per-link contention series, and the per-hop-count latency summary
// prints after the run.
func runTorus(c cli, p model.Params, o opts) int {
	if o.workload == "sweep" {
		return runSweep(c, p, o)
	}
	var r experiments.TorusResult
	switch o.workload {
	case "halo":
		cfg := o.baseConfig(c, p)
		r = experiments.TorusHalo(cfg)
		c.printf("# torus halo: %d nodes (%dx%dx%d, radius %d), %d KB faces, %d steps, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, cfg.Radius, cfg.Bytes/1024, cfg.Steps, r.Shards)
	case "collective":
		cfg := experiments.DefaultCollectiveConfig()
		base := o.baseConfig(c, p)
		base.Bytes, base.Steps = cfg.Bytes, cfg.Steps
		if o.steps > 0 {
			base.Steps = o.steps
		}
		r = experiments.TorusCollective(base)
		c.printf("# torus collective: %d ranks (%dx%dx%d), %d-byte vectors, %d allreduce+bcast rounds, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, base.Bytes, base.Steps, r.Shards)
	case "random":
		cfg := o.trafficConfig(c, p, o.load)
		cfg.HotFrac = 0
		r = experiments.TorusTraffic(cfg)
		c.printf("# torus uniform traffic: %d nodes (%dx%dx%d), %d x %d B per sender at load %.2f, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, cfg.Msgs, cfg.Bytes, cfg.Load, r.Shards)
	case "hotspot":
		cfg := o.trafficConfig(c, p, o.load)
		r = experiments.TorusTraffic(cfg)
		c.printf("# torus hot-spot traffic: %d nodes (%dx%dx%d), %d x %d B per sender at load %.2f, %.0f%% -> node %d, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, cfg.Msgs, cfg.Bytes, cfg.Load, 100*cfg.HotFrac, cfg.HotNode, r.Shards)
	}
	c.printf("finished at %.1f us simulated, %d kernel windows\n",
		float64(r.FinishPs)/1e6, r.Windows)
	if o.telemetry {
		if rows, err := hopRows(r.Artifacts.Telemetry); err == nil && len(rows) > 0 {
			c.printf("\n")
			experiments.RenderHopCurve(c.out, rows)
		}
	}
	return c.epilogue(o, o.out, torusEnding(r))
}

// runSweep runs the uniform traffic generator once per offered load and
// prints each arm's per-hop-count latency curve plus a closing summary —
// the latency-under-load methodology of EXPERIMENTS.md. Telemetry is
// recorded in every arm (the curves come from it); each arm ends in the
// epilogue and writes what the flags armed under BASE.load<L>.
func runSweep(c cli, p model.Params, o opts) int {
	c.printf("# latency-under-load sweep: %d nodes (%dx%dx%d), %d x %d B per sender, loads %v, shards=%d\n",
		o.dim*o.dim*o.dim, o.dim, o.dim, o.dim, o.msgs, experiments.DefaultTorusConfig().Bytes, o.loads, o.shards)
	type arm struct {
		load            float64
		finishPs        int64
		rows            []experiments.HopRow
		e2eMean, e2eP99 float64
	}
	arms := make([]arm, 0, len(o.loads))
	code := 0
	for _, load := range o.loads {
		cfg := o.trafficConfig(c, p, load)
		cfg.HotFrac = 0
		cfg.Telemetry = true
		cfg.SamplePeriod = sim.Time(o.sampleUs) * sim.Microsecond
		r := experiments.TorusTraffic(cfg)
		c.printf("\n== load %.2f (finished at %.1f us, %d kernel windows)\n",
			load, float64(r.FinishPs)/1e6, r.Windows)
		rows, err := hopRows(r.Artifacts.Telemetry)
		if err != nil {
			code = c.fail(1, "load %.2f: %v", load, err)
		} else {
			a := arm{load: load, finishPs: r.FinishPs, rows: rows}
			var msgs uint64
			for _, row := range rows {
				a.e2eMean += row.E2EMeanPs * float64(row.Msgs)
				msgs += row.Msgs
				if row.E2EP99Ps > a.e2eP99 {
					a.e2eP99 = row.E2EP99Ps
				}
			}
			if msgs > 0 {
				a.e2eMean /= float64(msgs)
			}
			arms = append(arms, a)
			experiments.RenderHopCurve(c.out, rows)
		}
		code = max(code, c.epilogue(o, fmt.Sprintf("%s.load%.2f", o.out, load), torusEnding(r)))
	}
	c.printf("\nlatency vs offered load:\n")
	c.printf("  %6s %12s %12s %12s\n", "load", "finish", "e2e-mean", "e2e-p99")
	for _, a := range arms {
		c.printf("  %6.2f %10.1fus %10.3fus %10.3fus\n",
			a.load, float64(a.finishPs)/1e6, a.e2eMean/1e6, a.e2eP99/1e6)
	}
	return code
}

// runAblations reproduces the A1-A5 ablation studies of DESIGN.md.
func runAblations(c cli, p model.Params) {
	c.printf("# A1: generic vs accelerated mode (paper §3.3)\n")
	experiments.RenderChecks(c.out, experiments.AblationAccelerated(p).Checks())
	c.printf("\n# A2: resource exhaustion, panic vs go-back-n (paper §4.3)\n")
	gbn := experiments.AblationGoBackN(p, 4, 30, 2048)
	c.printf("  %v\n  %v\n", gbn[0], gbn[1])
	experiments.RenderChecks(c.out, experiments.GbnChecks(gbn))
	c.printf("\n# A6: incast over a lossy fabric, panic vs go-back-n (DESIGN.md §9)\n")
	lossy := experiments.AblationLossyIncast(p, 4, 30, 2048, 0xfa017)
	c.printf("  %v\n  %v\n", lossy.Arms[0], lossy.Arms[1])
	experiments.RenderChecks(c.out, experiments.LossyChecks(lossy))
	c.printf("\n# A3: inline payload optimization removed (paper §6)\n")
	experiments.RenderChecks(c.out, experiments.AblationInline(p).Checks())
	c.printf("\n# A4: interrupt coalescing removed (paper §4.1)\n")
	experiments.RenderChecks(c.out, experiments.AblationCoalescing(p).Checks())
	c.printf("\n# A5: RX FIFO shrunk to 2 KB\n")
	experiments.RenderChecks(c.out, experiments.AblationRxFIFO(p).Checks())
	c.printf("\n# model robustness\n")
	experiments.RenderChecks(c.out, experiments.ChunkRobustness(p))
}

// runFigures prints one figure or all four; which was validated by run.
func runFigures(c cli, p model.Params, which string, checks bool) {
	show := func(f experiments.Figure) { f.Render(c.out); c.printf("\n") }
	switch which {
	case "4":
		f4 := experiments.Figure4(p)
		show(f4)
		f4.RenderPercentiles(c.out)
		if checks {
			experiments.RenderChecks(c.out, experiments.LatencyChecks(f4))
			showBreakdown(c, p)
		}
	case "5":
		show(experiments.Figure5(p))
	case "6":
		show(experiments.Figure6(p))
	case "7":
		show(experiments.Figure7(p))
	case "all":
		f4, f5, f6, f7 := experiments.Figure4(p), experiments.Figure5(p), experiments.Figure6(p), experiments.Figure7(p)
		for _, f := range []experiments.Figure{f4, f5, f6, f7} {
			show(f)
		}
		f4.RenderPercentiles(c.out)
		if checks {
			experiments.RenderChecks(c.out, experiments.LatencyChecks(f4))
			experiments.RenderChecks(c.out, experiments.BandwidthChecks(f5, f6, f7))
			showBreakdown(c, p)
		}
	}
}

// showBreakdown runs the telemetry-enabled attribution sweep and prints
// the paper's latency decomposition with its checks.
func showBreakdown(c cli, p model.Params) {
	c.printf("\n")
	_, bd := experiments.TelemetryBreakdown(p)
	bd.Render(c.out)
	experiments.RenderChecks(c.out, experiments.BreakdownChecks(bd))
}

func runSeries(c cli, p model.Params, o opts) int {
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = o.maxBytes
	if o.accel {
		cfg.Mode = machine.Accelerated
	}
	var mach *machine.Machine
	cfg.Observe = func(m *machine.Machine) {
		mach = m
		if o.gbn {
			m.EnableGoBackN()
		}
		if o.flightrec {
			m.EnableFlightRecorder(o.ringEvents)
		}
		if o.stallUs > 0 {
			m.StartStallDetector(sim.Time(o.stallUs) * sim.Microsecond)
		}
		if o.telemetry {
			m.EnableTelemetry()
			if o.sampleUs > 0 {
				m.StartSampler(sim.Time(o.sampleUs) * sim.Microsecond)
			}
		}
	}
	pat := map[string]netpipe.Pattern{"pingpong": netpipe.PingPong, "stream": netpipe.Stream, "bidir": netpipe.Bidir}[o.pattern]
	var r netpipe.Result
	switch o.series {
	case "put":
		r = netpipe.RunPortals(p, netpipe.OpPut, pat, cfg)
	case "get":
		r = netpipe.RunPortals(p, netpipe.OpGet, pat, cfg)
	case "mpich1":
		r = netpipe.RunMPI(p, mpi.MPICH1, pat, cfg)
	case "mpich2":
		r = netpipe.RunMPI(p, mpi.MPICH2, pat, cfg)
	}
	c.printf("# %s %s (mode: %v)\n", r.Series, pat, cfg.Mode)
	for _, pt := range r.Points {
		c.printf("%v\n", pt)
	}
	if o.telemetry {
		if bd, ok := mach.Telemetry().Snapshot(mach.S.Now()).Breakdown(); ok {
			c.printf("\n")
			bd.Render(c.out)
		}
	}
	e := ending{stats: mach.Stats().String(), art: mach.Artifacts("end of run")}
	if st, ok := mach.FaultSnapshot(); ok {
		e.faults = st.String()
	}
	for _, r := range mach.Reports() {
		e.failures = append(e.failures, "failure report: "+r.String())
	}
	return c.epilogue(o, o.out, e)
}
