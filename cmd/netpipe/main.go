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
// kernel; -shards picks the lane count and -seq forces the sequential
// reference (simulated results are bit-identical either way):
//
//	netpipe -torus -shards 4
//	netpipe -torus -seq -stats
//
// Host-side profiling (go tool pprof) works with every mode:
//
//	netpipe -torus -shards 4 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
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
	"portals3/internal/topo"
	"portals3/internal/trace"
)

// scheduleTopology is the topology the selected run mode will build, used
// to validate -schedule before any machine exists.
func scheduleTopology(torusMode bool, dim int) (*topo.Topology, error) {
	if torusMode {
		return topo.XT3Torus(dim, dim, dim)
	}
	return topo.New(2, 1, 1, false, false, false)
}

// writeTelemetry exports the machine's telemetry: Prometheus text for a
// .prom suffix, the JSON document otherwise.
func writeTelemetry(m *machine.Machine, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".prom") {
		return m.Telemetry().WritePrometheus(f, m.S.Now())
	}
	return m.Telemetry().WriteJSON(f, m.S.Now())
}

// writeDumps saves the run's flight-recorder artifacts: the end-of-run
// snapshot to out, plus each failure report's at-detection dump alongside
// it. Every dump is deterministic — a same-seed rerun writes identical
// bytes.
func writeDumps(m *machine.Machine, out string) {
	writeDump := func(path string, d *flightrec.Dump) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := d.Encode(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	base := strings.TrimSuffix(out, ".p3dump")
	for i, r := range m.Reports() {
		fmt.Printf("\nfailure: %v\n", r)
		if r.Dump != nil {
			path := fmt.Sprintf("%s.%d.%s.p3dump", base, i, r.Kind)
			writeDump(path, r.Dump)
			fmt.Printf("failure dump written to %s (render with p3dump)\n", path)
		}
	}
	writeDump(out, m.TakeDump("end of run"))
	fmt.Printf("flight recorder dump written to %s (render with p3dump)\n", out)
}

func main() {
	fig := flag.String("fig", "", "figure to reproduce: 4, 5, 6, 7 or all")
	series := flag.String("series", "", "single curve: put, get, mpich1, mpich2")
	pattern := flag.String("pattern", "pingpong", "pingpong, stream or bidir")
	maxBytes := flag.Int("max", 8<<20, "largest message size in bytes")
	accel := flag.Bool("accel", false, "use accelerated-mode Portals processing")
	checks := flag.Bool("checks", false, "print paper-vs-measured checks (with -fig)")
	traceOut := flag.String("trace", "", "write a chrome://tracing timeline of the run (with -series)")
	stats := flag.Bool("stats", false, "print machine counters after the run (with -series)")
	telemetryOut := flag.String("telemetry", "", "write telemetry after the run: JSON, or Prometheus text with a .prom suffix (with -series)")
	sample := flag.Int("sample", 1000, "RAS sampler period in simulated microseconds, 0 to disable (with -telemetry)")
	ablations := flag.Bool("ablations", false, "run the design-choice ablations (A1-A6) and print checks")
	faults := flag.String("faults", "", "seeded fault injection: kind:frame:prob[:delay] rules, comma-separated (kinds drop,dup,delay,reorder; frames any,data,fcack,fcnack)")
	faultSeed := flag.Int64("faultseed", 0, "fault plane PRNG seed; 0 uses the built-in default (with -faults)")
	schedule := flag.String("schedule", "", "declarative timed-fault schedule: linkdown:NODE:DIR:AT:DUR, stall:NODE:AT:DUR, restart:NODE:AT:DUR, burst:KIND:FRAME:PROB:AT:DUR[:DELAY], corrupt:NODE:AT, comma-separated; works at any -shards count (combine with -gbn to recover losses)")
	gbn := flag.Bool("gbn", false, "enable the go-back-n loss/exhaustion recovery protocol (with -series)")
	flightrecOn := flag.Bool("flightrec", false, "enable the per-node flight recorder and write an end-of-run dump (with -series)")
	flightrecEvents := flag.Int("flightrec-events", 0, "flight recorder ring capacity per node, 0 for the default")
	dumpOnStall := flag.Int("dump-on-stall", 0, "stall detection window in simulated microseconds; a stalled flow dumps the recorder (with -flightrec)")
	dumpOut := flag.String("dumpout", "netpipe.p3dump", "flight recorder dump file (with -flightrec; render with p3dump)")
	torus := flag.Bool("torus", false, "run a machine-scale torus workload instead of a netpipe curve")
	dim := flag.Int("dim", 8, "torus dimension: dim^3 nodes (with -torus)")
	shards := flag.Int("shards", 1, "event lanes for the sharded parallel kernel (with -torus)")
	seq := flag.Bool("seq", false, "force the sequential reference kernel, shards=1 (with -torus)")
	workload := flag.String("workload", "halo", "torus workload: halo, collective, random, hotspot or sweep (with -torus)")
	steps := flag.Int("steps", 0, "iterations: halo exchange steps or collective rounds, 0 for the workload default (with -torus)")
	msgs := flag.Int("msgs", 8, "messages per sender (with -workload random/hotspot/sweep)")
	load := flag.Float64("load", 1.0, "offered load per sender as a fraction of link line rate (with -workload random/hotspot)")
	loads := flag.String("loads", "0.25,0.5,0.75,1.0", "comma-separated offered-load ladder (with -workload sweep)")
	hot := flag.Int("hot", 0, "hot-spot destination node id (with -workload hotspot)")
	hotFrac := flag.Float64("hotfrac", 0.2, "probability a message targets the hot node (with -workload hotspot)")
	wseed := flag.Uint64("wseed", 1, "destination-stream seed (with -workload random/hotspot/sweep)")
	progress := flag.Bool("progress", false, "print a live progress line (virtual-time rate, events/sec, lane imbalance, heap, ETA) to stderr (with -torus)")
	progressEvery := flag.Duration("progress-every", time.Second, "progress line period in wall-clock (with -progress)")
	hostprofOut := flag.String("hostprof", "", "write the host-execution profile (per-lane busy/wait/drain, stragglers, memory watermarks) as JSON; render with p3stat (with -torus)")
	cpuprofile := flag.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a host heap profile at exit to this file (go tool pprof)")
	flag.Parse()
	// Every -workload names a torus workload, so setting it explicitly
	// implies -torus: `netpipe -workload sweep -shards 4` runs the sweep.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			*torus = true
		}
	})

	p := model.Defaults()
	rules, err := model.ParseFaults(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p.Faults = rules
	p.FaultSeed = *faultSeed
	// Flag validation happens here, before any machine exists, so a bad
	// combination is a clear exit-2 diagnostic rather than a panic deep in
	// construction (a schedule-validation panic).
	if *seq && *shards > 1 {
		fmt.Fprintf(os.Stderr, "netpipe: conflicting flags: -seq forces the sequential reference kernel; drop -seq or -shards %d\n", *shards)
		os.Exit(2)
	}
	if (*progress || *hostprofOut != "") && !*torus {
		fmt.Fprintln(os.Stderr, "netpipe: -progress/-hostprof profile the sharded kernel's lanes; they need -torus (classic runs profile with -cpuprofile)")
		os.Exit(2)
	}
	if *progressEvery <= 0 {
		fmt.Fprintf(os.Stderr, "netpipe: -progress-every %v must be positive\n", *progressEvery)
		os.Exit(2)
	}
	var loadLadder []float64
	if *torus {
		if *dim < 3 {
			fmt.Fprintf(os.Stderr, "netpipe: -dim %d: a torus needs dim >= 3 (smaller axes have no wraparound)\n", *dim)
			os.Exit(2)
		}
		if *shards < 1 {
			fmt.Fprintf(os.Stderr, "netpipe: -shards %d: the kernel needs at least one event lane\n", *shards)
			os.Exit(2)
		}
		if nodes := *dim * *dim * *dim; *shards > nodes {
			fmt.Fprintf(os.Stderr, "netpipe: -shards %d exceeds the %d-node torus: surplus lanes would sit permanently empty\n", *shards, nodes)
			os.Exit(2)
		}
		switch *workload {
		case "halo", "collective", "random", "hotspot", "sweep":
		default:
			fmt.Fprintf(os.Stderr, "netpipe: unknown -workload %q (want halo, collective, random, hotspot or sweep)\n", *workload)
			os.Exit(2)
		}
		if *workload == "hotspot" {
			if nodes := *dim * *dim * *dim; *hot < 0 || *hot >= nodes {
				fmt.Fprintf(os.Stderr, "netpipe: -hot %d outside the %d-node torus\n", *hot, nodes)
				os.Exit(2)
			}
			if *hotFrac <= 0 || *hotFrac > 1 {
				fmt.Fprintf(os.Stderr, "netpipe: -hotfrac %g must be in (0, 1]\n", *hotFrac)
				os.Exit(2)
			}
		}
		if (*workload == "random" || *workload == "hotspot") && *load <= 0 {
			fmt.Fprintf(os.Stderr, "netpipe: -load %g must be positive\n", *load)
			os.Exit(2)
		}
		if *workload == "sweep" {
			for _, s := range strings.Split(*loads, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil || v <= 0 {
					fmt.Fprintf(os.Stderr, "netpipe: -loads %q: each entry must be a positive load factor\n", *loads)
					os.Exit(2)
				}
				loadLadder = append(loadLadder, v)
			}
		}
	}
	if p.Schedule, err = model.ParseSchedule(*schedule); err != nil {
		fmt.Fprintf(os.Stderr, "netpipe: -schedule: %v\n", err)
		os.Exit(2)
	}
	if len(p.Schedule) > 0 {
		if *fig != "" || *ablations {
			fmt.Fprintln(os.Stderr, "netpipe: -schedule applies to a single run; use it with -series or -torus, not -fig/-ablations")
			os.Exit(2)
		}
		// Validate against the topology the run will actually build: the
		// dim^3 torus, or the two-node netpipe pair.
		tp, err := scheduleTopology(*torus, *dim)
		if err != nil {
			fmt.Fprintln(os.Stderr, "netpipe: ", err)
			os.Exit(2)
		}
		if err := p.Schedule.Validate(tp); err != nil {
			fmt.Fprintf(os.Stderr, "netpipe: -schedule: %v\n", err)
			os.Exit(2)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	switch {
	case *ablations:
		runAblations(p)
	case *torus:
		n := *shards
		if *seq {
			n = 1
		}
		runTorus(p, torusOpts{
			workload: *workload, dim: *dim, shards: n, steps: *steps,
			msgs: *msgs, load: *load, loads: loadLadder,
			hot: topo.NodeID(*hot), hotFrac: *hotFrac, wseed: *wseed,
			gbn: *gbn, stats: *stats, telemetryOut: *telemetryOut, sampleUs: *sample,
			progress: *progress, progressEvery: *progressEvery, hostprofOut: *hostprofOut,
		})
	case *fig != "":
		runFigures(p, *fig, *checks)
	case *series != "":
		fr := frOpts{on: *flightrecOn || *dumpOnStall > 0, events: *flightrecEvents,
			stallUs: *dumpOnStall, out: *dumpOut}
		runSeries(p, *series, *pattern, *maxBytes, *accel, *gbn, *traceOut, *stats, *telemetryOut, *sample, fr)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("cpu profile written to %s (go tool pprof)\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("heap profile written to %s (go tool pprof)\n", *memprofile)
	}
}

// torusOpts carries the -torus flags into the workload runners.
type torusOpts struct {
	workload     string
	dim, shards  int
	steps, msgs  int
	load         float64
	loads        []float64 // sweep ladder
	hot          topo.NodeID
	hotFrac      float64
	wseed        uint64
	gbn, stats   bool
	telemetryOut string
	sampleUs     int

	progress      bool
	progressEvery time.Duration
	hostprofOut   string
}

// baseConfig assembles the TorusConfig shared by every workload from the
// command line and the fault plan.
func (o torusOpts) baseConfig(p model.Params) experiments.TorusConfig {
	cfg := experiments.DefaultTorusConfig()
	cfg.Dim = o.dim
	cfg.Shards = o.shards
	cfg.GoBackN = o.gbn
	cfg.Faults = p.Faults
	cfg.FaultSeed = p.FaultSeed
	cfg.Schedule = p.Schedule
	cfg.Telemetry = o.telemetryOut != ""
	if cfg.Telemetry && o.sampleUs > 0 {
		cfg.SamplePeriod = sim.Time(o.sampleUs) * sim.Microsecond
	}
	if o.steps > 0 {
		cfg.Steps = o.steps
	}
	if o.hostprofOut != "" || o.progress {
		cfg.HostProf = true
	}
	if o.progress {
		// Stderr: stdout stays reserved for the workload's tables.
		cfg.Progress = func(hp sim.HostProgress) { fmt.Fprintln(os.Stderr, "progress:", hp) }
		cfg.ProgressEvery = o.progressEvery
	}
	return cfg
}

// writeHostProfile writes the accumulated host-execution profile JSON.
func writeHostProfile(hp *machine.HostProfile, path string) {
	if hp == nil {
		fmt.Fprintln(os.Stderr, "netpipe: no host profile collected")
		os.Exit(1)
	}
	b, err := hp.JSON()
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("host profile written to %s (render with p3stat)\n", path)
}

// trafficConfig assembles the generator shape for the random/hotspot/sweep
// workloads at one offered load.
func (o torusOpts) trafficConfig(p model.Params, load float64) experiments.TrafficConfig {
	return experiments.TrafficConfig{
		TorusConfig: o.baseConfig(p),
		Msgs:        o.msgs,
		Load:        load,
		HotFrac:     o.hotFrac,
		HotNode:     o.hot,
		Seed:        o.wseed,
	}
}

// runTorus drives one machine-scale workload (or the latency-under-load
// sweep) on the sharded kernel. With telemetry on, the RAS sampler runs
// too (lane-local, merged at snapshot time) so the export carries the
// per-link contention series, and the per-hop-count latency summary
// prints after the run.
func runTorus(p model.Params, o torusOpts) {
	if o.workload == "sweep" {
		runSweep(p, o)
		return
	}
	var r experiments.TorusResult
	switch o.workload {
	case "halo":
		cfg := o.baseConfig(p)
		r = experiments.TorusHalo(cfg)
		fmt.Printf("# torus halo: %d nodes (%dx%dx%d, radius %d), %d KB faces, %d steps, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, cfg.Radius, cfg.Bytes/1024, cfg.Steps, r.Shards)
	case "collective":
		cfg := experiments.DefaultCollectiveConfig()
		base := o.baseConfig(p)
		base.Bytes, base.Steps = cfg.Bytes, cfg.Steps
		if o.steps > 0 {
			base.Steps = o.steps
		}
		r = experiments.TorusCollective(base)
		fmt.Printf("# torus collective: %d ranks (%dx%dx%d), %d-byte vectors, %d allreduce+bcast rounds, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, base.Bytes, base.Steps, r.Shards)
	case "random":
		cfg := o.trafficConfig(p, o.load)
		cfg.HotFrac = 0
		r = experiments.TorusTraffic(cfg)
		fmt.Printf("# torus uniform traffic: %d nodes (%dx%dx%d), %d x %d B per sender at load %.2f, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, cfg.Msgs, cfg.Bytes, cfg.Load, r.Shards)
	case "hotspot":
		cfg := o.trafficConfig(p, o.load)
		r = experiments.TorusTraffic(cfg)
		fmt.Printf("# torus hot-spot traffic: %d nodes (%dx%dx%d), %d x %d B per sender at load %.2f, %.0f%% -> node %d, shards=%d\n",
			r.Nodes, o.dim, o.dim, o.dim, cfg.Msgs, cfg.Bytes, cfg.Load, 100*cfg.HotFrac, cfg.HotNode, r.Shards)
	}
	fmt.Printf("finished at %.1f us simulated, %d kernel windows\n",
		float64(r.FinishPs)/1e6, r.Windows)
	if o.stats {
		fmt.Println()
		fmt.Print(r.StatsText)
	}
	if r.FaultsLine != "" {
		fmt.Printf("fault plane: %s\n", r.FaultsLine)
	}
	if o.telemetryOut != "" {
		if err := os.WriteFile(o.telemetryOut, r.TelemetryJSON, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if rows, err := experiments.HopCurve(r.TelemetryJSON); err == nil && len(rows) > 0 {
			fmt.Println()
			experiments.RenderHopCurve(os.Stdout, rows)
		}
		fmt.Printf("telemetry written to %s (render with p3stat)\n", o.telemetryOut)
	}
	if o.hostprofOut != "" {
		writeHostProfile(r.HostProfile, o.hostprofOut)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(os.Stderr, "ERROR: "+e)
	}
	if len(r.Errors) > 0 {
		os.Exit(1)
	}
}

// runSweep runs the uniform traffic generator once per offered load and
// prints each arm's per-hop-count latency curve plus a closing summary —
// the latency-under-load methodology of EXPERIMENTS.md. Telemetry is
// forced on (the curves come from it); with -telemetry set, each arm's
// export lands in LOAD-prefixed files.
func runSweep(p model.Params, o torusOpts) {
	fmt.Printf("# latency-under-load sweep: %d nodes (%dx%dx%d), %d x %d B per sender, loads %v, shards=%d\n",
		o.dim*o.dim*o.dim, o.dim, o.dim, o.dim, o.msgs, experiments.DefaultTorusConfig().Bytes, o.loads, o.shards)
	type arm struct {
		load            float64
		finishPs        int64
		rows            []experiments.HopRow
		e2eMean, e2eP99 float64
	}
	arms := make([]arm, 0, len(o.loads))
	failed := false
	var hostprof *machine.HostProfile // merged across the sweep's arms
	for _, load := range o.loads {
		cfg := o.trafficConfig(p, load)
		cfg.HotFrac = 0
		cfg.Telemetry = true
		if cfg.SamplePeriod == 0 {
			cfg.SamplePeriod = sim.Time(o.sampleUs) * sim.Microsecond
		}
		r := experiments.TorusTraffic(cfg)
		if r.HostProfile != nil {
			if hostprof == nil {
				hostprof = r.HostProfile
			} else {
				hostprof.Merge(r.HostProfile)
			}
		}
		for _, e := range r.Errors {
			fmt.Fprintln(os.Stderr, "ERROR: "+e)
			failed = true
		}
		rows, err := experiments.HopCurve(r.TelemetryJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
			continue
		}
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
		fmt.Printf("\n== load %.2f (finished at %.1f us, %d kernel windows)\n",
			load, float64(r.FinishPs)/1e6, r.Windows)
		experiments.RenderHopCurve(os.Stdout, rows)
		if o.telemetryOut != "" {
			path := fmt.Sprintf("load%.2f-%s", load, o.telemetryOut)
			if err := os.WriteFile(path, r.TelemetryJSON, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("telemetry written to %s (render with p3stat)\n", path)
		}
	}
	fmt.Printf("\nlatency vs offered load:\n")
	fmt.Printf("  %6s %12s %12s %12s\n", "load", "finish", "e2e-mean", "e2e-p99")
	for _, a := range arms {
		fmt.Printf("  %6.2f %10.1fus %10.3fus %10.3fus\n",
			a.load, float64(a.finishPs)/1e6, a.e2eMean/1e6, a.e2eP99/1e6)
	}
	if o.hostprofOut != "" {
		writeHostProfile(hostprof, o.hostprofOut)
	}
	if failed {
		os.Exit(1)
	}
}

// runAblations reproduces the A1-A5 ablation studies of DESIGN.md.
func runAblations(p model.Params) {
	fmt.Println("# A1: generic vs accelerated mode (paper §3.3)")
	experiments.RenderChecks(os.Stdout, experiments.AblationAccelerated(p).Checks())
	fmt.Println("\n# A2: resource exhaustion, panic vs go-back-n (paper §4.3)")
	gbn := experiments.AblationGoBackN(p, 4, 30, 2048)
	fmt.Printf("  %v\n  %v\n", gbn[0], gbn[1])
	experiments.RenderChecks(os.Stdout, experiments.GbnChecks(gbn))
	fmt.Println("\n# A6: incast over a lossy fabric, panic vs go-back-n (DESIGN.md §9)")
	lossy := experiments.AblationLossyIncast(p, 4, 30, 2048, 0xfa017)
	fmt.Printf("  %v\n  %v\n", lossy.Arms[0], lossy.Arms[1])
	experiments.RenderChecks(os.Stdout, experiments.LossyChecks(lossy))
	fmt.Println("\n# A3: inline payload optimization removed (paper §6)")
	experiments.RenderChecks(os.Stdout, experiments.AblationInline(p).Checks())
	fmt.Println("\n# A4: interrupt coalescing removed (paper §4.1)")
	experiments.RenderChecks(os.Stdout, experiments.AblationCoalescing(p).Checks())
	fmt.Println("\n# A5: RX FIFO shrunk to 2 KB")
	experiments.RenderChecks(os.Stdout, experiments.AblationRxFIFO(p).Checks())
	fmt.Println("\n# model robustness")
	experiments.RenderChecks(os.Stdout, experiments.ChunkRobustness(p))
}

func runFigures(p model.Params, which string, checks bool) {
	var f4, f5, f6, f7 experiments.Figure
	show := func(f experiments.Figure) { f.Render(os.Stdout); fmt.Println() }
	switch which {
	case "4":
		f4 = experiments.Figure4(p)
		show(f4)
		f4.RenderPercentiles(os.Stdout)
		if checks {
			experiments.RenderChecks(os.Stdout, experiments.LatencyChecks(f4))
			showBreakdown(p)
		}
	case "5", "6", "7":
		var f experiments.Figure
		switch which {
		case "5":
			f = experiments.Figure5(p)
		case "6":
			f = experiments.Figure6(p)
		case "7":
			f = experiments.Figure7(p)
		}
		show(f)
	case "all":
		f4, f5, f6, f7 = experiments.Figure4(p), experiments.Figure5(p), experiments.Figure6(p), experiments.Figure7(p)
		for _, f := range []experiments.Figure{f4, f5, f6, f7} {
			show(f)
		}
		f4.RenderPercentiles(os.Stdout)
		if checks {
			experiments.RenderChecks(os.Stdout, experiments.LatencyChecks(f4))
			experiments.RenderChecks(os.Stdout, experiments.BandwidthChecks(f5, f6, f7))
			showBreakdown(p)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", which)
		os.Exit(2)
	}
}

// showBreakdown runs the telemetry-enabled attribution sweep and prints
// the paper's latency decomposition with its checks.
func showBreakdown(p model.Params) {
	fmt.Println()
	_, bd := experiments.TelemetryBreakdown(p)
	bd.Render(os.Stdout)
	experiments.RenderChecks(os.Stdout, experiments.BreakdownChecks(bd))
}

// frOpts carries the flight-recorder flags into runSeries.
type frOpts struct {
	on      bool
	events  int // ring capacity per node, 0 for the default
	stallUs int // stall detection window in simulated microseconds, 0 off
	out     string
}

func runSeries(p model.Params, series, pattern string, maxBytes int, accel, gbn bool, traceOut string, stats bool, telemetryOut string, sampleUs int, fr frOpts) {
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = maxBytes
	if accel {
		cfg.Mode = machine.Accelerated
	}
	var mach *machine.Machine
	var tracer *trace.Tracer
	if traceOut != "" || stats || telemetryOut != "" || gbn || fr.on || len(p.Faults) > 0 || len(p.Schedule) > 0 {
		cfg.Observe = func(m *machine.Machine) {
			mach = m
			if gbn {
				m.EnableGoBackN()
			}
			if fr.on {
				m.EnableFlightRecorder(fr.events)
				if fr.stallUs > 0 {
					m.StartStallDetector(sim.Time(fr.stallUs) * sim.Microsecond)
				}
			}
			if traceOut != "" {
				tracer = m.EnableTracing()
			}
			if telemetryOut != "" {
				m.EnableTelemetry()
				if sampleUs > 0 {
					m.StartSampler(sim.Time(sampleUs) * sim.Microsecond)
				}
			}
		}
	}
	var pat netpipe.Pattern
	switch pattern {
	case "pingpong":
		pat = netpipe.PingPong
	case "stream":
		pat = netpipe.Stream
	case "bidir":
		pat = netpipe.Bidir
	default:
		fmt.Fprintf(os.Stderr, "unknown pattern %q\n", pattern)
		os.Exit(2)
	}
	var r netpipe.Result
	switch series {
	case "put":
		r = netpipe.RunPortals(p, netpipe.OpPut, pat, cfg)
	case "get":
		r = netpipe.RunPortals(p, netpipe.OpGet, pat, cfg)
	case "mpich1":
		r = netpipe.RunMPI(p, mpi.MPICH1, pat, cfg)
	case "mpich2":
		r = netpipe.RunMPI(p, mpi.MPICH2, pat, cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown series %q\n", series)
		os.Exit(2)
	}
	fmt.Printf("# %s %s (mode: %v)\n", r.Series, pat, cfg.Mode)
	for _, pt := range r.Points {
		fmt.Println(pt)
	}
	if stats && mach != nil {
		fmt.Println()
		fmt.Print(mach.Stats())
	}
	if (len(p.Faults) > 0 || len(p.Schedule) > 0) && mach != nil {
		fs, _ := mach.FaultSnapshot()
		fmt.Printf("\nfault plane: %v\n", fs)
	}
	if fr.on && mach != nil {
		writeDumps(mach, fr.out)
	}
	if telemetryOut != "" && mach != nil {
		if err := writeTelemetry(mach, telemetryOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if bd, ok := mach.Telemetry().Snapshot(mach.S.Now()).Breakdown(); ok {
			fmt.Println()
			bd.Render(os.Stdout)
		}
		fmt.Printf("telemetry written to %s (render with p3stat)\n", telemetryOut)
	}
	if tracer != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := tracer.WriteChrome(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d events written to %s (open in chrome://tracing or Perfetto)\n", tracer.Len(), traceOut)
	}
	// A scheduled-fault run that ends with open failure reports (ledger
	// imbalance, stall, panic) exits nonzero so scripted repros can gate on
	// it; writeDumps already printed the reports when the recorder is on.
	if len(p.Schedule) > 0 && mach != nil && len(mach.Reports()) > 0 {
		if !fr.on {
			for _, r := range mach.Reports() {
				fmt.Fprintf(os.Stderr, "failure: %v\n", r)
			}
		}
		os.Exit(1)
	}
}
