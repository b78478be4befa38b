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
// The machine-scale torus workloads run on the sharded parallel kernel;
// -shards picks the lane count (simulated results are bit-identical at
// every count). -workload names one (halo, the default, collective,
// random or hotspot; sweep runs random across the -loads ladder) and
// implies -torus. The torus flags are an experiments.Job's (-dim, -shards,
// -steps, -bytes, -radius, -msgs, -load, -hot, -hotfrac, -wseed and the
// protocol, fault and observer flags a series run shares), read by
// experiments.JobFlags; Job.Args prints any Job as such a command line,
// which is how a soak campaign's repro line replays it:
//
//	netpipe -torus -shards 4
//	netpipe -torus -shards 1 -stats
//	netpipe -workload hotspot -dim 4 -hot 5 -hotfrac 0.3 -msgs 16 -gbn
//
// Host-side profiling (go tool pprof) works with every mode:
//
//	netpipe -torus -shards 4 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// With -gbn (or a -faults or -schedule torus run, which turns go-back-n on)
// a -dump-on-stall window must be at least the 150 µs go-back-n timeout.
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
	"slices"
	"strconv"
	"strings"

	"portals3/internal/experiments"
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

// opts is the parsed command line: one field per flag a run mode reads.
type opts struct {
	// job is a torus run whole; a series run reads its protocol, fault
	// plan and observers.
	job   experiments.Job
	stats bool
	out   string // base path the epilogue writes what the observers recorded under

	// -series.
	series, pattern string
	maxBytes        int
	accel           bool

	loads []float64 // -workload sweep's ladder, parsed from -loads
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
	ablations := fs.Bool("ablations", false, "run the design-choice ablations (A1-A6) and print checks")
	fs.StringVar(&o.out, "out", "netpipe", "base path of the written artifacts: BASE.telemetry.json, BASE.p3dump, BASE.hostprof.json; a sweep arm writes under BASE.load<L>")
	torus := fs.Bool("torus", false, "run a machine-scale torus workload instead of a netpipe curve")
	loads := fs.String("loads", "0.25,0.5,0.75,1.0", "comma-separated offered-load ladder (with -workload sweep)")
	progress := fs.Bool("progress", false, "print a live progress line (virtual-time rate, events/sec, lane imbalance, heap, ETA) to stderr (with -torus)")
	cpuprofile := fs.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a host heap profile at exit to this file (go tool pprof)")
	parseJob := experiments.JobFlags(fs)
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
	job, err := parseJob()
	if err != nil {
		return c.fail(2, "%v", err)
	}
	if (*progress || job.HostProf) && !*torus {
		return c.fail(2, "-progress/-hostprof profile the sharded kernel's lanes; they need -torus (classic runs profile with -cpuprofile)")
	}
	if o.maxBytes < 1 {
		return c.fail(2, "-max %d must be at least 1", o.maxBytes)
	}
	if *torus {
		if job.Workload == "sweep" {
			for _, s := range strings.Split(*loads, ",") {
				v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil || !(v > 0) {
					return c.fail(2, "-loads %q: each entry must be a positive load factor", *loads)
				}
				o.loads = append(o.loads, v)
			}
			job.Workload, job.Load = "random", o.loads[0]
		}
		if err := job.Validate(); err != nil {
			return c.fail(2, "%v", err)
		}
	}
	switch *fig {
	case "", "4", "5", "6", "7", "all":
	default:
		return c.fail(2, "unknown figure %q (want 4, 5, 6, 7 or all)", *fig)
	}
	if *fig == "" && !*torus && !*ablations && o.series != "" {
		if !slices.Contains([]string{"put", "get", "mpich1", "mpich2"}, o.series) {
			return c.fail(2, "unknown series %q (want put, get, mpich1 or mpich2)", o.series)
		}
		if _, ok := patterns[o.pattern]; !ok {
			return c.fail(2, "unknown pattern %q (want pingpong, stream or bidir)", o.pattern)
		}
		// The series runs on the two-node netpipe pair, where go-back-n
		// runs only with -gbn.
		pair, _ := topo.New(2, 1, 1, false, false, false)
		if err := job.Schedule.Validate(pair); err != nil {
			return c.fail(2, "-schedule: %v", err)
		}
		if err := experiments.CheckStallWindow(job.StallWindow, job.GoBackN); err != nil {
			return c.fail(2, "%v", err)
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
	if *progress {
		// Stderr: stdout stays reserved for the workload's tables.
		job.Progress = func(hp sim.HostProgress) { fmt.Fprintln(c.err, "progress:", hp) }
	}
	o.job = job
	p := model.Defaults()
	p.Faults, p.FaultSeed, p.Schedule = job.Faults, job.FaultSeed, job.Schedule
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
		code = runTorus(c, o)
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

// ending is what one run leaves for the epilogue.
type ending struct {
	stats    string            // the machine's counter table
	faults   string            // the fault ledger's line, "" when no fault was planned
	failures []string          // failure reports and workload errors, in order
	art      machine.Artifacts // what the armed planes recorded
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
	if !o.job.Telemetry {
		a.Telemetry = nil // a sweep records it for its curves
	}
	if !o.job.HostProf {
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
// sweep) on the sharded kernel. With telemetry on, the sampler runs
// too (lane-local, merged at snapshot time) so the export carries the
// per-link contention series, and the per-hop-count latency summary
// prints after the run.
func runTorus(c cli, o opts) int {
	if o.loads != nil {
		return runSweep(c, o)
	}
	r := o.job.Run()
	c.printf("%s", o.job.Title(r))
	c.printf("finished at %.1f us simulated, %d kernel windows\n",
		float64(r.FinishPs)/1e6, r.Windows)
	if o.job.Telemetry {
		if rows, err := hopRows(r.Artifacts.Telemetry); err == nil && len(rows) > 0 {
			c.printf("\n")
			experiments.RenderHopCurve(c.out, rows)
		}
	}
	return c.epilogue(o, o.out, ending{r.StatsText, r.FaultsLine, r.Errors, r.Artifacts})
}

// runSweep runs the uniform traffic generator once per offered load and
// prints each arm's per-hop-count latency curve plus a closing summary —
// the latency-under-load methodology of EXPERIMENTS.md. Telemetry is
// recorded in every arm (the curves come from it); each arm ends in the
// epilogue and writes what the flags armed under BASE.load<L>.
func runSweep(c cli, o opts) int {
	j := o.job
	j.Telemetry = true // every arm records it for its curves
	j = j.Resolved()
	c.printf("# latency-under-load sweep: %d nodes (%dx%dx%d), %d x %d B per sender, loads %v, shards=%d\n",
		j.Dim*j.Dim*j.Dim, j.Dim, j.Dim, j.Dim, j.TrafficConfig.Msgs, j.Bytes, o.loads, j.Shards)
	var summary strings.Builder // one line per arm
	code := 0
	for _, load := range o.loads {
		j.Load = load
		r := j.Run()
		c.printf("\n== load %.2f (finished at %.1f us, %d kernel windows)\n",
			load, float64(r.FinishPs)/1e6, r.Windows)
		rows, err := hopRows(r.Artifacts.Telemetry)
		if err != nil {
			code = c.fail(1, "load %.2f: %v", load, err)
		} else {
			var mean, p99 float64
			var msgs uint64
			for _, row := range rows {
				mean += row.E2EMeanPs * float64(row.Msgs)
				msgs += row.Msgs
				p99 = max(p99, row.E2EP99Ps)
			}
			if msgs > 0 {
				mean /= float64(msgs)
			}
			fmt.Fprintf(&summary, "  %6.2f %10.1fus %10.3fus %10.3fus\n", load, float64(r.FinishPs)/1e6, mean/1e6, p99/1e6)
			experiments.RenderHopCurve(c.out, rows)
		}
		code = max(code, c.epilogue(o, fmt.Sprintf("%s.load%.2f", o.out, load), ending{r.StatsText, r.FaultsLine, r.Errors, r.Artifacts}))
	}
	c.printf("\nlatency vs offered load:\n")
	c.printf("  %6s %12s %12s %12s\n%s", "load", "finish", "e2e-mean", "e2e-p99", summary.String())
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
// With checks, Figure 4 adds the paper-vs-measured latency checks and the
// telemetry-enabled attribution sweep's latency decomposition, and all four
// add the bandwidth checks.
func runFigures(c cli, p model.Params, which string, checks bool) {
	var figs []experiments.Figure
	for i, figure := range []func(model.Params) experiments.Figure{
		experiments.Figure4, experiments.Figure5, experiments.Figure6, experiments.Figure7,
	} {
		if which == "all" || which == strconv.Itoa(4+i) {
			figs = append(figs, figure(p))
			figs[len(figs)-1].Render(c.out)
			c.printf("\n")
		}
	}
	if which != "4" && which != "all" {
		return
	}
	figs[0].RenderPercentiles(c.out)
	if checks {
		experiments.RenderChecks(c.out, experiments.LatencyChecks(figs[0]))
		if which == "all" {
			experiments.RenderChecks(c.out, experiments.BandwidthChecks(figs[1], figs[2], figs[3]))
		}
		c.printf("\n")
		_, bd := experiments.TelemetryBreakdown(p)
		bd.Render(c.out)
		experiments.RenderChecks(c.out, experiments.BreakdownChecks(bd))
	}
}

// patterns are the NetPIPE patterns -pattern names.
var patterns = map[string]netpipe.Pattern{"pingpong": netpipe.PingPong, "stream": netpipe.Stream, "bidir": netpipe.Bidir}

func runSeries(c cli, p model.Params, o opts) int {
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = o.maxBytes
	if o.accel {
		cfg.Mode = machine.Accelerated
	}
	var mach *machine.Machine
	cfg.Observe = func(m *machine.Machine) {
		mach = m
		j := o.job
		if j.GoBackN {
			m.EnableGoBackN()
		}
		if j.FlightRec > 0 {
			m.EnableFlightRecorder(j.FlightRec)
		}
		if j.StallWindow > 0 {
			m.StartStallDetector(j.StallWindow)
		}
		if j.Telemetry {
			m.EnableTelemetry()
			if j.SamplePeriod > 0 {
				m.StartSampler(j.SamplePeriod)
			}
		}
	}
	pat := patterns[o.pattern]
	var r netpipe.Result
	if op, ok := map[string]netpipe.Op{"put": netpipe.OpPut, "get": netpipe.OpGet}[o.series]; ok {
		r = netpipe.RunPortals(p, op, pat, cfg)
	} else {
		r = netpipe.RunMPI(p, map[string]mpi.Impl{"mpich1": mpi.MPICH1, "mpich2": mpi.MPICH2}[o.series], pat, cfg)
	}
	c.printf("# %s %s (mode: %v)\n", r.Series, pat, cfg.Mode)
	for _, pt := range r.Points {
		c.printf("%v\n", pt)
	}
	if o.job.Telemetry {
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
