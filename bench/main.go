// Command bench is the repository's host-cost benchmark: five jobs of the
// deterministic simulator, measured end to end with every observer off and,
// in a separate traced run, layer by layer. README.md has the rationale.
//
//	go run -C bench portals3/bench --workload halo_512 --seed 1 --seconds 15 --trace 0
//	go run -C bench portals3/bench                      # all five, fixed run lengths, both runs
//	go run -C bench portals3/bench -append ledger.jsonl # the same, recorded as one dated row
//	go run -C bench portals3/bench -compare a.jsonl b.jsonl
//	go run -C bench portals3/bench -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"portals3/internal/experiments"
)

// tracedIters is the traced run's fixed length when no -seconds is given.
const tracedIters = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); empty runs all five")
	seed := fs.Uint64("seed", 1, "workload seed (only uniform_lossy_512 draws from it)")
	seconds := fs.Float64("seconds", 0, "measure for this many seconds; 0 runs each workload's fixed iteration count")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
	smoke := fs.Bool("smoke", false, "tiny shapes, one iteration each, plus the 512-node reference halo: a self-test, not a measurement")
	compare := fs.Bool("compare", false, "compare two ledger files given as arguments; exit 1 when a metric is outside its bound")
	appendTo := fs.String("append", "", "append one dated row with every end-to-end metric to this ledger file")
	outDir := fs.String("out", "out", "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two ledger files")
			return 2
		}
		return compareLedgers(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		todo = []workload{*w}
	}

	// One collector setting and a sequential experiment driver for every
	// run, so two commits are measured under the same regime.
	debug.SetGCPercent(100)
	experiments.Parallelism = 1

	host := hostInfo()
	fmt.Fprintf(stdout, "# portals3 bench commit=%s go=%s nproc=%d GOMAXPROCS=%d gcpercent=100 parallelism=1\n",
		host.Commit, host.Go, host.NProc, host.GOMAXPROCS)
	opt := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke}
	// The layer ladder does not depend on the workload: measure it once.
	var ladder map[string]float64
	if *trace != 0 {
		scale := 1
		if *smoke {
			scale = 50
		}
		var err error
		if ladder, err = runLadder(scale); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	row := newRow(host, *seed)
	failed := 0
	var last result
	for i := range todo {
		res, err := runWorkload(&todo[i], opt, *trace, ladder, *outDir)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", todo[i].name, err)
			return 1
		}
		res.print(stdout, opt, *trace)
		row.add(res)
		failed += len(res.failures)
		last = res
	}
	if *smoke {
		if fails := referenceHalo(); len(fails) > 0 {
			failed += len(fails)
			for _, f := range fails {
				fmt.Fprintln(stdout, "FAIL reference halo:", f)
			}
		} else {
			fmt.Fprintln(stdout, "ok   reference halo: 512 nodes, 2 steps, 144.0 us, 309 windows")
		}
	}
	if *appendTo != "" && failed == 0 {
		if err := row.appendTo(*appendTo); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if len(todo) == 1 && *trace >= 0 {
		last.printJSON(stdout, *trace)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// hostInfo describes where and what is being measured.
type hostInfoT struct {
	Commit     string `json:"commit"`
	Host       string `json:"host"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func hostInfo() hostInfoT {
	h := hostInfoT{Commit: "unknown", Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	h.Host, _ = os.Hostname()
	// go run does not stamp VCS data, so ask git; outside a repository the
	// commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// result is one workload's measurements in printable form.
type result struct {
	name      string
	e2e       map[string]float64 // end-to-end and exact metrics
	info      map[string]string  // sample counts, percentiles
	spreads   map[string]float64 // in-run interquartile spread of sampled metrics
	layers    map[string]float64 // per-layer metrics; nil when untraced
	attempted int
	failures  []string
}

// runWorkload measures one workload: the timed run and set-up probes unless
// only the per-layer metrics were asked for, and the traced run (reported
// together with the ladder's metrics) unless only the end-to-end ones were.
func runWorkload(w *workload, opt runOpts, trace int, ladder map[string]float64, outDir string) (result, error) {
	res := result{name: w.name, e2e: map[string]float64{}, info: map[string]string{}, spreads: map[string]float64{}}
	probes := setupProbes
	topt := opt // the traced run's options
	opt.iters, topt.iters = w.iters, tracedIters
	if opt.smoke {
		opt.iters, topt.iters, probes = 1, 2, 3
	}
	if trace == 1 && opt.seconds > 0 {
		// The per-layer run needs an untraced base for trace.overhead_pct;
		// split the time between the two.
		opt.seconds /= 2
		topt.seconds = opt.seconds
	}

	runtime.GC()
	t := measure(w, opt)
	res.attempted, res.failures = t.attempted, t.failures
	wall := median(t.walls)
	res.e2e["job_wall_s"] = wall
	res.e2e["sim_msgs_per_s"] = float64(t.job.msgs) / wall
	res.e2e["sim_payload_mb_per_s"] = float64(t.job.payload) / 1e6 / wall
	res.e2e["allocs_per_job"] = t.allocs
	res.e2e["alloc_bytes_per_job"] = t.allocBytes
	res.e2e["sim_finish_us"] = float64(t.job.finishPs) / 1e6
	res.e2e["sim_err_pct"] = t.job.errPct
	res.spreads["job_wall_s"] = spread(t.walls)
	res.info["job_wall_s"] = sampleInfo(t.walls)
	if t.job.errPct < 0 {
		res.info["sim_err_pct"] = "unvalidated: no reference at this scale"
	}

	if trace != 1 {
		s := measureSetup(w, opt, probes)
		res.e2e["setup_s"] = median(s.seconds)
		res.e2e["setup_allocs"] = median(s.allocs)
		res.e2e["setup_live_bytes"] = median(s.liveBytes)
		res.spreads["setup_s"] = spread(s.seconds)
		res.info["setup_s"] = sampleInfo(s.seconds)
	}
	if trace != 0 {
		tr, err := traceRun(w, topt, wall, outDir)
		if err != nil {
			return res, err
		}
		res.layers = tr.metrics
		for k, v := range ladder {
			res.layers[k] = v
		}
		res.attempted += tr.attempted
		res.failures = append(res.failures, tr.failures...)
	}
	res.e2e["fail_share"] = float64(len(res.failures)) / float64(res.attempted)
	return res, nil
}

// sampleInfo describes the sample behind a median: its size and, when the
// sample supports one, its tail percentile.
func sampleInfo(xs []float64) string {
	info := fmt.Sprintf("n=%d", len(xs))
	if pct, v := tailPercentile(xs); pct > 0 {
		info += fmt.Sprintf(" p%g=%.4g", pct, v)
	}
	return info
}

// print writes the workload's metrics as an aligned table.
func (r result) print(w io.Writer, opt runOpts, trace int) {
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%d smoke=%v\n", r.name, opt.seed, opt.seconds, trace, opt.smoke)
	line := func(s metricSpec, v float64, ok bool) {
		if ok {
			fmt.Fprintf(w, "%-34s %18.6g %-6s %s\n", s.name, v, s.unit, r.info[s.name])
		}
	}
	for _, s := range concat(endToEnd, exact) {
		v, ok := r.e2e[s.name]
		line(s, v, ok)
	}
	if r.layers != nil {
		for _, s := range concat(ladderSpecs, tracedSpecs) {
			v, ok := r.layers[s.name]
			line(s, v, ok)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL", r.name+":", f)
	}
}

// printJSON writes the result line the pipeline reads: every end-to-end
// metric for an untraced run, every per-layer metric for a traced one.
func (r result) printJSON(w io.Writer, trace int) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.failures) == 0, r.attempted, len(r.failures), map[string]value{}}
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := r.e2e[s.name]
		if !ok {
			v = r.layers[s.name]
		}
		out.Metrics[s.name] = value{v, s.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a metric that is not a finite number is a harness bug
	}
	fmt.Fprintf(w, "%s\n", line)
}

// referenceHalo runs the committed 512-node, 2-step halo of
// BENCH_substrate.json and checks its simulated result has not moved.
func referenceHalo() []string {
	cfg := experiments.DefaultTorusConfig()
	res := experiments.TorusHalo(cfg)
	var fails []string
	if len(res.Errors) > 0 {
		fails = append(fails, res.Errors[0])
	}
	if us := float64(res.FinishPs) / 1e6; us < 143.95 || us >= 144.05 {
		fails = append(fails, fmt.Sprintf("finished at %.3f us, reference 144.0", us))
	}
	if res.Windows != 309 {
		fails = append(fails, fmt.Sprintf("%d windows, reference 309", res.Windows))
	}
	return fails
}
