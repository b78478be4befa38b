// Command soak drives chaos soak campaigns: seeded virtual-time fault
// schedules (link flaps, node stalls, firmware restarts, burst loss) over
// the standard workloads, on the sequential and sharded kernels, asserting
// the soak invariants — balanced fault ledger, zero stall/panic/ledger
// reports, intact ordered delivery, and byte-identical summaries at every
// shard count.
//
// Suite mode (the default) sweeps every workload over a seed range:
//
//	soak                      # 3 seeds per workload, shards 1 and 4
//	soak -short               # 1 seed per workload (the CI gate)
//	soak -seeds 10 -out soak_artifacts/SOAK_trend.json
//
// A failing campaign is auto-bisected to a minimal still-failing schedule
// (ddmin over the schedule entries, memoized), re-verified standalone, and
// rendered as a ready-to-paste repro command: for a torus campaign the
// netpipe command of its experiments.Job, which replays the failing run
// exactly, and for a line workload this tool's replay mode; what the failing run recorded
// (machine.Artifacts: flight-recorder dumps, host profile; render any of
// them with p3stat) and the minimal schedule are written under -artifacts.
//
// Replay mode runs one explicit schedule — the bisector's output for a
// line workload:
//
//	soak -workload gbn-stream -shards 2 -schedule 'corrupt:2:300us'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/soak"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// trendRecord is one campaign's row in the trend JSON. wall_ms and
// peak_heap_bytes are host-side (summed and maxed across the shard arms):
// they track soak-time regressions across runs and take no part in the
// shard-invariance comparison.
type trendRecord struct {
	Workload      string `json:"workload"`
	Seed          int64  `json:"seed"`
	Shards        string `json:"shards"`
	FinishPs      int64  `json:"finish_ps"`
	Msgs          int    `json:"msgs"`
	Injected      uint64 `json:"injected"`
	Recovered     uint64 `json:"recovered"`
	Condemned     uint64 `json:"condemned"`
	Open          uint64 `json:"open"`
	Failed        bool   `json:"failed"`
	WallMs        int64  `json:"wall_ms"`
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
}

// trendFile is the cumulative trend document: one entry appended per soak
// invocation, capped to the most recent 50.
type trendFile struct {
	Runs []trendRun `json:"runs"`
}

type trendRun struct {
	Run       int           `json:"run"`
	Campaigns []trendRecord `json:"campaigns"`
}

// cli is the driver's output streams and the options every campaign shares.
type cli struct {
	out, err  io.Writer
	artifacts string // directory for what failing (or -hostprof) runs recorded
	hostprof  bool
	bisect    bool
}

// fail prints one attributed diagnostic line and returns the exit code.
func (c cli) fail(code int, format string, a ...interface{}) int {
	fmt.Fprintf(c.err, "soak: "+format+"\n", a...)
	return code
}

// saveArm writes what one arm recorded under the artifacts directory: the
// host profile with -hostprof, the dumps when the arm failed. Write errors
// are reported and survived: a campaign's verdict does not depend on them.
func (c cli) saveArm(base string, r *soak.Result) {
	a := r.Artifacts
	if !c.hostprof {
		a.HostProfile = nil
	}
	if !r.Failed() {
		a.Dump, a.ReportDumps = nil, nil
	}
	paths, err := a.WriteFiles(c.artifacts, base)
	for _, path := range paths {
		fmt.Fprintf(c.out, "artifact written to %s (render with p3stat)\n", path)
	}
	if err != nil {
		c.fail(1, "%v", err)
	}
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	c := cli{out: stdout, err: stderr}
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "single workload: "+strings.Join(soak.Workloads, ", ")+" (default: all)")
	seed := fs.Int64("seed", 1, "first campaign seed")
	seeds := fs.Int("seeds", 3, "seeds per workload in suite mode")
	entries := fs.Int("entries", 4, "generated schedule length per campaign")
	shardsFlag := fs.String("shards", "1,4", "comma-separated shard counts; every count must produce a byte-identical summary")
	schedule := fs.String("schedule", "", "explicit fault schedule (replay mode; requires -workload)")
	short := fs.Bool("short", false, "one seed per workload (the CI gate)")
	plant := fs.Bool("plant", false, "plant a ledger corruption in every campaign — the failure-detection self-check; campaigns must FAIL and bisect to the planted entry")
	fs.BoolVar(&c.bisect, "bisect", true, "auto-bisect failing campaigns to a minimal schedule")
	out := fs.String("out", "", "append the run's campaign records to this trend JSON file")
	fs.StringVar(&c.artifacts, "artifacts", "soak_artifacts", "directory for failure artifacts (flight-recorder dumps, minimal schedules) and -hostprof profiles")
	progress := fs.Bool("progress", false, "print live host-execution progress lines to stderr during long campaigns")
	fs.BoolVar(&c.hostprof, "hostprof", false, "write each arm's host-execution profile JSON under -artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	shardCounts, err := parseShards(*shardsFlag)
	if err != nil {
		return c.fail(2, "-shards: %v", err)
	}
	var onProgress func(sim.HostProgress) // nil (off) without -progress
	if *progress {
		onProgress = func(hp sim.HostProgress) { fmt.Fprintln(stderr, "progress:", hp) }
	}
	if *short {
		*seeds = 1
	}
	if *seeds < 1 {
		return c.fail(2, "-seeds %d must be at least 1: no campaign would run", *seeds)
	}
	if *entries < 0 {
		return c.fail(2, "-entries %d must be at least 0", *entries)
	}
	if *workload != "" {
		if _, err := soak.Topology(*workload); err != nil {
			fmt.Fprintln(stderr, err) // already attributed: "soak: unknown workload ..."
			return 2
		}
	}

	if *schedule != "" {
		if *workload == "" {
			return c.fail(2, "-schedule requires -workload")
		}
		sched, err := model.ParseSchedule(*schedule)
		if err != nil {
			return c.fail(2, "-schedule: %v", err)
		}
		cam := soak.Campaign{Workload: *workload, Shards: shardCounts[0], Schedule: sched, FlightRec: true, Progress: onProgress}
		if _, err := soak.Resolve(cam); err != nil {
			fmt.Fprintln(stderr, err) // already attributed: "soak: schedule entry ..."
			return 2
		}
		r := soak.Run(cam)
		fmt.Fprint(stdout, r.Summary())
		c.saveArm(fmt.Sprintf("%s-replay-shards%d", cam.Workload, cam.Shards), &r)
		if r.Failed() {
			return 1
		}
		return 0
	}

	workloads := soak.Workloads
	if *workload != "" {
		workloads = []string{*workload}
	}

	var records []trendRecord
	failed := false
	for _, w := range workloads {
		for s := *seed; s < *seed+int64(*seeds); s++ {
			cam := soak.Campaign{Workload: w, Seed: s, Entries: *entries}
			if *plant {
				sched, err := soak.Resolve(cam)
				if err != nil {
					fmt.Fprintln(stderr, err)
					return 2
				}
				cam.Schedule = append(sched, model.ScheduleEntry{
					Kind: model.SchedCorrupt, Node: 2, At: 300 * sim.Microsecond,
				})
			}
			cam.Progress = onProgress
			ok, rec := c.runArms(cam, shardCounts)
			records = append(records, rec)
			if !ok {
				failed = true
			}
		}
	}
	if *out != "" {
		if err := appendTrend(*out, records); err != nil {
			return c.fail(1, "writing %s: %v", *out, err)
		}
		fmt.Fprintf(stdout, "trend appended to %s (%d campaigns)\n", *out, len(records))
	}
	if failed {
		return 1
	}
	fmt.Fprintf(stdout, "soak: %d campaigns passed (%s; shards %s)\n",
		len(records), strings.Join(workloads, ", "), *shardsFlag)
	return 0
}

// runArms runs one (workload, seed) campaign at every shard count,
// requires byte-identical summaries across arms, and triages any failure.
// The trend record's host-side columns aggregate across arms: wall-clock
// sums (total soak time for the campaign), peak heap takes the max.
func (c cli) runArms(cam soak.Campaign, shardCounts []int) (bool, trendRecord) {
	var ref *soak.Result
	var refSummary string
	ok := true
	var wallNs int64
	var peakHeap uint64
	for _, n := range shardCounts {
		cc := cam
		cc.Shards = n
		r := soak.Run(cc)
		wallNs += r.WallNs
		if r.PeakHeapBytes > peakHeap {
			peakHeap = r.PeakHeapBytes
		}
		c.saveArm(fmt.Sprintf("%s-seed%d-shards%d", cam.Workload, cam.Seed, n), &r)
		fmt.Fprintf(c.out, "campaign %s seed=%d shards=%d: ", cam.Workload, cam.Seed, n)
		if r.Failed() {
			fmt.Fprintf(c.out, "FAIL (%d invariant violations)\n", len(r.Errors))
			ok = false
		} else {
			fmt.Fprintf(c.out, "pass (finish=%dus injected=%d)\n", r.FinishPs/1e6, r.Ledger.Injected())
		}
		if ref == nil {
			ref, refSummary = &r, r.Summary()
		} else if got := r.Summary(); got != refSummary {
			ok = false
			fmt.Fprintf(c.out, "campaign %s seed=%d: summary DIVERGES between shards=%d and shards=%d:\n--- shards=%d\n%s--- shards=%d\n%s",
				cam.Workload, cam.Seed, shardCounts[0], n, shardCounts[0], refSummary, n, got)
		}
	}
	rec := trendRecord{
		Workload: cam.Workload, Seed: cam.Seed,
		Shards:   strings.ReplaceAll(strings.Trim(fmt.Sprint(shardCounts), "[]"), " ", ","), // "1,4"
		FinishPs: ref.FinishPs, Msgs: ref.Msgs,
		Injected: ref.Ledger.Injected(), Recovered: ref.Ledger.Recovered,
		Condemned: ref.Ledger.Condemned, Open: ref.Ledger.Open(),
		Failed: !ok,
		WallMs: wallNs / 1e6, PeakHeapBytes: peakHeap,
	}
	if !ok {
		fmt.Fprint(c.out, refSummary)
		if c.bisect {
			c.triage(cam, shardCounts[0])
		}
	}
	return ok, rec
}

// triage bisects a failing campaign and renders the minimal reproduction.
func (c cli) triage(cam soak.Campaign, shards int) {
	cc := cam
	cc.Shards = shards
	out, err := soak.Bisect(cc)
	if err != nil {
		c.fail(1, "bisect: %v", err)
		return
	}
	if !out.Failed {
		fmt.Fprintln(c.out, "bisect: failure did not reproduce under bisection (summary divergence only?)")
		return
	}
	fmt.Fprintf(c.out, "bisect: %d trials, %d of %d schedule entries remain", out.Trials, len(out.Minimal), len(out.Full))
	if out.Verified {
		fmt.Fprintf(c.out, " (re-verified failing standalone)\n")
	} else {
		fmt.Fprintf(c.out, " (WARNING: minimal schedule passed on re-verification)\n")
	}
	fmt.Fprintf(c.out, "minimal schedule: %s\n", out.Minimal)
	fmt.Fprintf(c.out, "repro: %s\n", soak.ReproCommand(cc, out.Minimal))
	base := fmt.Sprintf("%s-seed%d", cam.Workload, cam.Seed)
	schedPath := filepath.Join(c.artifacts, base+".minimal.schedule")
	err = os.MkdirAll(c.artifacts, 0o755)
	if err == nil {
		err = os.WriteFile(schedPath, []byte(out.Minimal.String()+"\n"), 0o644)
	}
	if err != nil {
		c.fail(1, "%v", err)
	} else {
		fmt.Fprintf(c.out, "minimal schedule written to %s\n", schedPath)
	}
	c.saveArm(base, &out.Result)
}

// appendTrend appends this run's records to the trend file (created, with
// its directory, on first use), keeping the most recent 50 runs.
func appendTrend(path string, records []trendRecord) error {
	var tf trendFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &tf); err != nil {
			return fmt.Errorf("existing trend file unreadable: %v", err)
		}
	}
	run := 1
	if n := len(tf.Runs); n > 0 {
		run = tf.Runs[n-1].Run + 1
	}
	tf.Runs = append(tf.Runs, trendRun{Run: run, Campaigns: records})
	if len(tf.Runs) > 50 {
		tf.Runs = tf.Runs[len(tf.Runs)-50:]
	}
	b, err := json.MarshalIndent(&tf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
