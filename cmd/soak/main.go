// Command soak drives chaos soak campaigns: seeded virtual-time fault
// schedules (link flaps, node stalls, firmware restarts, burst loss) over
// four torus jobs (halo, collective, uniform and hot-spot traffic), on the
// sequential and sharded kernels, asserting the soak invariants — balanced
// fault ledger, zero stall/panic/ledger reports, intact delivery in flow
// order, and byte-identical summaries at every shard count. It sweeps every
// workload (or the one -workload names) over a seed range:
//
//	soak                      # 3 seeds per workload, shards 1 and 4
//	soak -seeds 5 -hostprof   # make soak, the CI gate
//
// A failing campaign is auto-bisected to a minimal still-failing schedule
// (ddmin over the schedule entries, memoized), re-verified standalone, and
// rendered as a ready-to-paste repro command: the netpipe command of its
// experiments.Job, which replays the failing run exactly. What the failing
// run recorded (machine.Artifacts: flight-recorder dumps, host profile;
// render any of them with p3stat) and the minimal schedule are written
// under -artifacts.
package main

import (
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
	seeds := fs.Int("seeds", 3, "seeds per workload")
	entries := fs.Int("entries", 4, "generated schedule length per campaign")
	shardsFlag := fs.String("shards", "1,4", "comma-separated shard counts; every count must produce a byte-identical summary")
	plant := fs.Bool("plant", false, "plant a ledger corruption in every campaign — the failure-detection self-check; campaigns must FAIL and bisect to the planted entry")
	fs.BoolVar(&c.bisect, "bisect", true, "auto-bisect failing campaigns to a minimal schedule")
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
	if *seeds < 1 {
		return c.fail(2, "-seeds %d must be at least 1: no campaign would run", *seeds)
	}
	if *entries < 1 {
		return c.fail(2, "-entries %d must be at least 1", *entries)
	}
	workloads := soak.Workloads
	if *workload != "" {
		if _, err := soak.Resolve(soak.Campaign{Workload: *workload}); err != nil {
			fmt.Fprintln(stderr, err) // already attributed: "soak: unknown workload ..."
			return 2
		}
		workloads = []string{*workload}
	}

	campaigns, failed := 0, false
	for _, w := range workloads {
		for s := *seed; s < *seed+int64(*seeds); s++ {
			cam := soak.Campaign{Workload: w, Seed: s, Entries: *entries, Progress: onProgress}
			if *plant {
				sched, _ := soak.Resolve(cam) // w is one of soak.Workloads
				cam.Schedule = append(sched, model.ScheduleEntry{
					Kind: model.SchedCorrupt, Node: 2, At: 300 * sim.Microsecond,
				})
			}
			if !c.runArms(cam, shardCounts) {
				failed = true
			}
			campaigns++
		}
	}
	if failed {
		return 1
	}
	fmt.Fprintf(stdout, "soak: %d campaigns passed (%s; shards %s)\n",
		campaigns, strings.Join(workloads, ", "), *shardsFlag)
	return 0
}

// runArms runs one (workload, seed) campaign at every shard count,
// requires byte-identical summaries across arms, and triages any failure.
func (c cli) runArms(cam soak.Campaign, shardCounts []int) bool {
	var refSummary string
	ok := true
	for i, n := range shardCounts {
		cc := cam
		cc.Shards = n
		r := soak.Run(cc)
		c.saveArm(fmt.Sprintf("%s-seed%d-shards%d", cam.Workload, cam.Seed, n), &r)
		fmt.Fprintf(c.out, "campaign %s seed=%d shards=%d: ", cam.Workload, cam.Seed, n)
		if r.Failed() {
			fmt.Fprintf(c.out, "FAIL (%d invariant violations)\n", len(r.Errors))
			ok = false
		} else {
			fmt.Fprintf(c.out, "pass (finish=%dus injected=%d)\n", r.FinishPs/1e6, r.Ledger.Injected())
		}
		if i == 0 {
			refSummary = r.Summary()
		} else if got := r.Summary(); got != refSummary {
			ok = false
			fmt.Fprintf(c.out, "campaign %s seed=%d: summary DIVERGES between shards=%d and shards=%d:\n--- shards=%d\n%s--- shards=%d\n%s",
				cam.Workload, cam.Seed, shardCounts[0], n, shardCounts[0], refSummary, n, got)
		}
	}
	if !ok {
		fmt.Fprint(c.out, refSummary)
		if c.bisect {
			c.triage(cam, shardCounts[0])
		}
	}
	return ok
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
