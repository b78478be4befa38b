package main

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"portals3/internal/experiments"
	"portals3/internal/flightrec"
	"portals3/internal/soak"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// runCLI runs the tool in-process.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFlagValidation: every bad combination in run's pre-flight block exits
// 2 before any machine exists — nothing on stdout, no panic, exactly one
// line on stderr that names the tool and the offending flag.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the diagnostic
	}{
		{"", "nothing to run"},
		{"-fig 9", `unknown figure "9"`},
		{"-series warp", `unknown series "warp"`},
		{"-series put -pattern zigzag", `unknown pattern "zigzag"`},
		{"-series put -faults drop:data", "-faults"},
		{"-series put -faults drop:data:NaN", "-faults"},
		{"-series put -progress", "-torus"},
		{"-series put -hostprof", "-torus"},
		{"-series put -telemetry r.json", `unexpected argument "r.json"`},
		{"-torus -progress -progress-every 0s", "-progress-every"},
		{"-series put -max -5", "-max -5"},
		{"-series put -max 0", "-max 0"},
		{"-workload random -dim 3 -msgs -3", "-msgs -3"},
		{"-workload sweep -dim 3 -msgs 0", "-msgs 0"},
		{"-torus -dim 3 -steps -1", "-steps -1"},
		{"-series put -telemetry -sample -1", "-sample -1"},
		{"-series put -flightrec -flightrec-events -8", "-flightrec-events -8"},
		{"-series put -flightrec -flightrec-events 0", "-flightrec-events 0"},
		{"-series put -dump-on-stall -400", "-dump-on-stall -400"},
		{"-torus -dim 2", "-dim 2"},
		{"-torus -dim 3 -shards 0", "-shards 0"},
		{"-torus -dim 3 -shards 28", "-shards 28"},
		{"-workload ring", `-workload "ring"`},
		{"-workload hotspot -dim 3 -hot 27", "-hot 27"},
		{"-workload hotspot -dim 3 -hotfrac 0", "-hotfrac 0"},
		{"-workload hotspot -dim 3 -hotfrac 1.5", "-hotfrac 1.5"},
		{"-workload random -dim 3 -load 0", "-load 0"},
		{"-workload sweep -dim 3 -loads 0.5,fast", "-loads"},
		{"-workload sweep -dim 3 -loads 0.5,-1", "-loads"},
		{"-series put -schedule teleport:1:2us", "-schedule"},
		{"-series put -schedule stall:1:2562047h:1us", "-schedule"},
		{"-fig 4 -schedule stall:1:1us:1us", "single run"},
		{"-ablations -schedule stall:1:1us:1us", "single run"},
		{"-fig 4 -telemetry", "-telemetry applies to a single run"},
		{"-fig all -flightrec", "-flightrec applies to a single run"},
		{"-fig 5 -flightrec-events 64", "-flightrec-events applies to a single run"},
		{"-ablations -dump-on-stall 400", "-dump-on-stall applies to a single run"},
		{"-ablations -out x", "-out applies to a single run"},
		{"-fig 4 -stats", "-stats applies to a single run"},
		{"-series put -schedule stall:2:1us:1us", "node 2 outside"},
		{"-torus -dim 3 -schedule linkdown:27:X+:1us:1us", "node 27 outside"},
	} {
		code, stdout, stderr := runCLI(strings.Fields(tc.args)...)
		if code != 2 || stdout != "" {
			t.Errorf("netpipe %s: exit %d, stdout %q; want 2 and nothing", tc.args, code, stdout)
		}
		if !strings.HasPrefix(stderr, "netpipe: ") || strings.Count(stderr, "\n") != 1 || !strings.HasSuffix(stderr, "\n") {
			t.Errorf("netpipe %s: stderr is not one attributed line: %q", tc.args, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("netpipe %s: stderr %q does not mention %q", tc.args, stderr, tc.want)
		}
	}
	// A flag the tool does not define is the flag package's usage error.
	// -trace is one: the timeline is p3stat -chrome of a -flightrec dump;
	// -dumpout is another: -out names every file a run writes.
	for _, name := range []string{"-trace", "-dumpout"} {
		if code, stdout, stderr := runCLI("-series", "put", name, "t.json"); code != 2 || stdout != "" ||
			!strings.Contains(stderr, "flag provided but not defined: "+name) {
			t.Errorf("netpipe %s: exit %d, stdout %q, stderr %.80q; want 2 and the usage error", name, code, stdout, stderr)
		}
	}
}

// TestStallWindowBelowTheGbnTimeout: with go-back-n on, a stall window
// shorter than its 150 µs timeout would report every retransmission wait,
// so a series run with -gbn and a torus run that recovers loss refuse it in
// one exit-2 line; without the protocol the window may be as short as the
// user likes.
func TestStallWindowBelowTheGbnTimeout(t *testing.T) {
	for _, args := range []string{
		"-series put -max 64 -gbn -dump-on-stall 149",
		"-workload halo -dim 3 -faults drop:data:0.1 -dump-on-stall 40",
		"-workload random -dim 3 -gbn -dump-on-stall 1",
	} {
		code, stdout, stderr := runCLI(strings.Fields(args)...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 ||
			!strings.Contains(stderr, "shorter than the go-back-n timeout of 150.00us") {
			t.Errorf("netpipe %s: exit %d, stdout %q, stderr %q; want 2 and one line naming the timeout", args, code, stdout, stderr)
		}
	}
	if code, _, stderr := runCLI("-series", "put", "-max", "64", "-gbn", "-dump-on-stall", "150", "-out", filepath.Join(t.TempDir(), "x")); code != 0 {
		t.Errorf("a window of one timeout: exit %d, stderr %q", code, stderr)
	}
}

// TestLongTransfersAreNotStalls: an 8 MB message moves for far longer than
// a 400 µs window between its header and its completion, and each chunk
// it moves is progress, so a healthy series to 8 MB — ping-pong, or a
// go-back-n stream — files no stall report (it filed 213 and 108 while
// only headers, completions and events counted).
func TestLongTransfersAreNotStalls(t *testing.T) {
	for _, args := range []string{
		"-series put -pattern pingpong -dump-on-stall 400",
		"-series put -pattern stream -gbn -dump-on-stall 400",
	} {
		code, _, stderr := runCLI(append(strings.Fields(args), "-out", filepath.Join(t.TempDir(), "x"))...)
		if code != 0 || stderr != "" {
			t.Errorf("netpipe %s: exit %d with %d reports, want 0 and none; stderr starts %.200q",
				args, code, strings.Count(stderr, "failure report"), stderr)
		}
	}
}

// TestSoakReproReplays: a torus campaign's repro line is a netpipe command,
// and running it yields what the campaign's summary holds — the finish
// time, the fault ledger and the errors (none: seed 1 passes every torus
// campaign) — and a Job that delivers the campaign's message count.
func TestSoakReproReplays(t *testing.T) {
	for _, w := range []string{soak.TorusHalo, soak.TorusCollective, soak.RandTraffic, soak.HotSpot} {
		c := soak.Campaign{Workload: w, Seed: 1}
		r := soak.Run(c)
		args, ok := strings.CutPrefix(soak.ReproCommand(c, r.Schedule), "go run ./cmd/netpipe ")
		if !ok || r.Failed() {
			t.Fatalf("%s: repro %q of a campaign that failed=%v", w, args, r.Failed())
		}
		job, err := experiments.ParseJob(strings.Fields(args))
		if err != nil || job.Msgs() != r.Msgs {
			t.Errorf("%s: %q parses to a job of %d messages (%v), want %d", w, args, job.Msgs(), err, r.Msgs)
		}
		base := filepath.Join(t.TempDir(), "r")
		code, stdout, stderr := runCLI(append(strings.Fields(args), "-out", base)...)
		finish := fmt.Sprintf("finished at %.1f us simulated", float64(r.FinishPs)/1e6)
		ledger := "fault plane: " + r.Ledger.String() + "\n"
		if code != 0 || stderr != "" || !strings.Contains(stdout, finish) || !strings.Contains(stdout, ledger) {
			t.Errorf("%s: netpipe %s: exit %d, stderr %q; want 0, %q and %q in\n%s", w, args, code, stderr, finish, ledger, stdout)
		}
		// The stall window arms the recorder, whose end-of-run dump is
		// stamped with the finish to the picosecond.
		b, err := os.ReadFile(base + ".p3dump")
		if err != nil {
			t.Fatal(err)
		}
		d, err := flightrec.Decode(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if int64(d.At) != r.FinishPs {
			t.Errorf("%s: the replay's dump is stamped %d ps, want the campaign's finish %d ps", w, d.At, r.FinishPs)
		}
	}
}

// TestPanicPolicyDeadlockIsTheApplicationsFailure: a 9³ all-to-one hot spot
// without go-back-n exhausts node 5's receive pendings; the panic policy
// kills the node, and its receiver, waiting for the messages the dead node
// dropped, leaves the job blocked. That ends the run like any failed job — the one report the
// node filed, the verification errors, exit 1 — on either engine, not in a
// deadlock panic (exit 2, which means a bad command line).
func TestPanicPolicyDeadlockIsTheApplicationsFailure(t *testing.T) {
	for _, shards := range []string{"1", "3"} {
		code, stdout, stderr := runCLI("-torus", "-dim", "9", "-workload", "hotspot", "-hot", "5",
			"-hotfrac", "1.0", "-msgs", "1", "-shards", shards)
		if code != 1 || !strings.Contains(stdout, "finished at") {
			t.Errorf("shards %s: exit %d, want 1 after a finished run\nstdout: %s\nstderr: %s", shards, code, stdout, stderr)
		}
		const report = "ERROR: failure report: panic on node 5 at "
		if n := strings.Count(stderr, report); n != 1 || !strings.Contains(stderr, "resource exhaustion: rx pending pool empty") {
			t.Errorf("shards %s: %d panic reports for node 5, want 1 naming the exhausted pool:\n%s", shards, n, stderr)
		}
	}
}

// TestFigure4Golden pins the tool's stdout for the paper's latency figure;
// the simulated numbers in it are the ones testdata/golden.txt pins at the
// root, so this golden moves only with the rendering.
func TestFigure4Golden(t *testing.T) {
	code, stdout, stderr := runCLI("-fig", "4")
	if code != 0 || stderr != "" {
		t.Fatalf("netpipe -fig 4: exit %d, stderr %q", code, stderr)
	}
	const path = "testdata/fig4.golden"
	if *update {
		if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("netpipe -fig 4 differs from %s (rerun with -update after checking the change is meant):\n%s", path, stdout)
	}
}

// written lists the files under dir, relative to it.
func written(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			names = append(names, filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// checkMagic requires each named file under dir to start with its format's
// first bytes.
func checkMagic(t *testing.T, dir string, magic map[string]string) {
	t.Helper()
	for name, m := range magic {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
		} else if !bytes.HasPrefix(b, []byte(m)) {
			t.Errorf("%s starts %q, want %q", name, b[:min(len(b), 24)], m)
		}
	}
}

const (
	dumpMagic      = "P3DUMP01"
	telemetryMagic = "{\n  \"sim_time_ps\""
	hostprofMagic  = "{\n  \"kind\": \"host_profile\""
)

// TestRunModesWriteWhatTheFlagsNamed: both run modes end in one epilogue
// that writes the armed planes under -out and nothing else — a series run
// with every plane armed and a scheduled stall the detector reports (exit
// 1, the report on stderr), and a two-lane torus run.
func TestRunModesWriteWhatTheFlagsNamed(t *testing.T) {
	dir := t.TempDir()

	code, stdout, stderr := runCLI("-series", "put", "-max", "4096", "-gbn", "-stats",
		"-flightrec", "-flightrec-events", "64", "-dump-on-stall", "150", "-out", filepath.Join(dir, "dumps/x"),
		"-telemetry", "-sample", "100",
		"-schedule", "stall:1:150us:300us")
	if code != 1 || !strings.Contains(stderr, "ERROR: failure report: stall on node") {
		t.Errorf("series run: exit %d, want 1 for the reported stall\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	code, stdout, stderr = runCLI("-torus", "-dim", "3", "-shards", "2", "-steps", "1",
		"-telemetry", "-hostprof", "-out", filepath.Join(dir, "torus"))
	if code != 0 || stderr != "" {
		t.Errorf("torus run: exit %d, stderr %q\nstdout: %s", code, stderr, stdout)
	}

	want := map[string]string{
		"dumps/x.p3dump":         dumpMagic,
		"dumps/x.0.stall.p3dump": dumpMagic,
		"dumps/x.telemetry.json": telemetryMagic,
		"torus.telemetry.json":   telemetryMagic,
		"torus.hostprof.json":    hostprofMagic,
	}
	if got := written(t, dir); len(got) != len(want) {
		t.Errorf("wrote %q, want the %d files of the armed planes", got, len(want))
	}
	checkMagic(t, dir, want)
}

// TestTorusRunRecordsAndDetectsStalls: a torus run honours -flightrec,
// -flightrec-events and -dump-on-stall like a series run — a bound above
// the run's event count keeps every event, and the dump renders.
func TestTorusRunRecordsAndDetectsStalls(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI("-torus", "-dim", "3", "-workload", "halo", "-steps", "1",
		"-flightrec", "-flightrec-events", "100000000", "-dump-on-stall", "400", "-out", filepath.Join(dir, "t"))
	if code != 0 || stderr != "" {
		t.Fatalf("torus run: exit %d, stderr %q\nstdout: %s", code, stderr, stdout)
	}
	b, err := os.ReadFile(filepath.Join(dir, "t.p3dump"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := flightrec.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) != 27 || d.Dropped() != 0 {
		t.Errorf("dump holds %d nodes and lost %d events, want 27 and none", len(d.Nodes), d.Dropped())
	}
	var text bytes.Buffer
	d.RenderText(&text, 0)
	if !strings.Contains(text.String(), "timeline (") {
		t.Errorf("the dump renders no timeline:\n%.400s", text.String())
	}
}

// TestSweepArmsWriteUnderTheirLoad: each sweep arm ends in the epilogue and
// writes what the flags armed under BASE.load<L> — its own telemetry,
// host profile and dump, none merged — and only that: the telemetry every
// arm records for its curves is written only with -telemetry.
func TestSweepArmsWriteUnderTheirLoad(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runCLI("-workload", "sweep", "-dim", "3", "-msgs", "2", "-loads", "0.5,1",
		"-telemetry", "-hostprof", "-flightrec", "-out", filepath.Join(dir, "x"))
	if code != 0 || stderr != "" {
		t.Fatalf("sweep run: exit %d, stderr %q\nstdout: %s", code, stderr, stdout)
	}
	want := map[string]string{}
	for _, load := range []string{"0.50", "1.00"} {
		want["x.load"+load+".telemetry.json"] = telemetryMagic
		want["x.load"+load+".hostprof.json"] = hostprofMagic
		want["x.load"+load+".p3dump"] = dumpMagic
	}
	if got := written(t, dir); len(got) != len(want) {
		t.Errorf("wrote %q, want the %d files of the armed planes", got, len(want))
	}
	checkMagic(t, dir, want)

	quiet := t.TempDir()
	if code, stdout, stderr := runCLI("-workload", "sweep", "-dim", "3", "-msgs", "2", "-loads", "1",
		"-out", filepath.Join(quiet, "x")); code != 0 || stderr != "" {
		t.Fatalf("unobserved sweep: exit %d, stderr %q\nstdout: %s", code, stderr, stdout)
	}
	if got := written(t, quiet); len(got) != 0 {
		t.Errorf("a sweep with no plane armed wrote %q", got)
	}
}

// TestStallReportsCostBoundedMemory: a stall window far below a put's round
// trip trips, clears and trips again on both nodes of the pair for the
// whole series — 17,059 reports. Only each node's first report carries a
// dump (the run's first holds both rings), so the run writes three dumps,
// those two and the end-of-run one, and its heap stays under 100 MB (a full
// pair of rings per report took it past 2.9 GB; a dump per report wrote
// 17,060 files, 68 MB).
func TestStallReportsCostBoundedMemory(t *testing.T) {
	dir := t.TempDir()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	code, _, stderr := runCLI("-series", "put", "-max", "1024", "-dump-on-stall", "2", "-out", filepath.Join(dir, "x"))
	runtime.ReadMemStats(&after)
	if n := strings.Count(stderr, "ERROR: failure report: stall on node"); code != 1 || n < 10_000 {
		t.Fatalf("exit %d with %d stall reports, want 1 and the detector tripping all series long", code, n)
	}
	// Signed: the runtime may return more memory during the run than it
	// takes, and an unsigned difference would then wrap.
	grew := int64(after.HeapSys) - int64(before.HeapSys)
	t.Logf("heap grew by %.1f MB", float64(grew)/(1<<20))
	if grew > 100<<20 {
		t.Errorf("the heap grew by %.1f MB, want at most 100", float64(grew)/(1<<20))
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "*.p3dump"))
	if err != nil || len(dumps) != 3 {
		t.Errorf("wrote %d dumps (%v), want 3: each node's first report's and the end-of-run one", len(dumps), err)
	}
}
