package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"portals3/internal/experiments"
	"portals3/internal/flightrec"
	"portals3/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// runCLI runs the tool in-process.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// firstSpan is node 0's first causal span on a sharded machine (node-scoped
// span ids: node+1 in the high word, a counter from 1 in the low).
const firstSpan = 1<<32 | 1

// writeArtifacts runs a 27-node halo step with every plane armed and writes
// what the machine recorded, plus two derived files: small.p3dump (the
// end-of-run dump cut to node 0's first two messages, every hop of them on
// every node, so the full-report golden stays readable) and the host profile with its host-side values pinned, in
// both JSON key orders (kind first as written, kind last as a re-serialising
// tool would leave it).
func writeArtifacts(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	r := experiments.TorusHalo(experiments.TorusConfig{
		Dim: 3, Bytes: 64, Steps: 1, Radius: 1, Shards: 2,
		Telemetry: true, FlightRec: flightrec.DefaultRingEvents, HostProf: true,
		SamplePeriod: 50 * sim.Microsecond,
	})
	if len(r.Errors) > 0 {
		t.Fatalf("halo run failed: %v", r.Errors)
	}
	if _, err := r.Artifacts.WriteFiles(dir, "run"); err != nil {
		t.Fatal(err)
	}

	d, err := flightrec.Decode(bytes.NewReader(r.Artifacts.Dump))
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Nodes {
		var kept []flightrec.Event
		for _, e := range d.Nodes[i].Events {
			if s := e.SpanID(); s == firstSpan || s == firstSpan+1 {
				kept = append(kept, e)
			}
		}
		d.Nodes[i].Events = kept
	}
	write(t, filepath.Join(dir, "small.p3dump"), d.Bytes())

	// The committed hot-spot evidence (testdata/hotspot-gbn-node5.txt).
	ev, err := os.ReadFile(filepath.Join("testdata", "hotspot-gbn-node5.p3dump"))
	if err != nil {
		t.Fatal(err)
	}
	write(t, filepath.Join(dir, "hotspot.p3dump"), ev)

	hp := *r.HostProfile
	hp.RunWallNs, hp.WallNs, hp.ExecNs, hp.DrainNs = 21_000_000, 20_000_000, 15_000_000, 5_000_000
	hp.Parks, hp.InlineWindows = 3, 7
	hp.MeanImbalancePct, hp.MaxImbalancePct = 12.5, 80
	hp.MemSamples, hp.HeapInuseHigh, hp.HeapAllocHigh, hp.SysHigh, hp.NumGC = 4, 12<<20, 10<<20, 20<<20, 2
	for i := range hp.Lanes {
		hp.Lanes[i].BusyNs, hp.Lanes[i].WaitNs = int64(3+i)*1_000_000, int64(9-i)*1_000_000
		hp.Lanes[i].StragglerWindows = uint64(40 + 60*i)
	}
	kindFirst, err := hp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	const kindLine = "  \"kind\": \"host_profile\",\n"
	if !bytes.Contains(kindFirst, []byte(kindLine)) {
		t.Fatalf("host profile JSON has no kind line:\n%s", kindFirst)
	}
	kindLast := bytes.Replace(kindFirst, []byte(kindLine), nil, 1)
	kindLast = append(bytes.TrimSuffix(kindLast, []byte("\n}\n")), ",\n  \"kind\": \"host_profile\"\n}\n"...)
	write(t, filepath.Join(dir, "kind-first", "h.json"), kindFirst)
	write(t, filepath.Join(dir, "kind-last", "h.json"), kindLast)
	return dir
}

func write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenRenderings: given only a path, p3stat renders each of the three
// artifact kinds, the three dump views, and the hot-spot evidence, as
// recorded in testdata. The *-trace goldens hold only the report's activity
// section of an uncapped dump (-top 0): the busy time per track and handler
// over the whole run, which the dump report's timeline would bury. The
// simulated artifacts are deterministic, so the goldens move only when a
// renderer or a simulated result does.
func TestGoldenRenderings(t *testing.T) {
	dir := writeArtifacts(t)
	for _, tc := range []struct {
		golden   string
		args     []string
		activity bool // compare only the dump report's activity section
	}{
		{"telemetry", []string{"run.telemetry.json"}, false},
		{"trace", []string{"-top", "0", "run.p3dump"}, true},
		{"hostprof", []string{"kind-first/h.json"}, false},
		{"hostprof", []string{"kind-last/h.json"}, false},
		{"dump", []string{"small.p3dump"}, false},
		{"dump-spans", []string{"-spans", "small.p3dump"}, false},
		{"dump-span", []string{"-span", strconv.Itoa(firstSpan), "small.p3dump"}, false},
		{"hotspot-gbn-node5", []string{"hotspot.p3dump"}, false},
		{"hotspot-gbn-node5-trace", []string{"-top", "0", "hotspot.p3dump"}, true},
	} {
		args := append([]string(nil), tc.args...)
		last := len(args) - 1
		prefix := filepath.Join(dir, filepath.Dir(args[last])) + string(filepath.Separator)
		args[last] = filepath.Join(dir, args[last])
		code, stdout, stderr := runCLI(args...)
		if code != 0 || stderr != "" {
			t.Errorf("p3stat %v: exit %d, stderr %q", tc.args, code, stderr)
			continue
		}
		got := strings.ReplaceAll(stdout, prefix, "")
		if tc.activity {
			from, to := strings.Index(got, "activity horizon"), strings.Index(got, "\ntimeline (")
			if from < 0 || to < from {
				t.Errorf("p3stat %v: no activity section before the timeline:\n%.2000s", tc.args, got)
				continue
			}
			got = got[from:to]
		}
		path := filepath.Join("testdata", tc.golden+".golden")
		if *update {
			write(t, path, []byte(got))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("p3stat %v differs from %s (rerun with -update after checking the change is meant):\n%s",
				tc.args, path, got)
		}
	}
}

// TestEveryWrittenFileRenders: whatever WriteFiles wrote, p3stat reads —
// the full-size dump included — and the -chrome view of a dump is a
// non-empty Chrome trace-event array.
func TestEveryWrittenFileRenders(t *testing.T) {
	dir := writeArtifacts(t)
	chrome := filepath.Join(dir, "dump-as-trace.json")
	if code, _, stderr := runCLI("-chrome", chrome, filepath.Join(dir, "run.p3dump")); code != 0 {
		t.Fatalf("-chrome: exit %d, stderr %q", code, stderr)
	}
	b, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil || len(events) == 0 {
		t.Errorf("-chrome wrote %d bytes that are not a non-empty JSON array (%d events): %v", len(b), len(events), err)
	}
	for _, name := range []string{"run.telemetry.json", "run.p3dump", "run.hostprof.json"} {
		code, stdout, stderr := runCLI("-top", "0", filepath.Join(dir, name))
		if code != 0 || stderr != "" || len(stdout) < 100 {
			t.Errorf("%s: exit %d, %d bytes of output, stderr %q", name, code, len(stdout), stderr)
		}
	}
}

// TestBadInput: a bad command line exits 2, an unreadable or unrecognizable
// artifact exits 1; either way nothing on stdout, no panic, and exactly one
// line on stderr that names the tool and the file.
func TestBadInput(t *testing.T) {
	dir := writeArtifacts(t)
	dump, err := os.ReadFile(filepath.Join(dir, "small.p3dump"))
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{
		"empty":           "",
		"text":            "hello, world\n",
		"half-object":     `{"kind": `,
		"trace-array":     `[{"name": "rx-header", "ph": "X", "ts": 1, "dur": 2}]`,
		"scalar":          "42\n",
		"truncated.p3d":   string(dump[:len(dump)/2]),
		"lying.p3d":       string(dump[:48+len("end of run")+len("snapshot")-8]) + strings.Repeat("\xff", 8),
		"profile-as-list": `{"kind": "host_profile", "lanes": 3}`,
	} {
		write(t, filepath.Join(dir, "bad", name), []byte(content))
	}
	bad := func(name string) string { return filepath.Join(dir, "bad", name) }
	for _, tc := range []struct {
		args []string
		code int
		want string // substring of the diagnostic
	}{
		{nil, 2, "no artifact given"},
		{[]string{filepath.Join(dir, "no-such-file")}, 1, "no such file"},
		{[]string{dir}, 1, "is a directory"},
		{[]string{bad("empty")}, 1, "not an artifact"},
		{[]string{bad("text")}, 1, "not an artifact"},
		{[]string{bad("scalar")}, 1, "not an artifact"},
		{[]string{bad("half-object")}, 1, "unexpected end of JSON"},
		{[]string{bad("trace-array")}, 1, "not an artifact"},
		{[]string{"-top", "-1", filepath.Join(dir, "small.p3dump")}, 2, "-top -1"},
		{[]string{bad("profile-as-list")}, 1, "lanes"},
		{[]string{bad("truncated.p3d")}, 1, "truncated dump"},
		{[]string{bad("lying.p3d")}, 1, "implausible node count"},
		{[]string{"-span", "3", filepath.Join(dir, "run.telemetry.json")}, 1, "not one"},
		{[]string{"-spans", filepath.Join(dir, "kind-last", "h.json")}, 1, "not one"},
		{[]string{filepath.Join(dir, "small.p3dump"), bad("text")}, 1, bad("text")},
	} {
		code, stdout, stderr := runCLI(tc.args...)
		if len(tc.args) < 2 && stdout != "" {
			t.Errorf("p3stat %v: printed %q before failing", tc.args, stdout)
		}
		if code != tc.code {
			t.Errorf("p3stat %v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr)
		}
		if !strings.HasPrefix(stderr, "p3stat: ") || strings.Count(stderr, "\n") != 1 || !strings.HasSuffix(stderr, "\n") {
			t.Errorf("p3stat %v: stderr is not one attributed line: %q", tc.args, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("p3stat %v: stderr %q does not mention %q", tc.args, stderr, tc.want)
		}
	}
}
