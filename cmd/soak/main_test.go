package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI runs the tool in-process.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFlagValidation: a command line that cannot run exits 2 before any
// campaign starts, with nothing on stdout and exactly one attributed line
// on stderr.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // substring of the diagnostic
	}{
		{"-workload no-such-workload", "unknown workload"},
		{"-shards 1,zero", "-shards"},
		{"-shards 0", "-shards"},
		{"-seeds 0", "-seeds 0"},
		{"-seeds -3", "-seeds -3"},
		{"-entries -2", "-entries -2"},
		{"-entries 0", "-entries 0 must be at least 1"},
	} {
		code, stdout, stderr := runCLI(strings.Fields(tc.args)...)
		if code != 2 || stdout != "" {
			t.Errorf("soak %s: exit %d, stdout %q; want 2 and nothing", tc.args, code, stdout)
		}
		if !strings.HasPrefix(stderr, "soak: ") || strings.Count(stderr, "\n") != 1 || !strings.HasSuffix(stderr, "\n") {
			t.Errorf("soak %s: stderr is not one attributed line: %q", tc.args, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("soak %s: stderr %q does not mention %q", tc.args, stderr, tc.want)
		}
	}
}

// TestPlantedFailureLeavesItsArtifacts: a campaign with a planted ledger
// corruption must fail (exit 1), bisect to the planted entry, and leave the
// minimal schedule plus what the failing run recorded — both dumps, and
// with -hostprof every arm's profile — under -artifacts (made on demand);
// the printed repro, a netpipe command, must fail the same way; a passing
// campaign writes only the profiles.
func TestPlantedFailureLeavesItsArtifacts(t *testing.T) {
	dir := t.TempDir()
	artifacts := filepath.Join(dir, "made", "on", "demand")
	code, stdout, stderr := runCLI("-workload", "rand-traffic", "-seeds", "1", "-shards", "1,2", "-plant",
		"-hostprof", "-artifacts", artifacts)
	if code != 1 {
		t.Fatalf("planted campaign: exit %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "minimal schedule: corrupt:2:300us\n") {
		t.Errorf("bisection did not isolate the planted entry:\n%s", stdout)
	}
	got, err := filepath.Glob(filepath.Join(artifacts, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = filepath.Base(got[i])
	}
	want := []string{
		"rand-traffic-seed1-shards1.hostprof.json",
		"rand-traffic-seed1-shards2.hostprof.json",
		"rand-traffic-seed1.0.ledger.p3dump",
		"rand-traffic-seed1.hostprof.json",
		"rand-traffic-seed1.minimal.schedule",
		"rand-traffic-seed1.p3dump",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("artifacts:\n got %v\nwant %v", got, want)
	}
	for _, name := range want {
		if !strings.Contains(stdout, filepath.Join(artifacts, name)) {
			t.Errorf("stdout never names %s", name)
		}
	}

	// The bisector's repro line is a netpipe command; run it and require
	// exit 1 with the ledger's failure report.
	_, repro, ok := strings.Cut(stdout, "repro: go run ./cmd/netpipe ")
	if !ok {
		t.Fatalf("no netpipe repro line:\n%s", stdout)
	}
	repro, _, _ = strings.Cut(repro, "\n")
	bin := filepath.Join(dir, "netpipe")
	build := exec.Command("go", "build", "-o", bin, "./cmd/netpipe")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/netpipe: %v\n%s", err, out)
	}
	var npErr bytes.Buffer
	np := exec.Command(bin, append(strings.Fields(repro), "-out", filepath.Join(dir, "r"))...)
	np.Stderr = &npErr
	var exit *exec.ExitError
	if err := np.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 ||
		!strings.Contains(npErr.String(), "ERROR: failure report: ledger at ") {
		t.Errorf("netpipe %s: %v, want exit 1 and the ledger report\nstderr: %s", repro, exit, npErr.String())
	}

	code, stdout, stderr = runCLI("-workload", "rand-traffic", "-seeds", "1", "-shards", "1,2", "-artifacts", filepath.Join(dir, "clean"))
	if code != 0 || stderr != "" || !strings.Contains(stdout, "soak: 1 campaigns passed") {
		t.Errorf("clean campaign: exit %d, stderr %q\n%s", code, stderr, stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "clean")); !os.IsNotExist(err) {
		t.Errorf("a passing campaign without -hostprof wrote artifacts (%v)", err)
	}
}
