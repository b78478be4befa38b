package main

import (
	"bytes"
	"os"
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
		{"-schedule corrupt:2:300us", "-schedule requires -workload"},
		{"-workload gbn-stream -schedule teleport:2:300us", "unknown kind"},
		{"-workload gbn-stream -schedule corrupt:9:300us", "node 9 outside"},
		{"-workload gbn-stream -schedule linkdown:0:Y+:100us:50us", "no Y+ link"},
		{"-workload no-such-workload", "unknown workload"},
		{"-shards 1,zero", "-shards"},
		{"-shards 0", "-shards"},
		{"-seeds 0", "-seeds 0"},
		{"-seeds -3", "-seeds -3"},
		{"-entries -2", "-entries -2"},
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
// with -hostprof every arm's profile — under -artifacts; a passing campaign
// writes only the profiles, and -out creates its directory.
func TestPlantedFailureLeavesItsArtifacts(t *testing.T) {
	dir := t.TempDir()
	artifacts := filepath.Join(dir, "made", "on", "demand")
	code, stdout, stderr := runCLI("-workload", "gbn-stream", "-short", "-shards", "1,2", "-plant",
		"-hostprof", "-artifacts", artifacts, "-out", filepath.Join(artifacts, "trend.json"))
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
		"gbn-stream-seed1-shards1.hostprof.json",
		"gbn-stream-seed1-shards2.hostprof.json",
		"gbn-stream-seed1.0.ledger.p3dump",
		"gbn-stream-seed1.hostprof.json",
		"gbn-stream-seed1.minimal.schedule",
		"gbn-stream-seed1.p3dump",
		"trend.json",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("artifacts:\n got %v\nwant %v", got, want)
	}
	for _, name := range want[:len(want)-1] {
		if !strings.Contains(stdout, filepath.Join(artifacts, name)) {
			t.Errorf("stdout never names %s", name)
		}
	}

	// The bisector's repro command is replay mode; it must fail the same way.
	code, stdout, _ = runCLI("-workload", "gbn-stream", "-shards", "1", "-schedule", "corrupt:2:300us",
		"-artifacts", filepath.Join(dir, "replay"))
	if code != 1 || !strings.Contains(stdout, "status=FAIL") {
		t.Errorf("replay of the minimal schedule: exit %d\n%s", code, stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "replay", "gbn-stream-replay-shards1.0.ledger.p3dump")); err != nil {
		t.Errorf("replay left no report dump: %v", err)
	}

	code, stdout, stderr = runCLI("-workload", "gbn-stream", "-short", "-shards", "1,2", "-artifacts", filepath.Join(dir, "clean"))
	if code != 0 || stderr != "" || !strings.Contains(stdout, "soak: 1 campaigns passed") {
		t.Errorf("clean campaign: exit %d, stderr %q\n%s", code, stderr, stdout)
	}
	if _, err := os.Stat(filepath.Join(dir, "clean")); !os.IsNotExist(err) {
		t.Errorf("a passing campaign without -hostprof wrote artifacts (%v)", err)
	}
}
