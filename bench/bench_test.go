package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"portals3/internal/machine"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v; want 1, 4", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n   int
		pct float64
		val float64
	}{
		{50, 0, 0},            // p90 leaves only 5 beyond
		{100, 90, 90},         // p95 leaves 5, p90 leaves 10
		{200, 95, 190},        // p99 leaves 2, p95 leaves 10
		{1000, 99, 990},       // p99.9 leaves 1
		{10000, 99.9, 9990},   // ten beyond p99.9
		{27, 0, 0},            // a 15 s run of a 0.4 s job
		{101, 90, 91},         // ceil(90.9) = 91, ten beyond
		{99, 0, 0},            // ceil(89.1) = 90 leaves 9
		{1001, 99, 991},       // ceil(990.99)
		{100000, 99.9, 99900}, // plenty
	} {
		pct, val := tailPercentile(seq(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("n=%d: got p%v=%v, want p%v=%v", c.n, pct, val, c.pct, c.val)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range concat(endToEnd, perLayer) {
		if !nameRE.MatchString(s.name) {
			t.Errorf("metric name %q is malformed", s.name)
		}
		if !unitRE.MatchString(s.unit) {
			t.Errorf("metric %s: unit %q is malformed", s.name, s.unit)
		}
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("metric %s: better = %q", s.name, s.better)
		}
		if seen[s.name] {
			t.Errorf("metric %s listed twice", s.name)
		}
		seen[s.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type (
	benchWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	benchMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"` // end-to-end only
	}
	benchmarkFile struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []benchWorkload `json:"workloads"`
		EndToEnd   []benchMetric   `json:"end_to_end"`
		PerLayer   []benchMetric   `json:"per_layer"`
	}
)

// wantBenchmarkFile is BENCHMARK.json as the tables in this package define it.
func wantBenchmarkFile() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"go", "run", "-C", "bench", "portals3/bench"},
		Paths:      []string{"bench"},
		RunSeconds: 15,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, benchWorkload{w.name, w.why})
	}
	for _, s := range endToEnd {
		bound := s.bound
		b.EndToEnd = append(b.EndToEnd, benchMetric{s.name, s.unit, s.better, &bound})
	}
	for _, s := range perLayer {
		b.PerLayer = append(b.PerLayer, benchMetric{s.name, s.unit, s.better, nil})
	}
	return b
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	want := wantBenchmarkFile()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		text, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the metric and workload tables; the tables say:\n%s", text)
	}
	if len(want.Workloads) != 5 || len(want.PerLayer) > 128 || len(want.EndToEnd) > 16 || len(raw) > 64<<10 {
		t.Errorf("benchmark outside the contract: %d workloads, %d per-layer, %d end-to-end, %d bytes",
			len(want.Workloads), len(want.PerLayer), len(want.EndToEnd), len(raw))
	}
}

// resultLine decodes the last line a single-workload run prints.
func resultLine(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]float64) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	metrics = map[string]float64{}
	for k, v := range r.Metrics {
		metrics[k] = v.Value
	}
	return r.Correct, r.Attempted, r.Failed, metrics
}

func wantNames(t *testing.T, got map[string]float64, specs []metricSpec) {
	t.Helper()
	want := map[string]bool{}
	for _, s := range specs {
		want[s.name] = true
		if _, ok := got[s.name]; !ok {
			t.Errorf("metric %s is listed but was not emitted", s.name)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("metric %s was emitted but is not listed", k)
		}
	}
}

// TestSmoke runs every workload once at its tiny shape, then the 512-node
// reference halo, whose simulated result is committed in
// BENCH_substrate.json.
func TestSmoke(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-smoke", "-trace", "0", "-out", t.TempDir()}, &out, &errs); code != 0 {
		t.Fatalf("smoke run exited %d\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), "ok   reference halo: 512 nodes, 2 steps, 144.0 us, 309 windows") {
		t.Errorf("reference halo not confirmed:\n%s", out.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "# workload="+w.name+" ") {
			t.Errorf("smoke run skipped %s", w.name)
		}
	}
}

func TestEndToEndRunEmitsExactlyTheListedMetrics(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-smoke", "--workload", "halo_512", "--seed", "7", "--trace", "0", "-out", t.TempDir()}, &out, &errs); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errs.String())
	}
	correct, attempted, failed, m := resultLine(t, out.String())
	if !correct || attempted < 1 || failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", correct, attempted, failed)
	}
	wantNames(t, m, endToEnd)
	for k, v := range m {
		if v <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", k, v)
		}
	}
}

func TestTracedRunEmitsExactlyTheListedMetrics(t *testing.T) {
	dir := t.TempDir()
	var out, errs bytes.Buffer
	if code := run([]string{"-smoke", "--workload", "uniform_lossy_512", "--trace", "1", "-out", dir}, &out, &errs); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errs.String())
	}
	correct, _, failed, m := resultLine(t, out.String())
	if !correct || failed != 0 {
		t.Errorf("correct=%v failed=%d", correct, failed)
	}
	wantNames(t, m, perLayer)
	sum := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, "cpu.") {
			sum += v
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu shares sum to %v, want 1", sum)
	}
	if m["fabric.faults_injected"] == 0 || m["fabric.faults_injected"] != m["fabric.faults_recovered"]+m["fabric.faults_condemned"] {
		t.Errorf("lossy workload: faults injected %v, recovered %v, condemned %v",
			m["fabric.faults_injected"], m["fabric.faults_recovered"], m["fabric.faults_condemned"])
	}
	if m["fw.tx_per_msg"] <= 1 {
		t.Errorf("lossy workload: fw.tx_per_msg = %v, want retransmit amplification above 1", m["fw.tx_per_msg"])
	}
	if _, err := os.Stat(dir + "/uniform_lossy_512.trace.json"); err != nil {
		t.Errorf("span file: %v", err)
	}
}

// TestPlantedDigestMismatch: an iteration whose simulated output differs
// from iteration 0 must show in fail_share and in the exit code.
func TestPlantedDigestMismatch(t *testing.T) {
	calls := 0
	workloads = append(workloads, workload{
		name: "planted", why: "test", iters: 4, setupReps: 1,
		run: func(uint64, bool, *tracer) jobOut {
			calls++
			o := jobOut{msgs: 1, payload: 1, finishPs: 1, digest: []byte("same")}
			if calls == 3 {
				o.digest = []byte("different")
			}
			return o
		},
		build: func(uint64, bool) *machine.Machine { return buildPair(0, false) },
	})
	defer func() { workloads = workloads[:len(workloads)-1] }()

	var out, errs bytes.Buffer
	code := run([]string{"--workload", "planted", "--trace", "0", "-out", t.TempDir()}, &out, &errs)
	if code == 0 {
		t.Errorf("exit code 0 despite a digest mismatch")
	}
	correct, attempted, failed, _ := resultLine(t, out.String())
	if correct || failed != 1 || attempted != 5 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false, 5, 1", correct, attempted, failed)
	}
	if !strings.Contains(out.String(), "simulated output differs from iteration 0") {
		t.Errorf("mismatch not reported:\n%s", out.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	rows := func(walls ...float64) []ledgerRow {
		var out []ledgerRow
		for _, w := range walls {
			out = append(out, ledgerRow{Workloads: map[string]map[string]float64{
				"halo_512": {"job_wall_s": w, "allocs_per_job": 1000, "sim_finish_us": 529.4},
			}})
		}
		return out
	}
	var out bytes.Buffer
	if code := compareRows(rows(1.00, 1.02, 0.98), rows(1.05, 1.03, 1.06), &out); code != 0 {
		t.Errorf("5%% slower is inside the %v bound, got exit %d\n%s", endToEnd[0].bound, code, out.String())
	}
	out.Reset()
	if code := compareRows(rows(1.00, 1.02, 0.98), rows(1.50, 1.52, 1.49), &out); code != 1 || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("50%% slower must regress, got exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRows(rows(1.0, 1.6, 0.7, 1.3), rows(1.5, 2.2, 0.9, 1.9), &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must be unresolved, got exit %d\n%s", code, out.String())
	}
	out.Reset()
	worse := rows(1.0)
	worse[0].Workloads["halo_512"]["sim_finish_us"] = 529.5
	if code := compareRows(rows(1.0), worse, &out); code != 1 {
		t.Errorf("a moved simulated result must regress, got exit %d\n%s", code, out.String())
	}
}
