// Host-cost contracts (DESIGN.md §7): allocation counts of the Benchmark*
// bodies in bench_test.go, asserted on every `go test ./...` as exact counts,
// on-versus-off differences, arm-versus-arm bounds and long-minus-short-run
// marginals — never job totals, which set-up dominates. Wall-clock is bench/'s.
package portals3

import "testing"

// allocsPerOp is a benchmark's allocs/op as `go test -bench -benchmem`
// reports it at the default -benchtime, lane goroutines included.
func allocsPerOp(t *testing.T, bench func(*testing.B)) int64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; the plain run asserts the contracts")
	}
	r := testing.Benchmark(bench)
	if r.N == 0 {
		t.Fatal("benchmark failed")
	}
	return r.AllocsPerOp()
}

func TestContractSimAllocatesNothingPerEvent(t *testing.T) {
	for name, bench := range map[string]func(*testing.B){
		"timed event":      BenchmarkSimulatorEventThroughput,
		"zero-delay event": BenchmarkSimulatorZeroDelayLane,
		"deep-heap event":  BenchmarkSimulatorEventThroughputDeep,
		"Proc switch":      BenchmarkProcSwitch,
	} {
		if got := allocsPerOp(t, bench); got != 0 {
			t.Errorf("%s: %d allocs/op, want 0", name, got)
		}
	}
}

func TestContractPutAllocatesTwoAndObserversAddNone(t *testing.T) {
	off := allocsPerOp(t, BenchmarkSimulatedPut)
	if off != 2 {
		t.Errorf("simulated put: %d allocs/msg, want 2", off)
	}
	for name, bench := range map[string]func(*testing.B){
		"telemetry + sampler":              BenchmarkPingPongTelemetryOn,
		"flight recorder + stall detector": BenchmarkPingPongFlightRecOn,
	} {
		if on := allocsPerOp(t, bench); on != off {
			t.Errorf("%s: %d allocs/msg against %d without, want none added", name, on, off)
		}
	}
}

func TestContractHaloArms(t *testing.T) {
	seq := allocsPerOp(t, BenchmarkTorusHaloSeq)
	par := allocsPerOp(t, BenchmarkTorusHaloShard4)
	if d := par - seq; d > seq/20 || -d > seq/20 {
		t.Errorf("4-lane halo: %d allocs/job, more than 5%% from 1 lane's %d", par, seq)
	}
	// Every observer but tracing adds registration (3072 link meters) plus the
	// end-of-run merge and export: fixed, 589k measured. One per event is millions.
	if added := allocsPerOp(t, BenchmarkTorusHaloShard4SamplerOn) - par; added > 650_000 {
		t.Errorf("observed halo: %d allocs/job above the bare arm's %d, want at most 650000", added, par)
	}
}

// TestContractWorkloadMarginals pins what one more collective rank-step and
// one more message per hot-spot sender allocate on 512 nodes, (long − short
// run) / extra work: lane scheduling moves it 0.01, one alloc per message 5 %.
func TestContractWorkloadMarginals(t *testing.T) {
	marginal := func(name string, bench func(*testing.B, int), short, long int, want float64) {
		a := allocsPerOp(t, func(b *testing.B) { bench(b, short) })
		z := allocsPerOp(t, func(b *testing.B) { bench(b, long) })
		got := float64(z-a) / float64((long-short)*512)
		if got < 0.98*want || got > 1.02*want {
			t.Errorf("%s: %.2f allocs (runs of %d: %d, of %d: %d), want %.2f ± 2 %%",
				name, got, short, a, long, z, want)
		}
	}
	marginal("collective rank-step", benchTorusCollective, 2, 6, 11.34)
	marginal("hot-spot message", benchHotSpot, 8, 24, 19.04)
}
