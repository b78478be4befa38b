// Host-cost contracts (DESIGN.md §7): allocation counts of the Benchmark*
// bodies in bench_test.go, asserted on every `go test ./...` as exact counts,
// on-versus-off differences, arm-versus-arm bounds and long-minus-short-run
// marginals — never job totals, which set-up dominates. Wall-clock is bench/'s.
package portals3

import (
	"flag"
	"fmt"
	"runtime"
	"testing"

	"portals3/internal/model"
)

// Iteration counts. An allocation count is exact long before a timing is, so
// nothing here runs for testing.Benchmark's default second: a job-sized body
// runs twice (after testing.Benchmark's own one-iteration trial, which takes
// the ~500 allocations the first multi-lane job in a process pays once), and
// a per-event or per-message body often enough that its fixed set-up (a
// machine is some hundreds of allocations) rounds away.
const (
	perJob     = 2
	perMessage = 20_000
	perEvent   = 100_000
)

// allocsPerOp is a benchmark's allocs/op as `go test -bench -benchmem
// -benchtime=<n>x` reports it, lane goroutines included.
func allocsPerOp(t *testing.T, n int, bench func(*testing.B)) int64 {
	t.Helper()
	return benchmark(t, n, bench).AllocsPerOp()
}

// benchmark runs bench for exactly n iterations and returns its result.
func benchmark(t *testing.T, n int, bench func(*testing.B)) testing.BenchmarkResult {
	t.Helper()
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; the plain run asserts the contracts")
	}
	benchtime := flag.Lookup("test.benchtime")
	defer flag.Set(benchtime.Name, benchtime.Value.String())
	flag.Set(benchtime.Name, fmt.Sprint(n, "x"))
	r := testing.Benchmark(bench)
	if r.N != n {
		t.Fatalf("benchmark ran %d iterations, want %d: it failed", r.N, n)
	}
	return r
}

func TestContractSimAllocatesNothingPerEvent(t *testing.T) {
	for name, bench := range map[string]func(*testing.B){
		"timed event":       BenchmarkSimulatorEventThroughput,
		"zero-delay event":  BenchmarkSimulatorZeroDelayLane,
		"deep-queue event":  BenchmarkSimulatorEventThroughputDeep,
		"lane-shaped event": BenchmarkSimulatorEventThroughputLane,
		"Proc switch":       BenchmarkProcSwitch,
		"in-place Sleep":    BenchmarkSleepInPlace,
	} {
		if got := allocsPerOp(t, perEvent, bench); got != 0 {
			t.Errorf("%s: %d allocs/op, want 0", name, got)
		}
	}
}

func TestContractPutAllocatesNothingAndObserversAddNone(t *testing.T) {
	off := allocsPerOp(t, perMessage, BenchmarkSimulatedPut)
	if off != 0 {
		t.Errorf("simulated put: %d allocs/msg, want 0", off)
	}
	for name, bench := range map[string]func(*testing.B){
		"telemetry + sampler":              BenchmarkPingPongTelemetryOn,
		"flight recorder + stall detector": BenchmarkPingPongFlightRecOn,
		"tracing":                          BenchmarkPingPongTracingOn,
	} {
		if on := allocsPerOp(t, perMessage, bench); on != off {
			t.Errorf("%s: %d allocs/msg against %d without, want none added", name, on, off)
		}
	}
}

// TestContractMPIMessageAllocatesNothing: an MPI round allocates nothing,
// bytes included — a descriptor's region lives in the library's MD table
// alone, so the auto-unlinked receive descriptor of every message leaves
// nothing behind (a map beside the table grew 23 B per round). The byte
// bound leaves room for the machine's set-up spread over the rounds.
func TestContractMPIMessageAllocatesNothing(t *testing.T) {
	r := benchmark(t, perMessage, BenchmarkSimulatedMPI)
	if r.AllocsPerOp() != 0 || r.AllocedBytesPerOp() > 2 {
		t.Errorf("simulated MPI round: %d allocs and %d B per round, want 0 and at most 2",
			r.AllocsPerOp(), r.AllocedBytesPerOp())
	}
}

func TestContractHaloArms(t *testing.T) {
	seq := allocsPerOp(t, perJob, BenchmarkTorusHaloSeq)
	par := allocsPerOp(t, perJob, BenchmarkTorusHaloShard4)
	if d := par - seq; d > seq/20 || -d > seq/20 {
		t.Errorf("4-lane halo: %d allocs/job, more than 5%% from 1 lane's %d", par, seq)
	}
	// Every observer but tracing adds registration (3072 link meters) plus the
	// end-of-run merge and export: fixed, 589k measured. One per event is
	// millions. Tracing records as the flight recorder does, but rendering
	// its timeline allocates per record, so the arm leaves it out.
	if added := allocsPerOp(t, perJob, BenchmarkTorusHaloShard4SamplerOn) - par; added > 650_000 {
		t.Errorf("observed halo: %d allocs/job above the bare arm's %d, want at most 650000", added, par)
	}
}

// TestContractWorkloadMarginals pins what one more collective rank-step, one
// more message per hot-spot sender and one more message per sender under loss
// and go-back-n recovery allocate on 512 nodes, (long − short run) / extra
// work: lane scheduling moves it 0.01, one alloc per message 5 %. A message
// that waits costs queue entries and what lives as long as it does (its
// requests, pendings and source structures, each pool growing one at a time),
// never a carrier or a closure per stage: each pin has a ceiling it may only
// be re-based under (DESIGN.md §7, rows 9, 10 and 16).
func TestContractWorkloadMarginals(t *testing.T) {
	marginal := func(name string, bench func(*testing.B, int), short, long int, want, ceiling float64) {
		if want > ceiling {
			t.Errorf("%s: pinned at %.2f allocs, above its ceiling of %.2f: a re-base may only go down", name, want, ceiling)
		}
		a := allocsPerOp(t, perJob, func(b *testing.B) { bench(b, short) })
		z := allocsPerOp(t, perJob, func(b *testing.B) { bench(b, long) })
		got := float64(z-a) / float64((long-short)*512)
		if got < 0.98*want || got > 1.02*want {
			t.Errorf("%s: %.2f allocs (runs of %d: %d, of %d: %d), want %.2f ± 2 %%",
				name, got, short, a, long, z, want)
		}
	}
	marginal("collective rank-step", benchTorusCollective, 2, 6, 2.24, 4.40)
	marginal("hot-spot message", benchHotSpot, 8, 24, 7.59, 13)
	marginal("lossy message", benchUniformLossy, 8, 24, 7.47, 11)
}

// TestContractBytesPerRank pins what one MPI rank of a machine-scale job
// costs the host while the job runs: the heap high-water of the 4,096-rank
// collective (16×16×16, 2 lanes), divided by its ranks. 17 KB measured; with
// the sinks and the event-queue ring of every rank backed whole, written or
// not, it is 147 KB.
func TestContractBytesPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime shadows the heap; the plain run asserts the contract")
	}
	heap, ranks := collectiveHeap(t, 16)
	if got := heap / uint64(ranks); got > 32<<10 {
		t.Errorf("%d-rank collective: heap high-water %d bytes per rank (%.1f MB), want at most %d",
			ranks, got, float64(heap)/(1<<20), 32<<10)
	}
}

// TestContractFaultPlaneSetup: a fault plane costs its node what its faults
// cost. bench/'s lossy plan on the 8³, 1-lane, go-back-n machine adds at
// most 4 allocations and 1 KB of live heap per node (17.0 and 6.3 KB while
// each plane seeded a 4.9 KB math/rand source and made seven maps and its
// own rule list), and a put through a plane that draws on every frame
// allocates 0.
func TestContractFaultPlaneSetup(t *testing.T) {
	const nodes = 512
	bare := allocsPerOp(t, perJob, BenchmarkLossySetupBare)
	lossy := allocsPerOp(t, perJob, BenchmarkLossySetup)
	if per := float64(lossy-bare) / nodes; per > 4 {
		t.Errorf("fault plan: %.1f allocs per node (%d against %d without), want at most 4", per, lossy, bare)
	}
	if per := float64(setupLiveBytes(lossyFaults)-setupLiveBytes(nil)) / nodes; per > 1024 {
		t.Errorf("fault plan: %.0f B of live heap per node, want at most 1024", per)
	}
	if got := allocsPerOp(t, perMessage, BenchmarkSimulatedPutDrawing); got != 0 {
		t.Errorf("put through a drawing fault plane: %d allocs/msg, want 0", got)
	}
}

// setupLiveBytes is what one finished lossySetup machine keeps reachable,
// read as bench/ reads setup_live_bytes: between two collections, the
// machine still held.
func setupLiveBytes(faults []model.FaultRule) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := lossySetup(faults)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}
