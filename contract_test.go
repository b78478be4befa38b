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

	"portals3/internal/experiments"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/netpipe"
	"portals3/internal/sim"
	"portals3/internal/topo"
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
	// A Portals call that parks is a chain: its crossing, library and
	// set-up sleeps and its event-queue wait cost one switch, not one each,
	// and nothing per process, per API or per call. Before the chain a round
	// parked 30 times.
	r := benchmark(t, perMessage, BenchmarkParkedCall)
	if got, parks := r.AllocsPerOp(), r.Extra["parks/op"]; got != 0 || parks > 15 {
		t.Errorf("parked Portals call: %d allocs and %.1f parks per round, want 0 and at most 15", got, parks)
	}
	// EQPoll waits on its library's one event signal: nothing per polled
	// queue or per wait. With a callback per queue and a fan-in signal per
	// wait a round allocated 16 times, and the idle queue kept every callback.
	// A round parks 16 times: each wake-up of a poll is a plain Wait's, and
	// the call that follows it parks again.
	r = benchmark(t, perMessage, BenchmarkPolledCall)
	if got, parks := r.AllocsPerOp(), r.Extra["parks/op"]; got != 0 || parks > 17 {
		t.Errorf("polled Portals call: %d allocs and %.1f parks per round, want 0 and at most 17", got, parks)
	}
	// What a process and its API cost to set up, as before the chain: a
	// step bound as a method value per process or per API allocates once
	// more, and a Proc or an API past its size class 16 bytes more.
	r = benchmark(t, 1000, BenchmarkSpawnCall)
	if r.AllocsPerOp() != 28 || r.AllocedBytesPerOp() > 4015 {
		t.Errorf("a process spawned to make one call: %d allocs and %d B, want 28 and at most 4015",
			r.AllocsPerOp(), r.AllocedBytesPerOp())
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
	// The observers add registration (3072 link meters) plus the end-of-run
	// merge and export: fixed, 591.5k measured. One per event is millions.
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

// TestContractStallReportBytes: a failure report costs a dump only as a
// node's first. On the put series to 64 B with a 2 µs stall window the
// detector files a report every few microseconds on either node; the first
// report's dump holds both rings, the other node's first its own ring, and
// every later report carries none (each later one held its node's events
// since its previous report, 817 B on average, and up to 262 KB each while
// every report held every ring in full).
func TestContractStallReportBytes(t *testing.T) {
	var m *machine.Machine
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = 64
	cfg.Observe = func(mm *machine.Machine) {
		m = mm
		m.EnableFlightRecorder(0)
		m.StartStallDetector(2 * sim.Microsecond)
	}
	netpipe.RunPortals(model.Defaults(), netpipe.OpPut, netpipe.PingPong, cfg)
	reports := m.Reports()
	if len(reports) < 100 {
		t.Fatalf("%d reports, want the detector tripping all series long", len(reports))
	}
	if n := len(reports[0].Dump.Nodes); n != 2 {
		t.Errorf("the first report's dump holds %d nodes, want both", n)
	}
	seen := map[topo.NodeID]bool{reports[0].Node: true}
	for _, r := range reports[1:] {
		switch {
		case seen[r.Node] && r.Dump != nil:
			t.Fatalf("%v: a node's later report carries a dump", r)
		case seen[r.Node]:
		case r.Dump == nil || len(r.Dump.Nodes) != 1 || r.Dump.Nodes[0].Node != int(r.Node):
			t.Fatalf("%v: a node's first report carries no dump of its ring alone", r)
		}
		seen[r.Node] = true
	}
	if len(seen) != 2 {
		t.Errorf("reports from %d nodes, want both", len(seen))
	}
}

// TestContractDeterministicCost pins what bench/'s five jobs cost in the
// units that do not drift with the host, exactly: events fired, kernel
// windows and process parks (Sim.Parks, the switches into and out of
// coroutine processes). A change that leaves the simulated results alone but
// fires one more event per message, splits a window or parks a process once
// more per call moves these before it moves a wall-clock bound. The torus
// shapes are bench/'s halo_512 and collective_512 (2 lanes) and
// uniform_lossy_512 at seed 1 (1 lane, go-back-n, lossyFaults), read from the
// host profile; the figure shapes sum Sim.Fired and Sim.Parks over the
// machines of every series of figure 4, and of figures 5–7, and pin where
// their sleeps end (sim.SleepCounts; DESIGN.md §7 quotes the shares). Before
// a Portals call chained its sleeps (sim.Step), the five jobs parked 650,752,
// 315,807, 163,174, 133,692 and 803,539 times.
func TestContractDeterministicCost(t *testing.T) {
	if raceEnabled {
		t.Skip("three 512-node jobs and four figures; the plain run asserts the contract")
	}
	halo := experiments.TorusConfig{Dim: 8, Bytes: 1024, Steps: 20, Radius: 2, Shards: 2, HostProf: true}
	collective := experiments.TorusConfig{Dim: 8, Bytes: 256, Steps: 8, Shards: 2, HostProf: true}
	lossy := experiments.TrafficConfig{
		TorusConfig: experiments.TorusConfig{Dim: 8, Bytes: 1024, Shards: 1, GoBackN: true,
			Faults: lossyFaults, FaultSeed: 1, HostProf: true},
		Msgs: 32, Load: 1, Seed: 1,
	}
	for _, tc := range []struct {
		name                   string
		run                    func() experiments.TorusResult
		events, windows, parks uint64
	}{
		{"halo", func() experiments.TorusResult { return experiments.TorusHalo(halo) }, 2_463_744, 2_973, 187_392},
		{"collective", func() experiments.TorusResult { return experiments.TorusCollective(collective) }, 691_254, 26_425, 127_624},
		{"lossy, seed 1", func() experiments.TorusResult { return experiments.TorusTraffic(lossy) }, 1_035_699, 6_229, 67_554},
	} {
		r := tc.run()
		if len(r.Errors) > 0 {
			t.Fatalf("%s: %d errors, first: %s", tc.name, len(r.Errors), r.Errors[0])
		}
		if got := r.HostProfile.Events; got != tc.events || r.Windows != tc.windows {
			t.Errorf("%s: %d events in %d windows, want %d in %d", tc.name, got, r.Windows, tc.events, tc.windows)
		}
		if got := r.HostProfile.ProcParks; got != tc.parks {
			t.Errorf("%s: %d process parks, want %d", tc.name, got, tc.parks)
		}
	}
	for _, tc := range []struct {
		name          string
		pats          []netpipe.Pattern
		events, parks uint64
		sleeps        sim.SleepCounts
	}{
		{"fig4_latency", nil, 1_345_314, 68_783, sim.SleepCounts{
			Alone: 211_983, Dispatched: 130_288, Stepped: 124_928, Raised: 2, Nested: 12_151}},
		{"fig567_bandwidth", []netpipe.Pattern{netpipe.PingPong, netpipe.Stream, netpipe.Bidir}, 14_918_121, 353_449, sim.SleepCounts{
			Alone: 574_699, Dispatched: 565_526, Stepped: 585_783, Raised: 3_152, Nested: 165_470}},
	} {
		c := figureCost(tc.pats...)
		if c.events != tc.events || c.parks != tc.parks {
			t.Errorf("%s: %d events and %d process parks, want %d and %d", tc.name, c.events, c.parks, tc.events, tc.parks)
		}
		if c.sleeps != tc.sleeps {
			t.Errorf("%s: sleeps %+v, want %+v", tc.name, c.sleeps, tc.sleeps)
		}
	}
}

// figureJob is what one of bench's figure jobs costs the host, summed over
// the machines of its series.
type figureJob struct {
	events, parks uint64
	sleeps        sim.SleepCounts
}

// figureCost runs, one after another, the four series a figure draws for each
// of pats (experiments.Figure5–7), or for figure 4's ping-pong to 1 KB when
// pats is empty.
func figureCost(pats ...netpipe.Pattern) figureJob {
	cfg := netpipe.DefaultConfig()
	if len(pats) == 0 {
		cfg.MaxBytes = 1 << 10
		pats = []netpipe.Pattern{netpipe.PingPong}
	}
	var ms []*machine.Machine
	var counts []*sim.SleepCounts
	cfg.Observe = func(m *machine.Machine) {
		ms = append(ms, m)
		counts = append(counts, m.S.CountSleeps())
	}
	p := model.Defaults()
	for _, pat := range pats {
		netpipe.RunPortals(p, netpipe.OpGet, pat, cfg)
		netpipe.RunMPI(p, mpi.MPICH2, pat, cfg)
		netpipe.RunMPI(p, mpi.MPICH1, pat, cfg)
		netpipe.RunPortals(p, netpipe.OpPut, pat, cfg)
	}
	var j figureJob
	for i, m := range ms {
		j.events += m.S.Fired
		j.parks += m.S.Parks
		c := counts[i]
		j.sleeps.Alone += c.Alone
		j.sleeps.Dispatched += c.Dispatched
		j.sleeps.Stepped += c.Stepped
		j.sleeps.Raised += c.Raised
		j.sleeps.Nested += c.Nested
		j.sleeps.Beyond += c.Beyond
	}
	return j
}
