package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"portals3/internal/flightrec"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// diffTrafConfig is the traffic differential-test shape: uniform traffic
// on a 4³ torus at full offered load, every observer on.
func diffTrafConfig(shards int, seed int64) TrafficConfig {
	return TrafficConfig{
		TorusConfig: TorusConfig{
			Dim: 4, Bytes: 256, Shards: shards,
			FaultSeed: seed,
			Telemetry: true, FlightRec: flightrec.DefaultRingEvents,
			SamplePeriod: 20 * sim.Microsecond,
			StallWindow:  600 * sim.Microsecond,
		},
		Msgs: 4,
		Load: 1.0,
		Seed: uint64(seed)*0x9E37 + 5,
	}
}

// hotConfig turns the shape into a 30% hot-spot aimed at a mid-torus node.
func hotConfig(shards int, seed int64) TrafficConfig {
	cfg := diffTrafConfig(shards, seed)
	cfg.HotFrac = 0.3
	cfg.HotNode = 21
	return cfg
}

// TestTorusTrafficCompletes sanity-checks both generators at the
// sequential reference: every node gets exactly its expected messages.
func TestTorusTrafficCompletes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  TrafficConfig
	}{
		{"uniform", diffTrafConfig(1, 0)},
		{"hotspot", hotConfig(1, 0)},
	} {
		res := TorusTraffic(tc.cfg)
		if len(res.Errors) > 0 {
			t.Fatalf("%s run failed: %v", tc.name, res.Errors[:min(len(res.Errors), 5)])
		}
		if res.FinishPs <= 0 {
			t.Fatalf("%s finish = %d", tc.name, res.FinishPs)
		}
	}
}

// TestFlowOrderErrors: node 0 sends messages 0 and 1 to node 2, node 1
// sends its message 0 to node 2 and message 1 to node 0. Flows into one
// receiver may interleave; a flow's own messages may not swap, and a message
// that never arrived is the count check's to report.
func TestFlowOrderErrors(t *testing.T) {
	dests := [][]topo.NodeID{{2, 2}, {2, 0}, {0, 1}}
	for _, tc := range []struct {
		name    string
		arrival []int32 // src*2 + k
		want    []string
	}{
		{"in order, flows interleaved", []int32{1, 3, 2, 1, 2, 1}, nil},
		{"a message lost", []int32{0, 2, 1, 1, 2, 1}, nil},
		{"a swapped pair", []int32{3, 1, 2, 1, 2, 1},
			[]string{"node 2: message 1 from node 0 overtook an earlier one of its flow"}},
	} {
		got := flowOrderErrors(dests, tc.arrival)
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s: errors %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestTrafficDifferential: resharding bit-identity for the hot-spot
// generator — the strongest congestion case, where head-of-line blocking
// on the victim's links reorders arrivals most aggressively.
func TestTrafficDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		ref := TorusTraffic(hotConfig(1, seed))
		if len(ref.Errors) > 0 {
			t.Fatalf("seed %d: reference run failed: %v", seed, ref.Errors[:min(len(ref.Errors), 5)])
		}
		refDigest := wholeDigest(t, ref)
		for _, shards := range []int{2, 4} {
			got := TorusTraffic(hotConfig(shards, seed)).Digest()
			if !bytes.Equal(got, refDigest) {
				t.Errorf("seed %d shards %d: hot-spot digest diverges\n%s",
					seed, shards, digestDiff(refDigest, got))
			}
		}
	}
}

// TestTrafficDifferentialFaults reruns the hot-spot differential over a
// lossy fabric with go-back-n recovery.
func TestTrafficDifferentialFaults(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		cfg := hotConfig(1, 0x70af+seed)
		cfg.GoBackN = true
		cfg.Faults = []model.FaultRule{
			model.NewFault(model.FaultDrop, model.FrameData, 0.02).WithCount(2),
		}
		ref := TorusTraffic(cfg)
		if len(ref.Errors) > 0 {
			t.Fatalf("seed %d: faulty reference failed: %v", seed, ref.Errors[:min(len(ref.Errors), 5)])
		}
		if ref.FaultsLine == "" {
			t.Fatalf("seed %d: fault plane never activated", seed)
		}
		refDigest := wholeDigest(t, ref)
		for _, shards := range []int{2, 4} {
			c := cfg
			c.Shards = shards
			got := TorusTraffic(c).Digest()
			if !bytes.Equal(got, refDigest) {
				t.Errorf("seed %d shards %d (faults): traffic digest diverges\n%s",
					seed, shards, digestDiff(refDigest, got))
			}
		}
	}
}

// TestTrafficBisectionBound: the delivered cross-bisection rate of a
// uniform run must stay within the torus's analytic bisection bandwidth —
// the standard k-ary n-cube bound (cf. the APEnet+ toroidal-mesh
// analysis): cutting a d³ torus into two z-halves severs two planes of d²
// bidirectional links each, so the cut carries at most 4·d²·LinkBps. A
// simulator that routed around the cut, double-delivered, or ran links
// past line rate would break the bound; a run that never crossed it at all
// would mean the uniform generator is not actually uniform.
func TestTrafficBisectionBound(t *testing.T) {
	cfg := diffTrafConfig(1, 1)
	cfg.Telemetry, cfg.FlightRec = false, 0
	cfg.SamplePeriod, cfg.StallWindow = 0, 0
	cfg.Msgs = 8
	res := TorusTraffic(cfg)
	if len(res.Errors) > 0 {
		t.Fatalf("run failed: %v", res.Errors[:min(len(res.Errors), 5)])
	}

	d := cfg.Dim
	tp, err := topo.XT3Torus(d, d, d)
	if err != nil {
		t.Fatal(err)
	}
	lower := func(id topo.NodeID) bool { return tp.Coord(id).Z < d/2 }
	var crossBytes int64
	nodes := tp.Nodes()
	for id := 0; id < nodes; id++ {
		for _, dst := range trafficDests(&cfg, nodes, topo.NodeID(id)) {
			path := tp.Walk(topo.NodeID(id), dst)
			for i := 1; i < len(path); i++ {
				if lower(path[i-1]) != lower(path[i]) {
					crossBytes += int64(cfg.Bytes)
				}
			}
		}
	}
	if crossBytes == 0 {
		t.Fatal("uniform traffic never crossed the bisection — generator not uniform")
	}
	// Delivered cross rate over the whole run vs the cut's capacity.
	durPs := res.FinishPs
	rate := float64(crossBytes) * 1e12 / float64(durPs) // bytes/s
	p := model.Defaults()
	capacity := 4 * float64(d*d) * float64(p.LinkBps)
	t.Logf("bisection: %d bytes crossed in %.1f us -> %.3g B/s (capacity %.3g B/s, %.1f%%)",
		crossBytes, float64(durPs)/1e6, rate, capacity, 100*rate/capacity)
	if rate > capacity {
		t.Errorf("cross-bisection rate %.3g B/s exceeds the analytic capacity %.3g B/s", rate, capacity)
	}
}

// fabricMsgs reads the fabric message count out of a run's counter table.
func fabricMsgs(t *testing.T, r TorusResult) int {
	t.Helper()
	for _, line := range strings.Split(r.StatsText, "\n") {
		var msgs int
		if _, err := fmt.Sscanf(line, "fabric: %d messages", &msgs); err == nil {
			return msgs
		}
	}
	t.Fatalf("no fabric line in the counter table:\n%s", r.StatsText)
	return 0
}

// TestHotSpotGoBackNIncastFence pins go-back-n under incast with no fault
// injected: 16 × 1 KB per sender, 30 % of them at node 5, one lane, on 64,
// 125 and 216 nodes (netpipe -torus -dim 4|5|6 -workload hotspot -hot 5
// -hotfrac 0.3 -msgs 16 [-gbn]). The hot node's queueing outlasts the
// 150 µs timeout. When an expiry requeued a flow's whole unacked tail, each
// duplicate header cost the hot PowerPC an FC_ACK, the queue stayed longer
// than the timeout, and the gbn arm took 17.5× (4³) and 100× (5³) the plain
// arm's time. An expiry now resends the flow's head alone and backs off
// while the flow stays silent, so the gbn arm must finish within twice the
// plain arm; both arms are pinned exactly.
func TestHotSpotGoBackNIncastFence(t *testing.T) {
	for _, tc := range []struct {
		dim                 int
		plainFinish, gbnFin int64 // ps
		plainMsgs, gbnMsgs  int   // fabric messages
	}{
		{4, 730289456, 1044099885, 1024, 2312},
		{5, 1186619545, 2018788332, 2000, 4792},
		{6, 1939209999, 3671463065, 3456, 8772},
	} {
		t.Run(fmt.Sprintf("dim=%d", tc.dim), func(t *testing.T) {
			run := func(gbn bool) (TorusResult, int) {
				j, err := ParseJob(strings.Fields(fmt.Sprintf("-workload hotspot -dim %d -hot 5 -hotfrac 0.3 -msgs 16", tc.dim)))
				if err != nil {
					t.Fatal(err)
				}
				j.GoBackN = gbn
				r := j.Run()
				if len(r.Errors) > 0 {
					t.Fatalf("gbn=%v: %s", gbn, r.Errors[0])
				}
				return r, fabricMsgs(t, r)
			}
			plain, plainMsgs := run(false)
			if plain.FinishPs != tc.plainFinish || plainMsgs != tc.plainMsgs {
				t.Errorf("no gbn: finished at %d ps with %d fabric messages, want %d ps and %d",
					plain.FinishPs, plainMsgs, tc.plainFinish, tc.plainMsgs)
			}
			gbn, gbnMsgs := run(true)
			if gbn.FinishPs != tc.gbnFin || gbnMsgs != tc.gbnMsgs {
				t.Errorf("gbn: finished at %d ps with %d fabric messages, want %d ps and %d",
					gbn.FinishPs, gbnMsgs, tc.gbnFin, tc.gbnMsgs)
			}
			if gbn.FinishPs > 2*plain.FinishPs {
				t.Errorf("gbn arm took %.2f× the no-gbn finish, want at most 2×",
					float64(gbn.FinishPs)/float64(plain.FinishPs))
			}
		})
	}
}
