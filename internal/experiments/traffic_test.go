package experiments

import (
	"bytes"
	"fmt"
	"runtime/debug"
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
			RASPeriod:    50 * sim.Microsecond,
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
	cfg.SamplePeriod, cfg.StallWindow, cfg.RASPeriod = 0, 0, 0
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

// TestHotSpotGoBackNIncastFence pins go-back-n's incast collapse at today's
// numbers: 16 × 1 KB per sender, 30 % of them at node 5, one lane, no
// faults, on 64 and on 125 nodes (netpipe -torus -dim 4|5 -workload hotspot
// -hot 5 -hotfrac 0.3 -msgs 16 [-gbn]). Without go-back-n the hot node's
// receive pendings never run out and the run is pinned exactly. With it,
// every NACK rewinds the sender's whole unacked tail into the same
// exhausted receiver: on 4³ the job takes 17.5× as long and 22× the fabric
// messages, on 5³ 100× and 105×; the gbn arm may only get better than
// that. The protocol fix (bounded in-flight window, hold-off NACK, one NACK
// per gap, timer backoff) is to bring the gbn arm within 3× the no-gbn
// arm's finish time and then tighten this fence to that target. The 5³ gbn
// run holds 100 MB of heap at its high-water, so its heap is capped at
// twice the 112.7 MB first measured, and the race runtime, which shadows
// that heap, skips it.
func TestHotSpotGoBackNIncastFence(t *testing.T) {
	for _, tc := range []struct {
		dim                       int
		plainFinish, plainMsgs    int64  // ps, messages: pinned
		gbnFinish, gbnMsgsCeiling int64  // ps, messages: ceilings
		heapCeiling               uint64 // bytes of heap in use at the run's high-water; 0 for none
	}{
		{4, 730289456, 1024, 12797531199, 22970, 0},
		{5, 1186619545, 2000, 118573192999, 209280, 225 << 20},
	} {
		t.Run(fmt.Sprintf("dim=%d", tc.dim), func(t *testing.T) {
			if tc.heapCeiling > 0 {
				if raceEnabled {
					t.Skip("the race runtime shadows the heap this arm caps")
				}
				defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(tc.heapCeiling)))
			}
			run := func(gbn bool) (TorusResult, int64) {
				cfg := DefaultTrafficConfig()
				cfg.Dim = tc.dim
				cfg.Msgs = 16
				cfg.HotFrac = 0.3
				cfg.HotNode = 5
				cfg.GoBackN = gbn
				cfg.HostProf = tc.heapCeiling > 0
				r := TorusTraffic(cfg)
				if len(r.Errors) > 0 {
					t.Fatalf("gbn=%v: %s", gbn, r.Errors[0])
				}
				return r, int64(fabricMsgs(t, r))
			}
			plain, plainMsgs := run(false)
			if plain.FinishPs != tc.plainFinish || plainMsgs != tc.plainMsgs {
				t.Errorf("no gbn: finished at %d ps with %d fabric messages, want %d ps and %d",
					plain.FinishPs, plainMsgs, tc.plainFinish, tc.plainMsgs)
			}
			gbn, gbnMsgs := run(true)
			if gbn.FinishPs > tc.gbnFinish || gbnMsgs > tc.gbnMsgsCeiling {
				t.Errorf("gbn: finished at %d ps with %d fabric messages, want at most %d ps and %d",
					gbn.FinishPs, gbnMsgs, tc.gbnFinish, tc.gbnMsgsCeiling)
			}
			if tc.heapCeiling > 0 && gbn.HostProfile.HeapInuseHigh > tc.heapCeiling {
				t.Errorf("gbn: heap in use peaked at %.1f MB, want at most %.1f MB",
					float64(gbn.HostProfile.HeapInuseHigh)/(1<<20), float64(tc.heapCeiling)/(1<<20))
			}
			t.Logf("gbn arm: %.1f× the no-gbn finish, %.1f× its fabric messages (target: ≤ 3× the finish)",
				float64(gbn.FinishPs)/float64(plain.FinishPs), float64(gbnMsgs)/float64(plainMsgs))
		})
	}
}
