package netpipe

import (
	"math"
	"sort"
	"strings"
	"testing"

	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/sim"
)

// smallCfg keeps unit tests fast: sweeps stop at 64 KB.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.MaxBytes = 64 << 10
	return cfg
}

func TestSizesSchedule(t *testing.T) {
	s := Sizes(64, 3)
	if !sort.IntsAreSorted(s) {
		t.Errorf("sizes not sorted: %v", s)
	}
	want := map[int]bool{1: true, 2: true, 3: true, 4: true, 7: true, 5: true,
		8: true, 11: true, 13: true, 16: true, 19: true, 29: true, 32: true,
		35: true, 61: true, 64: true}
	for _, v := range s {
		if !want[v] {
			t.Errorf("unexpected size %d in %v", v, s)
		}
	}
	for v := range want {
		found := false
		for _, got := range s {
			if got == v {
				found = true
			}
		}
		if !found {
			t.Errorf("missing size %d in %v", v, s)
		}
	}
	// No duplicates, never exceeding max.
	seen := map[int]bool{}
	for _, v := range s {
		if seen[v] || v > 64 || v < 1 {
			t.Errorf("bad schedule entry %d", v)
		}
		seen[v] = true
	}
	if got := Sizes(16, 0); len(got) != 6 { // 1,2,3,4,8,16
		t.Errorf("perturbation-free schedule: %v", got)
	}
}

func TestItersClampAndMonotonicity(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.iters(1) != cfg.MaxIters {
		t.Errorf("tiny messages should hit MaxIters, got %d", cfg.iters(1))
	}
	if cfg.iters(8<<20) != cfg.MinIters {
		t.Errorf("8MB should hit MinIters, got %d", cfg.iters(8<<20))
	}
	last := cfg.iters(1)
	for s := 2; s <= 1<<20; s *= 2 {
		n := cfg.iters(s)
		if n > last {
			t.Errorf("iters grew with size at %d", s)
		}
		last = n
	}
}

func TestPortalsPingPongShape(t *testing.T) {
	r := RunPortals(model.Defaults(), OpPut, PingPong, smallCfg())
	if len(r.Points) != len(Sizes(64<<10, 3)) {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Latency nondecreasing with size (within this range), bandwidth
	// increasing at the top end.
	if r.Points[0].Latency <= 0 {
		t.Error("no latency measured")
	}
	last := r.Points[len(r.Points)-1]
	first := r.Points[0]
	if last.MBps <= first.MBps {
		t.Error("bandwidth did not grow with message size")
	}
	if last.Latency < first.Latency {
		t.Error("64KB latency below 1B latency")
	}
}

func TestGetSlowerThanPutPingPong(t *testing.T) {
	p := model.Defaults()
	cfg := smallCfg()
	put := RunPortals(p, OpPut, PingPong, cfg)
	get := RunPortals(p, OpGet, PingPong, cfg)
	if get.Points[0].Latency <= put.Points[0].Latency {
		t.Errorf("get (%v) should be slower than put (%v) at 1 byte (§6)",
			get.Points[0].Latency, put.Points[0].Latency)
	}
}

func TestStreamBeatsPingPongBandwidth(t *testing.T) {
	p := model.Defaults()
	cfg := smallCfg()
	pp := RunPortals(p, OpPut, PingPong, cfg)
	st := RunPortals(p, OpPut, Stream, cfg)
	stPt, ok1 := st.At(8192)
	ppPt, ok2 := pp.At(8192)
	// "the graph is steeper for this curve than the ping-pong bandwidth
	// results" (§6): streaming wins at mid sizes.
	if !ok1 || !ok2 || stPt.MBps <= ppPt.MBps {
		t.Errorf("streaming (%0.f) should beat ping-pong (%0.f) at 8KB", stPt.MBps, ppPt.MBps)
	}
}

func TestStreamGetCannotPipeline(t *testing.T) {
	p := model.Defaults()
	cfg := smallCfg()
	put := RunPortals(p, OpPut, Stream, cfg)
	get := RunPortals(p, OpGet, Stream, cfg)
	for i := range put.Points {
		if put.Points[i].Bytes == 4096 {
			if get.Points[i].MBps >= put.Points[i].MBps {
				t.Errorf("streaming get (%.0f) should trail put (%.0f) badly at 4KB (§6)",
					get.Points[i].MBps, put.Points[i].MBps)
			}
		}
	}
}

func TestBidirAggregatesBothDirections(t *testing.T) {
	p := model.Defaults()
	cfg := smallCfg()
	uni := RunPortals(p, OpPut, PingPong, cfg)
	bid := RunPortals(p, OpPut, Bidir, cfg)
	last := len(uni.Points) - 1
	if bid.Points[last].MBps < 1.5*uni.Points[last].MBps {
		t.Errorf("bidir at 64KB (%.0f) should approach 2x uni (%.0f)",
			bid.Points[last].MBps, uni.Points[last].MBps)
	}
}

func TestMPIRunsAllPatterns(t *testing.T) {
	p := model.Defaults()
	cfg := smallCfg()
	for _, pat := range []Pattern{PingPong, Stream, Bidir} {
		r := RunMPI(p, mpi.MPICH1, pat, cfg)
		if len(r.Points) == 0 {
			t.Fatalf("%v produced no points", pat)
		}
		for _, pt := range r.Points {
			if pt.MBps <= 0 && pt.Bytes > 0 {
				t.Errorf("%v at %d B: zero bandwidth", pat, pt.Bytes)
			}
		}
	}
}

func TestAcceleratedModeRuns(t *testing.T) {
	cfg := smallCfg()
	cfg.Mode = machine.Accelerated
	r := RunPortals(model.Defaults(), OpPut, PingPong, cfg)
	if r.Points[0].Latency <= 0 {
		t.Fatal("no measurement in accelerated mode")
	}
	cfg2 := smallCfg()
	gen := RunPortals(model.Defaults(), OpPut, PingPong, cfg2)
	if r.Points[0].Latency >= gen.Points[0].Latency {
		t.Error("accelerated mode not faster at 1 byte")
	}
}

func TestPatternAndOpStrings(t *testing.T) {
	if PingPong.String() != "pingpong" || Stream.String() != "stream" || Bidir.String() != "bidir" {
		t.Error("pattern names wrong")
	}
	if OpPut.String() != "put" || OpGet.String() != "get" {
		t.Error("op names wrong")
	}
}

// TestPingPongPercentiles pins the percentile reporting: ping-pong points
// carry p50/p99 from the per-round histogram, the values are internally
// consistent, and — the simulator's determinism contract — two identical
// runs produce identical percentiles.
func TestPingPongPercentiles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBytes = 4096
	r1 := RunPortals(model.Defaults(), OpPut, PingPong, cfg)
	r2 := RunPortals(model.Defaults(), OpPut, PingPong, cfg)
	if len(r1.Points) != len(r2.Points) {
		t.Fatalf("run lengths differ: %d vs %d", len(r1.Points), len(r2.Points))
	}
	for i, pt := range r1.Points {
		if pt != r2.Points[i] {
			t.Errorf("point %d differs between identical runs: %+v vs %+v", i, pt, r2.Points[i])
		}
		if pt.P50 <= 0 || pt.P99 <= 0 {
			t.Errorf("%d B: missing percentiles: p50=%v p99=%v", pt.Bytes, pt.P50, pt.P99)
		}
		if pt.P50 > pt.P99 {
			t.Errorf("%d B: p50 %v > p99 %v", pt.Bytes, pt.P50, pt.P99)
		}
		if pt.P99 > 2*pt.Latency {
			t.Errorf("%d B: p99 %v implausibly above mean %v", pt.Bytes, pt.P99, pt.Latency)
		}
	}
	// At one byte every round costs the same, so the clamped histogram
	// reports the exact constant: p50 == p99, and both match the mean to
	// within integer-division rounding of the block time.
	one := r1.Points[0]
	if one.Bytes != 1 {
		t.Fatalf("first point is %d B", one.Bytes)
	}
	if one.P50 != one.P99 {
		t.Errorf("1 B rounds not constant: p50 %v != p99 %v", one.P50, one.P99)
	}
	if d := one.P50 - one.Latency; d < -sim.Nanosecond || d > sim.Nanosecond {
		t.Errorf("1 B p50 %v differs from mean %v by more than rounding", one.P50, one.Latency)
	}
	// The string form carries the percentile columns for ping-pong points
	// and omits them when absent.
	if s := one.String(); !strings.Contains(s, "p50") || !strings.Contains(s, "p99") {
		t.Errorf("ping-pong Point.String() missing percentiles: %q", s)
	}
	if s := (Point{Bytes: 1}).String(); strings.Contains(s, "p50") {
		t.Errorf("empty point renders percentiles: %q", s)
	}
}

// TestStreamHasNoPercentiles: streaming and bidir measure a block, not
// rounds, so every module's points carry neither a latency nor its
// percentiles.
func TestStreamHasNoPercentiles(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxBytes = 1024
	p := model.Defaults()
	for _, pat := range []Pattern{Stream, Bidir} {
		for _, r := range []Result{
			RunPortals(p, OpPut, pat, cfg),
			RunPortals(p, OpGet, pat, cfg),
			RunMPI(p, mpi.MPICH1, pat, cfg),
			RunMPI(p, mpi.MPICH2, pat, cfg),
		} {
			for _, pt := range r.Points {
				if pt.Latency != 0 || pt.P50 != 0 || pt.P99 != 0 {
					t.Errorf("%s %v: %d B point has a latency or percentiles: %+v", r.Series, pat, pt.Bytes, pt)
				}
			}
		}
	}
}

// TestMPIPercentiles: the MPI module's ping-pong carries percentiles too.
func TestMPIPercentiles(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxBytes = 1024
	r := RunMPI(model.Defaults(), mpi.MPICH2, PingPong, cfg)
	for _, pt := range r.Points {
		if pt.P50 <= 0 || pt.P99 < pt.P50 {
			t.Errorf("%d B: bad MPI percentiles %+v", pt.Bytes, pt)
		}
	}
}

// TestResultLookups: At finds a point by its exact size, and the
// half-bandwidth size is interpolated log-linearly between the two points
// that straddle half the peak.
func TestResultLookups(t *testing.T) {
	r := Result{Points: []Point{{Bytes: 1, MBps: 10}, {Bytes: 4, MBps: 30}, {Bytes: 16, MBps: 100}}}
	if pt, ok := r.At(4); !ok || pt.MBps != 30 {
		t.Errorf("At(4) = %+v, %v", pt, ok)
	}
	if _, ok := r.At(5); ok {
		t.Error("At(5) found a point the curve does not have")
	}
	// Half of 100 lies 20/70 of the way from 30 to 100: 4·4^(2/7) B.
	if got, want := r.HalfBandwidthBytes(), 4*math.Pow(4, 2.0/7); math.Abs(got-want) > 1e-9 {
		t.Errorf("HalfBandwidthBytes = %v, want %v", got, want)
	}
	if got := (Result{}).HalfBandwidthBytes(); !math.IsNaN(got) {
		t.Errorf("empty curve's half-bandwidth size = %v, want NaN", got)
	}
}
