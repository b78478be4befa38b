package fabric

import (
	"math"
	"slices"
	"testing"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// streamParams declares rules that draw on every data frame: a drop, a
// duplicate and a reorder of up to 10 ns.
func streamParams(seed int64) model.Params {
	p := model.Defaults()
	p.FaultSeed = seed
	p.Faults = []model.FaultRule{
		model.NewFault(model.FaultDrop, model.FrameData, 0.1),
		model.NewFault(model.FaultDup, model.FrameData, 0.1),
		model.NewFault(model.FaultReorder, model.FrameData, 0.2).WithDelay(10 * sim.Nanosecond),
	}
	return p
}

// drawFates decides n data frames on pl, from its node to the next, and
// records each fate: -1 for none, else the rule's index, plus a reorder's
// delay.
func drawFates(pl *FaultPlane, node topo.NodeID, n int) []int64 {
	var out []int64
	for i := 0; i < n; i++ {
		r := pl.decide(model.FrameData, node, node+1)
		switch {
		case r == nil:
			out = append(out, -1)
		case r.Kind == model.FaultReorder:
			out = append(out, 2, int64(pl.delayOf(r)))
		default:
			out = append(out, int64(r.Kind))
		}
	}
	return out
}

// planesOf returns every node's plane of a classic fabric (shards 0) or a
// cluster of that many lanes, nodes dealt round-robin.
func planesOf(t *testing.T, p *model.Params, shards int) []*FaultPlane {
	t.Helper()
	tp, err := topo.New(4, 4, 4, true, true, true)
	if err != nil {
		t.Fatal(err)
	}
	planes := make([]*FaultPlane, tp.Nodes())
	if shards == 0 {
		f := New(sim.New(), tp, p)
		for id := range planes {
			planes[id] = f.Plane(topo.NodeID(id))
		}
		return planes
	}
	cl := NewCluster(sim.NewKernel(shards, MinHandoffLatency(p)), tp, p,
		func(id topo.NodeID) int { return int(id) % shards })
	for id := range planes {
		planes[id] = cl.LaneFabric(cl.Lane(topo.NodeID(id))).Plane(topo.NodeID(id))
	}
	return planes
}

// TestFaultPlaneStreams pins what a node's stream is: a function of
// (FaultSeed, node) alone, the same through New and NewCluster at any lane
// count, distinct per node, 0xfa017 when the seed is 0, and fair.
func TestFaultPlaneStreams(t *testing.T) {
	const draws = 200
	p := streamParams(7)
	ref := planesOf(t, &p, 0)
	want := make([][]int64, len(ref))
	for id, pl := range ref {
		want[id] = drawFates(pl, topo.NodeID(id), draws)
	}
	for _, shards := range []int{0, 1, 2, 3} {
		for id, pl := range planesOf(t, &p, shards) {
			if got := drawFates(pl, topo.NodeID(id), draws); !slices.Equal(got, want[id]) {
				t.Fatalf("shards %d, node %d: fates differ from the classic fabric's", shards, id)
			}
		}
	}

	t.Run("distinct nodes draw distinct streams", func(t *testing.T) {
		seen := map[[4]uint64]int{}
		for id, pl := range planesOf(t, &p, 0) {
			var head [4]uint64
			for i := range head {
				head[i] = pl.rng.Uint64()
			}
			if other, dup := seen[head]; dup {
				t.Fatalf("nodes %d and %d draw the same stream", other, id)
			}
			seen[head] = id
		}
	})

	t.Run("seed 0 is 0xfa017", func(t *testing.T) {
		zero, dflt, other := streamParams(0), streamParams(0xfa017), streamParams(1)
		z, d, o := planesOf(t, &zero, 0), planesOf(t, &dflt, 0), planesOf(t, &other, 0)
		differs := false
		for id := range z {
			fz := drawFates(z[id], topo.NodeID(id), draws)
			if !slices.Equal(fz, drawFates(d[id], topo.NodeID(id), draws)) {
				t.Fatalf("node %d: FaultSeed 0 draws differently from 0xfa017", id)
			}
			differs = differs || !slices.Equal(fz, drawFates(o[id], topo.NodeID(id), draws))
		}
		if !differs {
			t.Fatal("FaultSeed 0 draws what FaultSeed 1 draws: the seed is ignored")
		}
	})

	t.Run("a 1 % rule fires binomially", func(t *testing.T) {
		const perPlane, prob = 20_000, 0.01
		q := model.Defaults()
		q.Faults = []model.FaultRule{model.NewFault(model.FaultDrop, model.FrameData, prob)}
		planes := planesOf(t, &q, 0)
		fired := 0
		for id, pl := range planes {
			for i := 0; i < perPlane; i++ {
				if pl.decide(model.FrameData, topo.NodeID(id), 0) != nil {
					fired++
				}
			}
		}
		n := float64(len(planes) * perPlane)
		mean, sigma := n*prob, math.Sqrt(n*prob*(1-prob))
		if d := math.Abs(float64(fired) - mean); d > 4*sigma {
			t.Errorf("%d of %.0f draws fired, want %.0f ± %.0f (4σ)", fired, n, mean, 4*sigma)
		}
	})

	t.Run("reorder delays stay in [1, Delay]", func(t *testing.T) {
		const delay = 7
		q := model.Defaults()
		q.Faults = []model.FaultRule{model.NewFault(model.FaultReorder, model.FrameData, 1).WithDelay(delay)}
		pl := planesOf(t, &q, 0)[0]
		var hits [delay + 1]int
		for i := 0; i < 10_000; i++ {
			d := pl.delayOf(pl.decide(model.FrameData, 0, 1))
			if d < 1 || d > delay {
				t.Fatalf("reorder delay %d outside [1, %d]", d, delay)
			}
			hits[d]++
		}
		for d := 1; d <= delay; d++ {
			if hits[d] == 0 {
				t.Errorf("reorder delay %d never drawn in 10,000 draws", d)
			}
		}
	})
}
