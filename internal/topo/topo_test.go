package topo

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadDims(t *testing.T) {
	for _, d := range [][3]int{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		if _, err := New(d[0], d[1], d[2], false, false, false); err == nil {
			t.Errorf("New(%v) accepted invalid dims", d)
		}
	}
}

func TestRedStormShape(t *testing.T) {
	rs := RedStorm()
	if got := rs.Nodes(); got != 10368 {
		t.Errorf("Red Storm has %d nodes, want 10368 (paper §5.1)", got)
	}
	if rs.Wrapped(X) || rs.Wrapped(Y) || !rs.Wrapped(Z) {
		t.Error("Red Storm must be a torus in Z only (paper §5.1)")
	}
}

func TestTinyDimensionNeverWraps(t *testing.T) {
	tp, _ := New(2, 1, 4, true, true, true)
	if tp.Wrapped(X) || tp.Wrapped(Y) {
		t.Error("axes of size ≤2 must not wrap")
	}
	if !tp.Wrapped(Z) {
		t.Error("Z of size 4 should wrap as requested")
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	tp, _ := New(5, 7, 3, false, true, true)
	for id := NodeID(0); int(id) < tp.Nodes(); id++ {
		if got := tp.ID(tp.Coord(id)); got != id {
			t.Fatalf("roundtrip failed: %d -> %v -> %d", id, tp.Coord(id), got)
		}
	}
}

func TestRouteEndsAtDestination(t *testing.T) {
	tp, _ := New(4, 3, 5, false, false, true)
	for src := NodeID(0); int(src) < tp.Nodes(); src++ {
		for dst := NodeID(0); int(dst) < tp.Nodes(); dst++ {
			w := tp.Walk(src, dst)
			if w[len(w)-1] != dst {
				t.Fatalf("walk from %d to %d ends at %d", src, dst, w[len(w)-1])
			}
			if len(w)-1 != tp.Hops(src, dst) {
				t.Fatalf("walk length %d != Hops %d for %d->%d", len(w)-1, tp.Hops(src, dst), src, dst)
			}
		}
	}
}

func TestRouteIsDimensionOrdered(t *testing.T) {
	tp := RedStorm()
	src, dst := tp.ID(Coord{1, 2, 3}), tp.ID(Coord{20, 9, 21})
	path := tp.Route(src, dst)
	lastAxis := Axis(-1)
	for _, d := range path {
		if d.Axis < lastAxis {
			t.Fatalf("route not dimension ordered: %v", path)
		}
		lastAxis = d.Axis
	}
}

func TestTorusTakesShortWay(t *testing.T) {
	tp, _ := New(1, 1, 24, false, false, true)
	// 0 -> 23 should be one hop in Z- on a 24-torus.
	if got := tp.Hops(tp.ID(Coord{0, 0, 0}), tp.ID(Coord{0, 0, 23})); got != 1 {
		t.Errorf("torus shortcut: got %d hops, want 1", got)
	}
	// 0 -> 12 is the tie: 12 hops either way.
	if got := tp.Hops(tp.ID(Coord{0, 0, 0}), tp.ID(Coord{0, 0, 12})); got != 12 {
		t.Errorf("torus halfway: got %d hops, want 12", got)
	}
}

func TestMeshDoesNotWrap(t *testing.T) {
	tp, _ := New(27, 1, 1, false, false, false)
	if got := tp.Hops(tp.ID(Coord{0, 0, 0}), tp.ID(Coord{26, 0, 0})); got != 26 {
		t.Errorf("mesh end to end: got %d hops, want 26", got)
	}
	if _, ok := tp.Neighbor(tp.ID(Coord{0, 0, 0}), Dir{X, -1}); ok {
		t.Error("stepped off the edge of a mesh axis")
	}
}

func TestDiameterRedStorm(t *testing.T) {
	// 26 (X mesh) + 15 (Y mesh) + 12 (Z torus) = 53.
	if got := RedStorm().Diameter(); got != 53 {
		t.Errorf("Red Storm diameter = %d, want 53", got)
	}
}

func TestRouteProperties(t *testing.T) {
	tp, _ := New(6, 5, 8, false, true, true)
	n := NodeID(tp.Nodes())
	// Property: routes are fixed (deterministic), end at dst, have length
	// Hops(src,dst), and Hops is symmetric and satisfies identity.
	f := func(a, b uint16) bool {
		src, dst := NodeID(a)%n, NodeID(b)%n
		w := tp.Walk(src, dst)
		if w[len(w)-1] != dst {
			return false
		}
		if tp.Hops(src, dst) != tp.Hops(dst, src) {
			return false
		}
		if (tp.Hops(src, dst) == 0) != (src == dst) {
			return false
		}
		// Fixed path: routing twice gives the identical link sequence.
		r1, r2 := tp.Route(src, dst), tp.Route(src, dst)
		if len(r1) != len(r2) {
			return false
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHopsTriangleInequality(t *testing.T) {
	tp := RedStorm()
	n := NodeID(tp.Nodes())
	f := func(a, b, c uint16) bool {
		x, y, z := NodeID(a)%n, NodeID(b)%n, NodeID(c)%n
		return tp.Hops(x, z) <= tp.Hops(x, y)+tp.Hops(y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDirString(t *testing.T) {
	if (Dir{X, 1}).String() != "X+" || (Dir{Z, -1}).String() != "Z-" {
		t.Error("Dir formatting wrong")
	}
}

func TestTableForwardingEqualsRoute(t *testing.T) {
	// Property: forwarding hop by hop through per-node tables reproduces
	// the precomputed route exactly — the fixed-path guarantee in-order
	// delivery rests on.
	tp, _ := New(5, 4, 6, false, true, true)
	n := NodeID(tp.Nodes())
	f := func(a, b uint16) bool {
		src, dst := NodeID(a)%n, NodeID(b)%n
		want := tp.Route(src, dst)
		cur := src
		var got []Dir
		for cur != dst {
			d, ok := tp.NextHop(cur, dst)
			if !ok {
				return false
			}
			got = append(got, d)
			next, ok := tp.Neighbor(cur, d)
			if !ok {
				return false
			}
			cur = next
			if len(got) > tp.Nodes() {
				return false // routing loop
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRouteTableCoversAllDestinations(t *testing.T) {
	tp := RedStorm()
	at := tp.ID(Coord{X: 13, Y: 8, Z: 11})
	table := tp.RouteTable(at)
	if len(table) != tp.Nodes() {
		t.Fatalf("table size %d", len(table))
	}
	// Spot-check a handful of destinations against NextHop.
	for _, dst := range []NodeID{0, 1, at + 1, NodeID(tp.Nodes() - 1)} {
		if dst == at {
			continue
		}
		d, ok := tp.NextHop(at, dst)
		if !ok || table[dst] != d {
			t.Errorf("table[%d] = %v, NextHop = %v ok=%v", dst, table[dst], d, ok)
		}
	}
	// Every entry must point at a live neighbor.
	for dst, d := range table {
		if NodeID(dst) == at {
			continue
		}
		if _, ok := tp.Neighbor(at, d); !ok {
			t.Fatalf("table[%d] = %v points off the mesh", dst, d)
		}
	}
}

// TestStepIsTheTableHop: Step, the one call the fabric makes per hop, gives
// the direction of the router's table (RouteTable, built from NextHop) and
// the router Neighbor finds that way, for every ordered pair of tori and
// meshes with odd, even, single and double axes (New never wraps an axis of
// two), and walking it visits what Walk visits. Red Storm is sampled with
// strides.
func TestStepIsTheTableHop(t *testing.T) {
	every := func(n int) []NodeID {
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = NodeID(i)
		}
		return ids
	}
	strided := func(n, stride int) (ids []NodeID) {
		for i := 0; i < n; i += stride {
			ids = append(ids, NodeID(i))
		}
		return ids
	}
	for _, c := range []struct {
		dims     [3]int
		wrap     [3]bool
		src, dst func(n int) []NodeID
	}{
		{[3]int{8, 8, 8}, [3]bool{true, true, true}, every, every},
		{[3]int{5, 3, 7}, [3]bool{true, true, true}, every, every},
		{[3]int{5, 3, 7}, [3]bool{false, true, false}, every, every},
		{[3]int{4, 1, 6}, [3]bool{true, true, true}, every, every},
		{[3]int{2, 3, 4}, [3]bool{true, true, true}, every, every},
		{[3]int{27, 16, 24}, [3]bool{false, false, true},
			func(n int) []NodeID { return strided(n, 101) }, func(n int) []NodeID { return strided(n, 7) }},
	} {
		tp, err := New(c.dims[0], c.dims[1], c.dims[2], c.wrap[0], c.wrap[1], c.wrap[2])
		if err != nil {
			t.Fatal(err)
		}
		dsts := c.dst(tp.Nodes())
		for _, at := range c.src(tp.Nodes()) {
			table := tp.RouteTable(at)
			for _, dst := range dsts {
				d, next, ok := tp.Step(at, dst)
				if dst == at {
					if ok {
						t.Fatalf("%v: Step(%d, %d) = %v, %d at the destination", c.dims, at, dst, d, next)
					}
					continue
				}
				want, wok := tp.Neighbor(at, table[dst])
				if !ok || !wok || d != table[dst] || next != want {
					t.Fatalf("%v wrap %v: Step(%d, %d) = %v, %d, %v; the table says %v to %d", c.dims, c.wrap, at, dst, d, next, ok, table[dst], want)
				}
			}
			for _, dst := range dsts {
				walk := []NodeID{at}
				for cur := at; cur != dst && len(walk) <= tp.Nodes(); {
					_, cur, _ = tp.Step(cur, dst)
					walk = append(walk, cur)
				}
				if want := tp.Walk(at, dst); !slices.Equal(walk, want) {
					t.Fatalf("%v: stepping %d to %d visits %v, Walk %v", c.dims, at, dst, walk, want)
				}
			}
		}
	}
}
