// Package topo models the XT3 interconnect topology: a 3D mesh/torus of
// SeaStar routers with table-based, dimension-ordered routing.
//
// The paper's Red Storm installation is a 3D network that is a torus only in
// the Z dimension — the classified/unclassified switching cabinets and cable
// lengths prevent wraparound in X and Y — so the package supports per-axis
// wraparound. Routing is deterministic dimension-order (X, then Y, then Z),
// which yields the fixed path between every pair of nodes and therefore the
// in-order packet delivery that Portals relies on.
package topo

import "fmt"

// Axis identifies one of the three torus dimensions.
type Axis int

// The three dimensions of the machine.
const (
	X Axis = iota
	Y
	Z
)

func (a Axis) String() string { return [...]string{"X", "Y", "Z"}[a] }

// Dir is a signed hop direction along an axis: the SeaStar router has six
// network ports, X+, X-, Y+, Y-, Z+, Z-.
type Dir struct {
	Axis Axis
	Sign int // +1 or -1
}

func (d Dir) String() string {
	if d.Sign >= 0 {
		return d.Axis.String() + "+"
	}
	return d.Axis.String() + "-"
}

// Coord is a router/node position in the 3D machine.
type Coord struct{ X, Y, Z int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// NodeID is a flat node identifier; the paper's Portals nid. IDs are dense,
// assigned in Z-major order (Z varies fastest), matching a cabinet layout
// where a cage is populated along Z.
type NodeID int32

// Topology describes a 3D mesh/torus.
type Topology struct {
	dims [3]int
	wrap [3]bool
}

// New returns a topology of nx × ny × nz nodes. wrapX/Y/Z select which axes
// are tori; a dimension of size ≤ 2 is never wrapped (wraparound would
// duplicate the single direct link).
func New(nx, ny, nz int, wrapX, wrapY, wrapZ bool) (*Topology, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("topo: dimensions must be positive, got %d×%d×%d", nx, ny, nz)
	}
	t := &Topology{dims: [3]int{nx, ny, nz}, wrap: [3]bool{wrapX, wrapY, wrapZ}}
	for a := 0; a < 3; a++ {
		if t.dims[a] <= 2 {
			t.wrap[a] = false
		}
	}
	return t, nil
}

// RedStorm returns the paper's Red Storm configuration: 27×16×24 = 10,368
// nodes, torus in Z only.
func RedStorm() *Topology {
	t, err := New(27, 16, 24, false, false, true)
	if err != nil {
		panic(err)
	}
	return t
}

// XT3Torus returns a commercial-XT3-style full torus of the given size.
func XT3Torus(nx, ny, nz int) (*Topology, error) {
	return New(nx, ny, nz, true, true, true)
}

// Nodes returns the node count.
func (t *Topology) Nodes() int { return t.dims[0] * t.dims[1] * t.dims[2] }

// Dims returns the per-axis sizes.
func (t *Topology) Dims() (nx, ny, nz int) { return t.dims[0], t.dims[1], t.dims[2] }

// Wrapped reports whether axis a is a torus.
func (t *Topology) Wrapped(a Axis) bool { return t.wrap[a] }

// Coord returns the position of node id: two divisions, 32 bits wide.
func (t *Topology) Coord(id NodeID) Coord {
	n, ny, nz := uint32(id), uint32(t.dims[1]), uint32(t.dims[2])
	xy := n / nz
	x := xy / ny
	return Coord{int(x), int(xy - x*ny), int(n - xy*nz)}
}

// ID returns the node at position c.
func (t *Topology) ID(c Coord) NodeID {
	return NodeID((c.X*t.dims[1]+c.Y)*t.dims[2] + c.Z)
}

// Valid reports whether id names a node.
func (t *Topology) Valid(id NodeID) bool { return id >= 0 && int(id) < t.Nodes() }

// axisStep computes the dimension-ordered step along axis a from position p
// toward position q: the hop direction and the remaining hop count. A torus
// axis takes the shorter way around, breaking exact ties toward +.
func (t *Topology) axisStep(a Axis, p, q int) (sign, hops int) {
	n := t.dims[a]
	if p == q {
		return 0, 0
	}
	fwd := (q - p + n) % n // hops going +
	bwd := (p - q + n) % n // hops going -
	if !t.wrap[a] {
		if q > p {
			return +1, q - p
		}
		return -1, p - q
	}
	if fwd <= bwd {
		return +1, fwd
	}
	return -1, bwd
}

// Route returns the deterministic dimension-ordered path from src to dst as
// a sequence of hop directions. The path is empty when src == dst. Because
// the path is a pure function of (src, dst), every packet of every message
// between a pair follows the same links — the property that gives the XT3
// in-order delivery.
func (t *Topology) Route(src, dst NodeID) []Dir {
	cs, cd := t.Coord(src), t.Coord(dst)
	var path []Dir
	from := [3]int{cs.X, cs.Y, cs.Z}
	to := [3]int{cd.X, cd.Y, cd.Z}
	for a := 0; a < 3; a++ {
		sign, hops := t.axisStep(Axis(a), from[a], to[a])
		for i := 0; i < hops; i++ {
			path = append(path, Dir{Axis: Axis(a), Sign: sign})
		}
	}
	return path
}

// Hops returns the path length from src to dst without materializing it.
func (t *Topology) Hops(src, dst NodeID) int {
	cs, cd := t.Coord(src), t.Coord(dst)
	from := [3]int{cs.X, cs.Y, cs.Z}
	to := [3]int{cd.X, cd.Y, cd.Z}
	total := 0
	for a := 0; a < 3; a++ {
		_, h := t.axisStep(Axis(a), from[a], to[a])
		total += h
	}
	return total
}

// Neighbor returns the node one hop from id in direction d, and false when
// the hop falls off a non-wrapped edge.
func (t *Topology) Neighbor(id NodeID, d Dir) (NodeID, bool) {
	c := t.Coord(id)
	v := [3]int{c.X, c.Y, c.Z}
	a := int(d.Axis)
	nv := v[a] + d.Sign
	if nv < 0 || nv >= t.dims[a] {
		if !t.wrap[a] {
			return 0, false
		}
		nv = (nv + t.dims[a]) % t.dims[a]
	}
	v[a] = nv
	return t.ID(Coord{v[0], v[1], v[2]}), true
}

// Walk applies the route from src to dst, returning every node visited
// including both endpoints. It is the reference executable specification of
// Route, used by tests.
func (t *Topology) Walk(src, dst NodeID) []NodeID {
	nodes := []NodeID{src}
	cur := src
	for _, d := range t.Route(src, dst) {
		next, ok := t.Neighbor(cur, d)
		if !ok {
			panic(fmt.Sprintf("topo: route from %d to %d fell off the mesh at %d going %v", src, dst, cur, d))
		}
		cur = next
		nodes = append(nodes, cur)
	}
	return nodes
}

// Diameter returns the maximum hop count over all node pairs, computed
// analytically per axis.
func (t *Topology) Diameter() int {
	d := 0
	for a := 0; a < 3; a++ {
		if t.wrap[a] {
			d += t.dims[a] / 2
		} else {
			d += t.dims[a] - 1
		}
	}
	return d
}

// NextHop returns the direction a packet for dst takes when it is at node
// at, and ok=false when at == dst (deliver locally). It is the entry a
// table-based router holds: "The table-based routers provide a fixed path
// between all nodes, resulting in in-order delivery of packets" (paper §2).
func (t *Topology) NextHop(at, dst NodeID) (Dir, bool) {
	ca, cd := t.Coord(at), t.Coord(dst)
	from := [3]int{ca.X, ca.Y, ca.Z}
	to := [3]int{cd.X, cd.Y, cd.Z}
	for a := 0; a < 3; a++ {
		sign, hops := t.axisStep(Axis(a), from[a], to[a])
		if hops > 0 {
			return Dir{Axis: Axis(a), Sign: sign}, true
		}
	}
	return Dir{}, false
}

// Step is one hop of the route from at to dst: the direction NextHop gives
// and the router Neighbor finds that way, from one pair of coordinate lookups
// and no modulo; ok=false when at == dst. The fabric takes every hop here.
func (t *Topology) Step(at, dst NodeID) (d Dir, next NodeID, ok bool) {
	ca, cd := t.Coord(at), t.Coord(dst)
	from := [3]int{ca.X, ca.Y, ca.Z}
	to := [3]int{cd.X, cd.Y, cd.Z}
	stride := [3]int{t.dims[1] * t.dims[2], t.dims[2], 1}
	for a, p := range from {
		q, n := to[a], t.dims[a]
		if p == q {
			continue
		}
		fwd := q - p // hops going +, as axisStep counts them
		if fwd < 0 {
			fwd += n
		}
		sign := 1
		if t.wrap[a] && fwd > n-fwd || !t.wrap[a] && q < p {
			sign = -1
		}
		id := int(at) + sign*stride[a]
		switch p + sign { // across a torus's seam
		case -1:
			id += n * stride[a]
		case n:
			id -= n * stride[a]
		}
		return Dir{Axis: Axis(a), Sign: sign}, NodeID(id), true
	}
	return Dir{}, 0, false
}

// RouteTable materializes one node's full routing table: the next-hop
// direction for every destination (the entry for the node itself is
// meaningless and marked invalid). Real SeaStar routers held exactly this;
// the simulator computes hops on demand, and tests verify the two agree.
func (t *Topology) RouteTable(at NodeID) []Dir {
	table := make([]Dir, t.Nodes())
	for dst := NodeID(0); int(dst) < t.Nodes(); dst++ {
		if dst == at {
			continue
		}
		d, ok := t.NextHop(at, dst)
		if !ok {
			panic("topo: no next hop for distinct nodes")
		}
		table[dst] = d
	}
	return table
}
