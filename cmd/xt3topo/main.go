// Command xt3topo inspects the simulated machine's interconnect: node
// coordinates, dimension-ordered routes, hop counts and the wire-latency
// estimates behind the paper's 2 µs nearest-neighbor / 5 µs worst-case
// requirements (§1).
//
//	xt3topo -info                      # Red Storm shape and diameter
//	xt3topo -route 0,4711              # path between two nodes
//	xt3topo -dims 8x8x8 -wrap xyz -route 0,511
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xt3topo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dims := fs.String("dims", "", "topology as NxNxN (default: Red Storm 27x16x24)")
	wrap := fs.String("wrap", "z", "torus axes, subset of xyz")
	info := fs.Bool("info", false, "print machine shape summary")
	route := fs.String("route", "", "print the route between two nodes: src,dst")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bad := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "xt3topo: "+format+"\n", a...)
		return 2
	}

	tp, err := buildTopo(*dims, *wrap)
	if err != nil {
		return bad("-dims %q: %v", *dims, err)
	}
	var src, dst int
	if *route != "" {
		a, b, ok := strings.Cut(*route, ",")
		var err1, err2 error
		src, err1 = strconv.Atoi(strings.TrimSpace(a))
		dst, err2 = strconv.Atoi(strings.TrimSpace(b))
		if !ok || err1 != nil || err2 != nil || !tp.Valid(topo.NodeID(src)) || !tp.Valid(topo.NodeID(dst)) {
			return bad("-route %q: want src,dst with node ids in [0, %d)", *route, tp.Nodes())
		}
	}
	p := model.Defaults()

	if *info || *route == "" {
		nx, ny, nz := tp.Dims()
		fmt.Fprintf(stdout, "topology: %d x %d x %d = %d nodes\n", nx, ny, nz, tp.Nodes())
		fmt.Fprintf(stdout, "torus axes:")
		for _, a := range []topo.Axis{topo.X, topo.Y, topo.Z} {
			if tp.Wrapped(a) {
				fmt.Fprintf(stdout, " %v", a)
			}
		}
		fmt.Fprintln(stdout)
		d := tp.Diameter()
		fmt.Fprintf(stdout, "diameter: %d hops\n", d)
		fmt.Fprintf(stdout, "per-hop latency: %v\n", p.HopLatency)
		near := wireLatency(&p, 1)
		far := wireLatency(&p, d)
		fmt.Fprintf(stdout, "wire latency (64B packet): nearest neighbor %v, farthest pair %v\n", near, far)
		fmt.Fprintf(stdout, "(paper §1 requirements: 2 us nearest-neighbor MPI, 5 us farthest)\n")
	}

	if *route != "" {
		s, d := topo.NodeID(src), topo.NodeID(dst)
		fmt.Fprintf(stdout, "route %d%v -> %d%v: %d hops\n", s, tp.Coord(s), d, tp.Coord(d), tp.Hops(s, d))
		path := tp.Route(s, d)
		var dirs []string
		for _, h := range path {
			dirs = append(dirs, h.String())
		}
		fmt.Fprintf(stdout, "  links: %s\n", strings.Join(dirs, " "))
		fmt.Fprintf(stdout, "  wire latency (64B packet): %v\n", wireLatency(&p, len(path)))
	}
	return 0
}

// wireLatency is the pure network time for a header packet over h hops.
func wireLatency(p *model.Params, hops int) sim.Time {
	return 2*p.InjectLatency + sim.Time(hops)*(p.HopLatency+sim.BytesAt(64, p.LinkBps))
}

func buildTopo(dims, wrap string) (*topo.Topology, error) {
	if dims == "" {
		return topo.RedStorm(), nil
	}
	parts := strings.Split(strings.ToLower(dims), "x")
	if len(parts) != 3 {
		return nil, fmt.Errorf("want NxNxN")
	}
	var n [3]int
	for i, s := range parts {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q", s)
		}
		n[i] = v
	}
	w := strings.ToLower(wrap)
	return topo.New(n[0], n[1], n[2],
		strings.Contains(w, "x"), strings.Contains(w, "y"), strings.Contains(w, "z"))
}
