// Package netpipe reimplements the NetPIPE 3.6.2 methodology the paper uses
// for every figure (§5.2): a message-size schedule with ±perturbation
// around powers of two, size-dependent iteration counts, and three traffic
// patterns — ping-pong, uni-directional streaming, and bi-directional — run
// by a Portals module (put and get variants, the module the authors wrote
// for the paper) and an MPI module.
//
// Latency is reported NetPIPE-style as round-trip-time divided by two;
// bandwidth in MB/s (10^6 bytes per second), matching the paper's axes.
package netpipe

import (
	"fmt"
	"sort"

	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
)

// Pattern is the traffic pattern of a run.
type Pattern int

// The three NetPIPE test patterns used in the paper's figures.
const (
	// PingPong alternates one message each way (Figures 4 and 5).
	PingPong Pattern = iota
	// Stream sends continuously one way (Figure 6).
	Stream
	// Bidir exercises both directions simultaneously (Figure 7).
	Bidir
)

func (p Pattern) String() string {
	return [...]string{"pingpong", "stream", "bidir"}[p]
}

// Op selects the Portals module's operation.
type Op int

// Portals module operations.
const (
	OpPut Op = iota
	OpGet
)

func (o Op) String() string {
	if o == OpPut {
		return "put"
	}
	return "get"
}

// Point is one measurement.
type Point struct {
	Bytes   int
	Iters   int
	Elapsed sim.Time // whole measured block
	// Latency is RTT/2 for ping-pong patterns; zero otherwise.
	Latency sim.Time
	// P50 and P99 are per-round latency percentiles (RTT/2) for ping-pong
	// patterns, from a per-iteration histogram; zero otherwise. In a
	// deterministic simulation the spread comes from real model effects —
	// warm vs cold descriptor state, interrupt coalescing, chunk pacing —
	// not noise.
	P50, P99 sim.Time
	// MBps is bandwidth in 10^6 bytes per second (the paper's MB/s axis).
	MBps float64
}

func (pt Point) String() string {
	if pt.P99 > 0 {
		return fmt.Sprintf("%8d B  %7.2f us  %9.2f MB/s  p50 %7.2f us  p99 %7.2f us",
			pt.Bytes, pt.Latency.Micros(), pt.MBps, pt.P50.Micros(), pt.P99.Micros())
	}
	return fmt.Sprintf("%8d B  %7.2f us  %9.2f MB/s", pt.Bytes, pt.Latency.Micros(), pt.MBps)
}

// Result is one full curve.
type Result struct {
	Series string // legend label, e.g. "put", "get", "mpich2"
	Pat    Pattern
	Points []Point
}

// Config shapes a run.
type Config struct {
	// MaxBytes is the largest message (paper: 8 MB).
	MaxBytes int
	// Perturbation samples 2^k−p and 2^k+p around each power of two
	// (NetPIPE's default 3).
	Perturbation int
	// MinIters/MaxIters clamp the per-size iteration count.
	MinIters, MaxIters int
	// Mode selects generic or accelerated Portals processing.
	Mode machine.Mode
	// Observe, when set, is called with the freshly built machine before
	// the run starts — the hook for tracing and statistics collection.
	Observe func(*machine.Machine)
}

// DefaultConfig mirrors the paper's runs.
func DefaultConfig() Config {
	return Config{
		MaxBytes:     8 << 20,
		Perturbation: 3,
		MinIters:     3,
		MaxIters:     120,
		Mode:         machine.Generic,
	}
}

// Sizes generates the NetPIPE size schedule: 1, 2, 3, then 2^k−p, 2^k,
// 2^k+p for each power of two through max.
func Sizes(max, pert int) []int {
	var out []int
	seen := map[int]bool{}
	add := func(n int) {
		if n >= 1 && n <= max && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	add(1)
	add(2)
	add(3)
	for k := 2; 1<<k <= max; k++ {
		base := 1 << k
		if pert > 0 {
			add(base - pert)
		}
		add(base)
		if pert > 0 && base+pert <= max {
			add(base + pert)
		}
	}
	sort.Ints(out)
	return out
}

// iters is the deterministic size-dependent iteration count; both sides of
// a run compute it identically, which keeps them in lock step without a
// control channel.
func (c Config) iters(size int) int {
	n := 2_000_000 / (size + 2000)
	if n < c.MinIters {
		n = c.MinIters
	}
	if n > c.MaxIters {
		n = c.MaxIters
	}
	return n
}

// fillPercentiles copies a round-latency histogram's p50/p99 into a point.
func fillPercentiles(pt *Point, h *telemetry.Histogram) {
	if h.Count() == 0 {
		return
	}
	pt.P50 = sim.Time(h.Quantile(0.5))
	pt.P99 = sim.Time(h.Quantile(0.99))
}

// finish converts a measured block into a point.
func point(size, iters int, elapsed sim.Time, transfersPerIter int, latHalf bool) Point {
	pt := Point{Bytes: size, Iters: iters, Elapsed: elapsed}
	per := elapsed / sim.Time(iters)
	if latHalf {
		pt.Latency = per / 2
	}
	totalBytes := float64(size) * float64(iters) * float64(transfersPerIter)
	if elapsed > 0 {
		pt.MBps = totalBytes / elapsed.Seconds() / 1e6
	}
	return pt
}

// RunMPI measures one MPI curve over a fresh two-node machine.
func RunMPI(p model.Params, impl mpi.Impl, pat Pattern, cfg Config) Result {
	m := machine.NewPair(p)
	if cfg.Observe != nil {
		cfg.Observe(m)
	}
	sizes := Sizes(cfg.MaxBytes, cfg.Perturbation)
	var points []Point

	err := mpi.Launch(m, []topo.NodeID{0, 1}, impl, cfg.Mode, func(r *mpi.Rank) {
		buf := r.Alloc(cfg.MaxBytes)
		rbuf := r.Alloc(cfg.MaxBytes)
		me, other := r.Rank(), 1-r.Rank()
		lat := telemetry.NewHistogram()
		r.Barrier()
		for _, s := range sizes {
			k := cfg.iters(s)
			switch pat {
			case PingPong:
				if me == 0 {
					// Warmup round.
					r.Send(other, 1, buf, 0, s)
					r.Recv(other, 2, rbuf, 0, s)
					lat.Reset()
					t0 := r.Proc().Now()
					for i := 0; i < k; i++ {
						t1 := r.Proc().Now()
						r.Send(other, 1, buf, 0, s)
						r.Recv(other, 2, rbuf, 0, s)
						lat.Observe(int64((r.Proc().Now() - t1) / 2))
					}
					pt := point(s, k, r.Proc().Now()-t0, 2, true)
					fillPercentiles(&pt, lat)
					points = append(points, pt)
				} else {
					for i := 0; i < k+1; i++ {
						r.Recv(other, 1, rbuf, 0, s)
						r.Send(other, 2, buf, 0, s)
					}
				}
			case Stream:
				if me == 0 {
					r.Send(other, 1, buf, 0, s) // warmup
					r.Recv(other, 3, rbuf, 0, 0)
					t0 := r.Proc().Now()
					for i := 0; i < k; i++ {
						r.Send(other, 1, buf, 0, s)
					}
					r.Recv(other, 3, rbuf, 0, 0) // receiver's "got them all"
					points = append(points, point(s, k, r.Proc().Now()-t0, 1, false))
				} else {
					r.Recv(other, 1, rbuf, 0, s)
					r.Send(other, 3, buf, 0, 0)
					for i := 0; i < k; i++ {
						r.Recv(other, 1, rbuf, 0, s)
					}
					r.Send(other, 3, buf, 0, 0)
				}
			case Bidir:
				r.Sendrecv(other, 1, buf, 0, s, other, 1, rbuf, 0, s) // warmup
				t0 := r.Proc().Now()
				for i := 0; i < k; i++ {
					r.Sendrecv(other, 1, buf, 0, s, other, 1, rbuf, 0, s)
				}
				if me == 0 {
					points = append(points, point(s, k, r.Proc().Now()-t0, 2, true))
				}
			}
		}
	})
	if err != nil {
		panic(err)
	}
	m.Run()
	return Result{Series: impl.String(), Pat: pat, Points: points}
}
