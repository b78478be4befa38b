// Package netpipe reimplements the NetPIPE 3.6.2 methodology the paper uses
// for every figure (§5.2): a message-size schedule with ±perturbation
// around powers of two, size-dependent iteration counts, and three traffic
// patterns — ping-pong, uni-directional streaming, and bi-directional — run
// by one driver over two modules: a Portals module (put and get variants,
// the module the authors wrote for the paper) and an MPI module. The driver
// owns the schedule, the warm-up, the timed block and the points; a module
// supplies only its transfers.
//
// Latency is reported NetPIPE-style as round-trip-time divided by two;
// bandwidth in MB/s (10^6 bytes per second), matching the paper's axes.
package netpipe

import (
	"fmt"
	"math"
	"sort"

	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
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

// At returns the curve's point at exactly bytes, and false if it has none.
func (r Result) At(bytes int) (Point, bool) {
	for _, pt := range r.Points {
		if pt.Bytes == bytes {
			return pt, true
		}
	}
	return Point{}, false
}

// HalfBandwidthBytes interpolates the message size at which the curve
// reaches half its peak bandwidth, log-linearly between the two sizes that
// straddle it; NaN if no pair does.
func (r Result) HalfBandwidthBytes() float64 {
	peak := 0.0
	for _, pt := range r.Points {
		if pt.MBps > peak {
			peak = pt.MBps
		}
	}
	half := peak / 2
	for i := 1; i < len(r.Points); i++ {
		a, b := r.Points[i-1], r.Points[i]
		if a.MBps < half && b.MBps >= half {
			fa, fb := math.Log(float64(a.Bytes)), math.Log(float64(b.Bytes))
			t := (half - a.MBps) / (b.MBps - a.MBps)
			return math.Exp(fa + t*(fb-fa))
		}
	}
	return math.NaN()
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

// transfers is what a module supplies to the driver: the transfer
// primitives the three patterns are built from. Rank 0 times, rank 1
// echoes; each method is one rank's half of its step.
type transfers interface {
	// now is the rank's simulated clock.
	now() sim.Time
	// round is rank 0's ping-pong round: send n bytes, wait for the echo.
	round(n int)
	// echo is rank 1's half of a round: wait for n bytes, send them back.
	echo(n int)
	// send streams n bytes from rank 0, pacing on local completion only.
	send(n int)
	// recv is rank 1's wait for one streamed message.
	recv(n int)
	// signal is rank 1's stream handshake to rank 0: the receiver is ready
	// or, when last, has the whole block. await is rank 0's wait for it.
	signal(last bool)
	await()
	// exchange is one bidir step on either rank: n bytes each way at once.
	exchange(n int)
}

// curve is one run of the driver: the size schedule both ranks walk and
// what rank 0 records.
type curve struct {
	pat   Pattern
	cfg   Config
	sizes []int
	// lat accumulates per-round latencies (RTT/2, in picoseconds) of one
	// ping-pong block; reset per size, so a point's percentiles cover
	// exactly its timed iterations.
	lat    telemetry.Histogram
	points []Point
}

// drive is the NetPIPE driver every module runs under: it builds the
// two-node machine, has start launch the module's two ranks on it (each
// rank ending in c.run once set up), and runs the machine to the end.
func drive(p model.Params, series string, pat Pattern, cfg Config, start func(m *machine.Machine, c *curve)) Result {
	m := machine.NewPair(p)
	if cfg.Observe != nil {
		cfg.Observe(m)
	}
	c := &curve{pat: pat, cfg: cfg, sizes: Sizes(cfg.MaxBytes, cfg.Perturbation)}
	start(m, c)
	m.Run()
	return Result{Series: series, Pat: pat, Points: c.points}
}

// run is one rank's side of the whole curve: at every size, a warm-up
// step and then the block of cfg.iters steps, which rank 0 times.
func (c *curve) run(rank int, t transfers) {
	for _, n := range c.sizes {
		k := c.cfg.iters(n)
		if rank == 0 {
			c.points = append(c.points, c.timed(t, n, k))
			continue
		}
		switch c.pat {
		case PingPong:
			for i := 0; i < k+1; i++ {
				t.echo(n)
			}
		case Stream:
			t.recv(n) // warm-up
			t.signal(false)
			for i := 0; i < k; i++ {
				t.recv(n)
			}
			t.signal(true)
		case Bidir:
			for i := 0; i < k+1; i++ {
				t.exchange(n)
			}
		}
	}
}

// timed is rank 0's side of one size: a warm-up step, then k timed steps.
func (c *curve) timed(t transfers, n, k int) Point {
	var t0 sim.Time
	switch c.pat {
	case PingPong:
		t.round(n) // warm-up
		c.lat.Reset()
		t0 = t.now()
		for i := 0; i < k; i++ {
			t1 := t.now()
			t.round(n)
			c.lat.Observe(int64((t.now() - t1) / 2))
		}
	case Stream:
		t.send(n) // warm-up
		t.await() // the receiver is ready
		t0 = t.now()
		for i := 0; i < k; i++ {
			t.send(n)
		}
		t.await() // the receiver has them all
	case Bidir:
		t.exchange(n) // warm-up
		t0 = t.now()
		for i := 0; i < k; i++ {
			t.exchange(n)
		}
	}
	return c.point(n, k, t.now()-t0)
}

// point converts a timed block into a measurement. Only ping-pong blocks
// are made of rounds, so only they report a latency and its percentiles.
func (c *curve) point(size, iters int, elapsed sim.Time) Point {
	pt := Point{Bytes: size, Iters: iters, Elapsed: elapsed}
	transfersPerIter := 2 // ping-pong rounds and bidir exchanges move two messages
	if c.pat == Stream {
		transfersPerIter = 1
	}
	if c.pat == PingPong {
		pt.Latency = elapsed / sim.Time(iters) / 2
		pt.P50 = sim.Time(c.lat.Quantile(0.5))
		pt.P99 = sim.Time(c.lat.Quantile(0.99))
	}
	totalBytes := float64(size) * float64(iters) * float64(transfersPerIter)
	if elapsed > 0 {
		pt.MBps = totalBytes / elapsed.Seconds() / 1e6
	}
	return pt
}
