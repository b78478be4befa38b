package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"portals3/internal/machine"
)

// setupProbes is how many times the set-up probe runs; setup_* metrics are
// medians over them.
const setupProbes = 31

// runOpts selects one measurement: the workload seed, the run length
// (seconds of measured iterations, or the workload's fixed count when 0)
// and the smoke shape.
type runOpts struct {
	seed    uint64
	seconds float64
	iters   int // fixed iteration count, used when seconds is 0
	smoke   bool
}

// more reports whether iteration i (from 0) of a loop begun at start should
// run: until the seconds have passed, with at least two iterations, or for
// the fixed count when no seconds were given.
func (o runOpts) more(i int, start time.Time) bool {
	if o.seconds > 0 {
		return i < 2 || time.Since(start).Seconds() < o.seconds
	}
	return i < o.iters
}

// timed is the outcome of the untraced run of one workload.
type timed struct {
	walls      []float64 // host seconds per job iteration, in run order
	allocs     float64   // heap objects allocated per job
	allocBytes float64   // heap bytes allocated per job
	job        jobOut    // iteration 0's simulated quantities
	attempted  int
	failures   []string
}

func (t *timed) absorb(i int, o jobOut, ref []byte) {
	t.attempted += o.checks + 1
	for _, f := range o.failed {
		t.failures = append(t.failures, fmt.Sprintf("iteration %d: %s", i, f))
	}
	if !bytes.Equal(o.digest, ref) {
		t.failures = append(t.failures, fmt.Sprintf("iteration %d: simulated output differs from iteration 0", i))
	}
}

// measure runs the job untraced: one discarded warm-up iteration (none in a
// smoke run), a forced collection, then the measured iterations back to back
// with nothing else running in the process. Allocation totals come from one
// MemStats delta around the whole loop, so reading them costs the iterations
// nothing.
func measure(w *workload, opt runOpts) timed {
	job := func() jobOut { return w.run(opt.seed, opt.smoke, nil) }
	var t timed
	var ref []byte
	if !opt.smoke {
		warm := job()
		ref, t.job = warm.digest, warm
		t.absorb(-1, warm, ref)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; opt.more(i, start); i++ {
		t0 := time.Now()
		o := job()
		t.walls = append(t.walls, time.Since(t0).Seconds())
		if ref == nil { // smoke: no warm-up, so the first iteration is the reference
			ref, t.job = o.digest, o
		}
		t.absorb(i, o, ref)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(t.walls))
	t.allocs = float64(after.Mallocs-before.Mallocs) / n
	t.allocBytes = float64(after.TotalAlloc-before.TotalAlloc) / n
	return t
}

// setup is the outcome of the set-up probes of one workload.
type setup struct {
	seconds   []float64
	allocs    []float64
	liveBytes []float64
}

// measureSetup runs the workload's set-up probe `probes` times. A probe
// starts from a collected heap and builds the machine w.setupReps times (the
// two-node machine takes a third of a millisecond, too little to time once);
// what one finished machine keeps reachable is read after a second
// collection while the probe still holds the last one.
func measureSetup(w *workload, opt runOpts, probes int) setup {
	var s setup
	var before, built, after runtime.MemStats
	for i := 0; i < probes; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		reps := float64(w.setupReps)
		t0 := time.Now()
		var m *machine.Machine
		for r := 0; r < w.setupReps; r++ {
			m = w.build(opt.seed, opt.smoke)
		}
		s.seconds = append(s.seconds, time.Since(t0).Seconds()/reps)
		runtime.ReadMemStats(&built)
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(m)
		s.allocs = append(s.allocs, float64(built.Mallocs-before.Mallocs)/reps)
		s.liveBytes = append(s.liveBytes, float64(after.HeapAlloc)-float64(before.HeapAlloc))
	}
	return s
}
