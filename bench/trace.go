package main

// The traced run: a few iterations of a workload with the program's own
// observers on (host profile and telemetry for torus jobs, telemetry on each
// NetPIPE machine for figure jobs), spans recorded from outside around the
// calls into it, a CPU profile charged to layers, and a heap sampler. It is
// separate from the timed run, whose numbers no observer touches.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"portals3/internal/experiments"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/netpipe"
	"portals3/internal/telemetry"
)

// span is one interval recorded by the harness. Source is "clock" when both
// ends were read from the harness's clock and "hostprofile" when only the
// duration is known (the program measured it itself); such a span is placed
// at its parent's start.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Iter    int    `json:"iter"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Source  string `json:"source"`
}

// observed is the counts one traced iteration produced, summed over the
// machines it ran. Every field is simulated, so it must repeat exactly.
type observed struct {
	Events, Windows                     uint64
	FabricMsgs, FabricChunks, LinkRetry uint64
	Injected, Recovered, Condemned      uint64
	HeadersRx, MsgsTx, EventsPosted     uint64
	Interrupts, Coalesced               uint64
	E2EP50Ps, E2EP99Ps, HolP99Ps        int64

	prof *machine.HostProfile // host-side, not compared
}

func (o *observed) addStats(st machine.Stats) {
	o.FabricMsgs += st.Fabric.Messages
	o.FabricChunks += st.Fabric.Chunks
	o.LinkRetry += st.Fabric.LinkRetries
	for _, n := range st.Nodes {
		o.HeadersRx += n.Firmware.HeadersRx
		o.MsgsTx += n.Firmware.MsgsTx
		o.EventsPosted += n.Firmware.EventsPosted
		o.Interrupts += n.Interrupts
		o.Coalesced += n.Coalesced
	}
}

// addTelemetry reads the message latency percentiles and the head-of-line
// wait p99 (over all hop counts, as a bucket upper bound) from an export.
func (o *observed) addTelemetry(e *telemetry.Export) {
	if m := e.Metric("portals_msg_e2e_ps", ""); m != nil {
		o.E2EP50Ps, o.E2EP99Ps = m.P50, m.P99
	}
	var buckets []telemetry.ExportBound
	var total uint64
	for _, m := range e.Metrics {
		if m.Name == "fabric_link_hol_wait_by_hops_ps" {
			buckets = append(buckets, m.Buckets...)
			total += m.Count
		}
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Le < buckets[j].Le })
	var seen uint64
	for _, b := range buckets {
		seen += b.Count
		if float64(seen) >= 0.99*float64(total) {
			o.HolP99Ps = b.Le
			break
		}
	}
}

type tracer struct {
	t0    time.Time
	iter  int
	spans []span
	stack []int // open span ids, innermost last

	// figure jobs: the machines of the current iteration, harvested when the
	// job span closes.
	machines []*machine.Machine
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) begin(name string) int {
	parent := 0
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Iter: tr.iter, Name: name,
		StartNs: time.Since(tr.t0).Nanoseconds(), Source: "clock"})
	tr.stack = append(tr.stack, id)
	return id
}

func (tr *tracer) end(id int) {
	tr.spans[id-1].EndNs = time.Since(tr.t0).Nanoseconds()
	tr.stack = tr.stack[:len(tr.stack)-1]
}

// figure runs one figure's four series one by one, each inside a span, with
// a child span from the moment its machine exists to the series' return.
func (tr *tracer) figure(id string, pat netpipe.Pattern, maxBytes int) experiments.Figure {
	p := model.Defaults()
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = maxBytes
	series := []struct {
		name string
		run  func(netpipe.Config) netpipe.Result
	}{ // the paper's legend order, as experiments.FigureN assembles it
		{"get", func(c netpipe.Config) netpipe.Result { return netpipe.RunPortals(p, netpipe.OpGet, pat, c) }},
		{"mpich2", func(c netpipe.Config) netpipe.Result { return netpipe.RunMPI(p, mpi.MPICH2, pat, c) }},
		{"mpich1", func(c netpipe.Config) netpipe.Result { return netpipe.RunMPI(p, mpi.MPICH1, pat, c) }},
		{"put", func(c netpipe.Config) netpipe.Result { return netpipe.RunPortals(p, netpipe.OpPut, pat, c) }},
	}
	f := experiments.Figure{ID: id, Pat: pat}
	for _, s := range series {
		outer := tr.begin("netpipe_" + s.name)
		c, running := cfg, 0
		c.Observe = func(m *machine.Machine) {
			m.EnableTelemetry()
			tr.machines = append(tr.machines, m)
			running = tr.begin("machine_run")
		}
		r := s.run(c)
		if running != 0 {
			tr.end(running)
		}
		tr.end(outer)
		f.Series = append(f.Series, r)
	}
	return f
}

// harvestFigures folds the iteration's NetPIPE machines into one count set.
func (tr *tracer) harvestFigures() *observed {
	o := &observed{}
	var tels []*telemetry.Telemetry
	for _, m := range tr.machines {
		o.Events += m.S.Fired
		o.addStats(m.Stats())
		tels = append(tels, m.Telemetry())
	}
	o.addTelemetry(telemetry.Merged(tels...).Snapshot(0))
	tr.machines = nil
	return o
}

// harvestTorus reads a torus job's counts from the artifacts its result
// carries: the host profile, the counter table and the telemetry export.
func (tr *tracer) harvestTorus(res experiments.TorusResult) *observed {
	o := &observed{Windows: res.Windows, prof: res.HostProfile,
		Injected: res.FaultStats.Injected(), Recovered: res.FaultStats.Recovered, Condemned: res.FaultStats.Condemned}
	if hp := res.HostProfile; hp != nil {
		o.Events = hp.Events
		parent := tr.stack[len(tr.stack)-1]
		start := tr.spans[parent-1].StartNs
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Iter: tr.iter,
			Name: "machine_run", StartNs: start, EndNs: start + hp.RunWallNs, Source: "hostprofile"})
	}
	// The counter table: one row per node, then the fabric line.
	for _, line := range strings.Split(res.StatsText, "\n") {
		var node, irq, coal, hdrs, tx, evs uint64
		var os string
		if n, _ := fmt.Sscanf(line, "%d %s %d %d %d %d %d", &node, &os, &irq, &coal, &hdrs, &tx, &evs); n == 7 {
			o.Interrupts += irq
			o.Coalesced += coal
			o.HeadersRx += hdrs
			o.MsgsTx += tx
			o.EventsPosted += evs
			continue
		}
		var delivered uint64
		fmt.Sscanf(line, "fabric: %d messages, %d chunks, %d link retries, %d delivered",
			&o.FabricMsgs, &o.FabricChunks, &o.LinkRetry, &delivered)
	}
	if e, err := telemetry.ReadJSON(bytes.NewReader(res.TelemetryJSON)); err == nil {
		o.addTelemetry(e)
	}
	return o
}

// sumSpans is the total duration in seconds of iteration iter's spans named
// name.
func (tr *tracer) sumSpans(iter int, name string) float64 {
	var ns int64
	for _, s := range tr.spans {
		if s.Iter == iter && s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// write stores the spans with their self times (duration minus the part
// covered by child spans) under dir.
func (tr *tracer) write(dir, workload string) error {
	type outSpan struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	out := make([]outSpan, len(tr.spans))
	for i, s := range tr.spans {
		out[i] = outSpan{span: s, SelfNs: s.EndNs - s.StartNs}
	}
	for _, s := range tr.spans {
		if s.Parent != 0 {
			out[s.Parent-1].SelfNs -= s.EndNs - s.StartNs
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]interface{}{"workload": workload, "spans": out}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// heapSampler polls the live heap while a traced run executes. It is the
// only helper goroutine the harness ever starts, and only in traced runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the sampler and returns the peak once its goroutine has exited.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// cpuSeconds reads the runtime's own CPU accounting: time spent in the
// collector and time spent on anything at all.
func cpuSeconds() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// traced is the outcome of the traced run of one workload.
type traced struct {
	metrics   map[string]float64
	attempted int
	failures  []string
}

// traceRun runs the workload's job with observers on — at least two
// iterations, until seconds have passed or iters are done — and derives the
// per-layer metrics that come from a whole job. untracedWall is the timed
// run's median, the base of trace.overhead_pct.
func traceRun(w *workload, opt runOpts, untracedWall float64, outDir string) (traced, error) {
	tr := newTracer()
	var res traced
	var walls []float64
	var outs []jobOut

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	gc0, busy0 := cpuSeconds()
	sampler := startHeapSampler()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		sampler.Stop()
		return res, fmt.Errorf("cpu profile: %w", err)
	}
	start := time.Now()
	for i := 0; opt.more(i, start); i++ {
		tr.iter = i
		id := tr.begin("job")
		o := w.run(opt.seed, opt.smoke, tr)
		tr.end(id)
		if o.obs == nil {
			o.obs = tr.harvestFigures()
		}
		walls = append(walls, float64(tr.spans[id-1].EndNs-tr.spans[id-1].StartNs)/1e9)
		outs = append(outs, o)
	}
	pprof.StopCPUProfile()
	peak := sampler.Stop()
	gc1, busy1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)

	// Simulated output and every count must repeat exactly between traced
	// iterations.
	for i, o := range outs {
		res.attempted += o.checks + 2
		for _, f := range o.failed {
			res.failures = append(res.failures, fmt.Sprintf("traced iteration %d: %s", i, f))
		}
		if !bytes.Equal(o.digest, outs[0].digest) {
			res.failures = append(res.failures, fmt.Sprintf("traced iteration %d: simulated output differs from traced iteration 0", i))
		}
		a, b := *o.obs, *outs[0].obs
		a.prof, b.prof = nil, nil
		if a != b {
			res.failures = append(res.failures, fmt.Sprintf("traced iteration %d: counts differ from traced iteration 0: %+v vs %+v", i, a, b))
		}
	}

	n := len(outs)
	job, first := median(walls), outs[0]
	c := first.obs
	msgs := float64(first.msgs)
	m := map[string]float64{
		"trace.overhead_pct": 100 * (job/untracedWall - 1),
		"span.job_s":         job,

		"sim.events":            float64(c.Events),
		"sim.events_per_msg":    float64(c.Events) / msgs,
		"sim.ns_per_event":      job * 1e9 / float64(c.Events),
		"sim.events_per_s":      float64(c.Events) / job,
		"sim.windows":           float64(c.Windows),
		"sim.events_per_window": ratio(float64(c.Events), float64(c.Windows)),

		"fabric.msgs":             float64(c.FabricMsgs),
		"fabric.chunks":           float64(c.FabricChunks),
		"fabric.link_retries":     float64(c.LinkRetry),
		"fabric.faults_injected":  float64(c.Injected),
		"fabric.faults_recovered": float64(c.Recovered),
		"fabric.faults_condemned": float64(c.Condemned),
		"fw.headers_rx":           float64(c.HeadersRx),
		"fw.msgs_tx":              float64(c.MsgsTx),
		"fw.events_posted":        float64(c.EventsPosted),
		"fw.tx_per_msg":           float64(c.MsgsTx) / msgs,
		"oskernel.interrupts":     float64(c.Interrupts),
		"oskernel.coalesced":      float64(c.Coalesced),
		"oskernel.irq_per_msg":    float64(c.Interrupts) / msgs,
		"model.msg_e2e_us_p50":    float64(c.E2EP50Ps) / 1e6,
		"model.msg_e2e_us_p99":    float64(c.E2EP99Ps) / 1e6,
		"model.hol_wait_us_p99":   float64(c.HolP99Ps) / 1e6,

		"harness.peak_heap_bytes": float64(peak),
		"harness.gc_count":        float64(ms1.NumGC-ms0.NumGC) / float64(n),
		"harness.gc_cpu_share":    ratio(gc1-gc0, busy1-busy0),
	}
	perIter := func(name string) float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = tr.sumSpans(i, name)
		}
		return median(v)
	}
	m["span.machine_run_s"] = perIter("machine_run")
	m["span.nonrun_s"] = job - m["span.machine_run_s"]
	for _, s := range []string{"put", "get", "mpich1", "mpich2"} {
		m["span.netpipe_"+s+"_s"] = perIter("netpipe_" + s)
	}

	// Kernel accounting, medians over the iterations' host profiles; zero on
	// the classic two-node path, which has no sharded kernel.
	kernel := map[string][]float64{}
	for _, o := range outs {
		hp := o.obs.prof
		if hp == nil || hp.WallNs == 0 {
			continue
		}
		var busy, wait, straggler float64
		for _, l := range hp.Lanes {
			busy += float64(l.BusyNs)
			wait += float64(l.WaitNs)
			straggler = math.Max(straggler, ratio(float64(l.StragglerWindows), float64(hp.Windows)))
		}
		lanes := float64(len(hp.Lanes)) * float64(hp.WallNs)
		kernel["sim.kernel.exec_share"] = append(kernel["sim.kernel.exec_share"], busy/lanes)
		kernel["sim.kernel.wait_share"] = append(kernel["sim.kernel.wait_share"], wait/lanes)
		kernel["sim.kernel.drain_share"] = append(kernel["sim.kernel.drain_share"], float64(hp.DrainNs)/float64(hp.WallNs))
		kernel["sim.kernel.imbalance_pct"] = append(kernel["sim.kernel.imbalance_pct"], hp.MeanImbalancePct)
		kernel["sim.kernel.straggler_max_share"] = append(kernel["sim.kernel.straggler_max_share"], straggler)
	}
	for _, k := range []string{"exec_share", "wait_share", "drain_share", "imbalance_pct", "straggler_max_share"} {
		m["sim.kernel."+k] = median(kernel["sim.kernel."+k])
	}

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return res, err
	}
	for k, v := range shares {
		m[k] = v
	}
	res.metrics = m
	return res, tr.write(outDir, w.name)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
