// Command p3stat renders every artifact the machine writes
// (machine.Artifacts) as aligned text — the offline half of the machine's
// monitoring view. It needs only the path: the file's content says what it is.
//
//	p3stat run.json                 # telemetry: breakdown, histograms, occupancy, links, series
//	p3stat h.json                   # host-execution profile: lane busy/wait table
//	p3stat netpipe.p3dump           # flight-recorder dump: occupancy, per-track / per-handler busy time, merged timeline
//	p3stat -spans netpipe.p3dump    # list the causal span ids in a dump
//	p3stat -span 17 netpipe.p3dump  # one message's hop-by-hop path
//	p3stat -chrome out.json netpipe.p3dump  # the dump as a Chrome trace (Perfetto)
//
// Routing: a file that starts with the P3DUMP01 magic is a dump, a JSON
// object whose "kind" is "host_profile" is a host profile, any other JSON
// object is a telemetry export. The Chrome trace is a view p3stat writes,
// not an artifact it reads.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"portals3/internal/experiments"
	"portals3/internal/flightrec"
	"portals3/internal/machine"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// dumpView selects what a flight-recorder dump renders as; the zero value
// is the full report.
type dumpView struct {
	span   uint64
	spans  bool
	chrome string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("p3stat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 16, "rows shown per table section; 0 shows everything")
	var dv dumpView
	fs.Uint64Var(&dv.span, "span", 0, "render only this causal span's hop-by-hop timeline (dumps)")
	fs.BoolVar(&dv.spans, "spans", false, "list the causal span ids present (dumps)")
	fs.StringVar(&dv.chrome, "chrome", "", "write the dump as a chrome-trace timeline to this file instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *top < 0 {
		fmt.Fprintf(stderr, "p3stat: -top %d must be at least 0 (0 shows everything)\n", *top)
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "p3stat: no artifact given (usage: p3stat [flags] FILE...)")
		return 2
	}
	for _, path := range fs.Args() {
		b, err := os.ReadFile(path)
		if err == nil {
			if err = render(stdout, b, path, *top, dv); err != nil {
				err = fmt.Errorf("%s: %w", path, err)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "p3stat: %v\n", err)
			return 1
		}
	}
	return 0
}

// render routes one artifact's bytes by their content.
func render(w io.Writer, b []byte, path string, top int, dv dumpView) error {
	body := bytes.TrimLeft(b, " \t\r\n")
	switch {
	case bytes.HasPrefix(b, []byte("P3DUMP01")):
		d, err := flightrec.Decode(bytes.NewReader(b))
		if err != nil {
			return err
		}
		return renderDump(w, d, path, top, dv)
	case dv != dumpView{}:
		return fmt.Errorf("-span, -spans and -chrome read flight-recorder dumps; this is not one")
	case bytes.HasPrefix(body, []byte("{")):
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(b, &kind); err != nil {
			return err
		}
		if kind.Kind == machine.HostProfileKind {
			var hp machine.HostProfile
			if err := json.Unmarshal(b, &hp); err != nil {
				return err
			}
			renderHostProfile(w, &hp, path, top)
			return nil
		}
		e, err := telemetry.ReadJSON(bytes.NewReader(b))
		if err != nil {
			return err
		}
		renderTelemetry(w, e, path, top)
	default:
		return fmt.Errorf("not an artifact: want a P3DUMP01 dump, a host profile or a telemetry export")
	}
	return nil
}

func renderDump(w io.Writer, d *flightrec.Dump, path string, top int, dv dumpView) error {
	switch {
	case dv.chrome != "":
		var buf bytes.Buffer
		if err := d.WriteChrome(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(dv.chrome, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %d nodes, %d spans -> %s\n", path, len(d.Nodes), len(d.Spans()), dv.chrome)
	case dv.spans:
		fmt.Fprintf(w, "%s: %s at %v (trigger %s)\n", path, d.Reason, d.At, d.Trigger)
		n := d.SpanEvents()
		for _, s := range d.Spans() {
			fmt.Fprintf(w, "  span %-8d %d events\n", s, n[s])
		}
	case dv.span != 0:
		d.RenderSpan(w, dv.span)
	default:
		d.RenderText(w, top)
	}
	return nil
}

// wallMs renders a nanosecond quantity in milliseconds.
func wallMs(ns int64) string { return fmt.Sprintf("%.1fms", float64(ns)/1e6) }

// pctOf renders a share of a total as a percentage, "-" when the total is
// zero.
func pctOf(part, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

// renderHostProfile prints the host-execution table: the global
// wall-clock split, lane imbalance, memory high-water marks, and the
// per-lane busy/wait breakdown ranked by straggler windows — the lanes
// the rest of the machine most often waited for, first.
func renderHostProfile(w io.Writer, hp *machine.HostProfile, path string, top int) {
	fmt.Fprintf(w, "# %s  host-execution profile (shards %d)\n", path, hp.Shards)
	fmt.Fprintf(w, "  windows %d, events %d", hp.Windows, hp.Events)
	if hp.Windows > 0 {
		fmt.Fprintf(w, " (%.1f events/window)", float64(hp.Events)/float64(hp.Windows))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  wall %s: exec %s (%s), drain %s (%s); measured run wall %s\n",
		wallMs(hp.WallNs), wallMs(hp.ExecNs), pctOf(hp.ExecNs, hp.WallNs),
		wallMs(hp.DrainNs), pctOf(hp.DrainNs, hp.WallNs), wallMs(hp.RunWallNs))
	fmt.Fprintf(w, "  barrier: %d inline windows (%s), %d parks",
		hp.InlineWindows, pctOf(int64(hp.InlineWindows), int64(hp.Windows)), hp.Parks)
	if hp.Windows > 0 {
		fmt.Fprintf(w, " (%.1f per 1000 windows)", 1000*float64(hp.Parks)/float64(hp.Windows))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  lane imbalance per window: mean %.1f%%, max %.1f%%\n",
		hp.MeanImbalancePct, hp.MaxImbalancePct)
	fmt.Fprintf(w, "  memory high-water: heap-inuse %.1fMB, heap-alloc %.1fMB, sys %.1fMB, %d GCs (%d samples)\n",
		float64(hp.HeapInuseHigh)/(1<<20), float64(hp.HeapAllocHigh)/(1<<20),
		float64(hp.SysHigh)/(1<<20), hp.NumGC, hp.MemSamples)
	if len(hp.Lanes) == 0 {
		fmt.Fprintln(w)
		return
	}
	lanes := append([]sim.LaneProfile(nil), hp.Lanes...)
	sort.Slice(lanes, func(i, j int) bool {
		a, b := lanes[i], lanes[j]
		if a.StragglerWindows != b.StragglerWindows {
			return a.StragglerWindows > b.StragglerWindows
		}
		if a.BusyNs != b.BusyNs {
			return a.BusyNs > b.BusyNs
		}
		return a.Lane < b.Lane
	})
	shown := lanes[:capLen(len(lanes), top)]
	fmt.Fprintf(w, "\nlane breakdown (worst stragglers first):\n")
	fmt.Fprintf(w, "  %6s %10s %7s %10s %12s %10s %9s\n",
		"lane", "busy", "busy%", "wait", "events", "straggler", "windows%")
	for _, l := range shown {
		fmt.Fprintf(w, "  %6d %10s %7s %10s %12d %10d %9s\n",
			l.Lane, wallMs(l.BusyNs), pctOf(l.BusyNs, hp.WallNs), wallMs(l.WaitNs),
			l.Events, l.StragglerWindows, pctOf(int64(l.StragglerWindows), int64(hp.Windows)))
	}
	footer(w, len(shown), len(lanes), "lanes")
	fmt.Fprintln(w)
}

// ps-valued metric names render in microseconds; everything else raw.
func isPs(name string) bool { return strings.HasSuffix(name, "_ps") }

// capLen is the row count a section shows under -top; top <= 0 disables
// capping. A machine-scale export carries thousands of per-node and
// per-link rows — uncapped tables would bury the summary they exist for.
func capLen(n, top int) int {
	if top <= 0 || n < top {
		return n
	}
	return top
}

// footer prints the elision line after a capped section.
func footer(w io.Writer, shown, total int, unit string) {
	if shown < total {
		fmt.Fprintf(w, "  ... %d of %d %s shown (-top=0 for all)\n", shown, total, unit)
	}
}

// fullName is a metric or series name with its label set.
func fullName(name, labels string) string {
	if labels != "" {
		name += "{" + labels + "}"
	}
	return name
}

func renderTelemetry(w io.Writer, e *telemetry.Export, path string, top int) {
	fmt.Fprintf(w, "# %s  (sim time %.3f us)\n", path, float64(e.SimTimePs)/1e6)

	if bd, ok := e.Breakdown(); ok {
		fmt.Fprintln(w)
		bd.Render(w)
	}

	var hists, scalars []telemetry.ExportMetric
	for _, m := range e.Metrics {
		if m.Kind == "histogram" {
			hists = append(hists, m)
		} else {
			scalars = append(scalars, m)
		}
	}

	if len(hists) > 0 {
		fmt.Fprintf(w, "\nhistograms:\n")
		fmt.Fprintf(w, "  %-44s %8s %12s %12s %12s %12s %12s\n",
			"name", "count", "mean", "p50", "p99", "p999", "max")
		for _, m := range hists[:capLen(len(hists), top)] {
			mean := 0.0
			if m.Count > 0 {
				mean = float64(m.Sum) / float64(m.Count)
			}
			if isPs(m.Name) {
				fmt.Fprintf(w, "  %-44s %8d %10.3fus %10.3fus %10.3fus %10.3fus %10.3fus\n",
					fullName(m.Name, m.Labels), m.Count, mean/1e6, float64(m.P50)/1e6,
					float64(m.P99)/1e6, float64(m.P999)/1e6, float64(m.Max)/1e6)
			} else {
				fmt.Fprintf(w, "  %-44s %8d %12.1f %12d %12d %12d %12d\n",
					fullName(m.Name, m.Labels), m.Count, mean, m.P50, m.P99, m.P999, m.Max)
			}
		}
		footer(w, capLen(len(hists), top), len(hists), "histograms")
	}

	renderOccupancy(w, e, top)
	renderLinkContention(w, e, top)
	if rows := experiments.HopCurve(e); len(rows) > 0 {
		fmt.Fprintln(w)
		experiments.RenderHopCurve(w, rows)
	}

	if len(scalars) > 0 {
		fmt.Fprintf(w, "\ncounters and gauges:\n")
		for _, m := range scalars[:capLen(len(scalars), top)] {
			fmt.Fprintf(w, "  %-60s %14g\n", fullName(m.Name, m.Labels), m.Value)
		}
		footer(w, capLen(len(scalars), top), len(scalars), "counters")
	}

	if len(e.Series) > 0 {
		fmt.Fprintf(w, "\nsampler series:\n")
		fmt.Fprintf(w, "  %-44s %8s %14s %14s\n", "name", "samples", "first", "last")
		for _, s := range e.Series[:capLen(len(e.Series), top)] {
			var first, last float64
			if len(s.Values) > 0 {
				first, last = s.Values[0], s.Values[len(s.Values)-1]
			}
			fmt.Fprintf(w, "  %-44s %8d %14g %14g\n", fullName(s.Name, s.Labels), len(s.Values), first, last)
		}
		footer(w, capLen(len(e.Series), top), len(e.Series), "series")
	}
	fmt.Fprintln(w)
}

// nodeID parses a node="N" label value, -1 when absent or not a node id.
func nodeID(v string) int {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// linkRow is one directed link's contention stats assembled from the
// sampler's utilization series and watermark gauges.
type linkRow struct {
	node      int
	dir       string
	util      float64 // peak sampled window utilization
	queueHigh float64 // queue-depth high-water mark
	waitPs    float64 // accumulated head-of-line blocking
}

// renderLinkContention assembles the per-link contention table: the
// busiest directed links by peak sampled window utilization (the final
// window is flushed at the instant each link went idle, so late-run peaks
// count too), with their queue-depth watermarks and accumulated
// head-of-line blocking time.
func renderLinkContention(w io.Writer, e *telemetry.Export, top int) {
	rows := make(map[string]*linkRow)
	row := func(nodeLabel, dir string) *linkRow {
		node := nodeID(nodeLabel)
		if node < 0 || dir == "" {
			return nil
		}
		k := fmt.Sprintf("%d/%s", node, dir)
		r := rows[k]
		if r == nil {
			r = &linkRow{node: node, dir: dir}
			rows[k] = r
		}
		return r
	}
	for _, s := range e.Series {
		if s.Name != "fabric_link_utilization" || len(s.Values) == 0 {
			continue
		}
		if r := row(s.Label("node"), s.Label("dir")); r != nil {
			for _, v := range s.Values {
				if v > r.util {
					r.util = v
				}
			}
		}
	}
	for _, m := range e.Metrics {
		switch m.Name {
		case "fabric_link_hol_wait_ps":
			if r := row(m.Label("node"), m.Label("dir")); r != nil {
				r.waitPs = m.Value
			}
		case "fabric_link_queue_high":
			if r := row(m.Label("node"), m.Label("dir")); r != nil {
				r.queueHigh = m.Value
			}
		}
	}
	if len(rows) == 0 {
		return
	}
	all := make([]*linkRow, 0, len(rows))
	for _, r := range rows {
		all = append(all, r)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.util != b.util {
			return a.util > b.util
		}
		if a.waitPs != b.waitPs {
			return a.waitPs > b.waitPs
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.dir < b.dir
	})
	shown := all[:capLen(len(all), top)]
	fmt.Fprintf(w, "\nlink contention (top %d of %d directed links by peak utilization):\n",
		len(shown), len(all))
	fmt.Fprintf(w, "  %6s %5s %9s %10s %14s\n", "node", "dir", "peak-util", "queue-high", "hol-wait")
	for _, r := range shown {
		fmt.Fprintf(w, "  %6d %5s %8.1f%% %10g %12.3fus\n",
			r.node, r.dir, 100*r.util, r.queueHigh, r.waitPs/1e6)
	}
	footer(w, len(shown), len(all), "links")
}

// occRow is one node's firmware occupancy assembled from the export.
type occRow struct {
	rxFree, rxLow   float64
	txFree, txLow   float64
	srcFree, srcLow float64
	evq, evqHigh    float64
}

// renderOccupancy assembles the firmware occupancy table from the sampler's
// occupancy series (free now) and watermark gauges (worst case), one row
// per node. Under -top, the most-pressured nodes show first: lowest pool
// low-water mark, then highest event-queue high-water mark.
func renderOccupancy(w io.Writer, e *telemetry.Export, top int) {
	rows := make(map[int]*occRow)
	row := func(nodeLabel string) *occRow {
		id := nodeID(nodeLabel)
		if id < 0 {
			return nil
		}
		r := rows[id]
		if r == nil {
			r = &occRow{}
			rows[id] = r
		}
		return r
	}
	for _, s := range e.Series {
		r := row(s.Label("node"))
		if r == nil || len(s.Values) == 0 {
			continue
		}
		last := s.Values[len(s.Values)-1]
		switch s.Name {
		case "node_fw_rx_pendings_free":
			r.rxFree = last
		case "node_fw_tx_pendings_free":
			r.txFree = last
		case "node_fw_sources_free":
			r.srcFree = last
		case "node_evq_depth":
			r.evq = last
		}
	}
	seen := false
	for _, m := range e.Metrics {
		r := row(m.Label("node"))
		if r == nil {
			continue
		}
		switch m.Name {
		case "node_fw_rx_pendings_low":
			r.rxLow, seen = m.Value, true
		case "node_fw_tx_pendings_low":
			r.txLow, seen = m.Value, true
		case "node_fw_sources_low":
			r.srcLow, seen = m.Value, true
		case "node_evq_high":
			r.evqHigh, seen = m.Value, true
		}
	}
	if !seen {
		return
	}
	minLow := func(r *occRow) float64 {
		m := r.rxLow
		if r.txLow < m {
			m = r.txLow
		}
		if r.srcLow < m {
			m = r.srcLow
		}
		return m
	}
	ids := make([]int, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := rows[ids[i]], rows[ids[j]]
		if la, lb := minLow(a), minLow(b); la != lb {
			return la < lb
		}
		if a.evqHigh != b.evqHigh {
			return a.evqHigh > b.evqHigh
		}
		return ids[i] < ids[j]
	})
	shown := ids[:capLen(len(ids), top)]
	fmt.Fprintf(w, "\nfirmware occupancy (free now / low-water; evq depth / high-water; most-pressured first):\n")
	fmt.Fprintf(w, "  %6s %16s %16s %16s %14s\n", "node", "rx-pend", "tx-pend", "sources", "evq")
	for _, id := range shown {
		r := rows[id]
		fmt.Fprintf(w, "  %6d %16s %16s %16s %14s\n", id,
			fmt.Sprintf("%g lo %g", r.rxFree, r.rxLow),
			fmt.Sprintf("%g lo %g", r.txFree, r.txLow),
			fmt.Sprintf("%g lo %g", r.srcFree, r.srcLow),
			fmt.Sprintf("%g hi %g", r.evq, r.evqHigh))
	}
	footer(w, len(shown), len(ids), "nodes")
}
