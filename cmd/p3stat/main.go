// Command p3stat renders saved observability artifacts: telemetry JSON
// exports (cmd/netpipe -telemetry), host-execution profiles (cmd/netpipe
// -hostprof), and chrome-trace timelines (cmd/netpipe -trace), as aligned
// text tables — the offline half of the machine's RAS view.
//
//	p3stat run.json                # metrics, latency breakdown, series
//	p3stat out.hostprof.json       # host-execution (lane busy/wait/drain) table
//	p3stat -trace timeline.json    # per-track / per-handler summary
//
// Host profiles are recognized by their "kind": "host_profile" field; any
// other JSON document renders as telemetry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"portals3/internal/machine"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/trace"
)

func main() {
	traceIn := flag.String("trace", "", "summarize a chrome-trace timeline instead of telemetry JSON")
	top := flag.Int("top", 16, "rows shown per table section; 0 shows everything")
	flag.Parse()

	switch {
	case *traceIn != "":
		if err := summarizeTrace(*traceIn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case flag.NArg() > 0:
		for _, path := range flag.Args() {
			if err := renderFile(path, *top); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func summarizeTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.ReadChrome(f)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	telemetry.Summarize(recs).Render(os.Stdout)
	return nil
}

// renderFile routes one artifact by its JSON kind discriminator: a
// host-execution profile renders as the lane table, anything else as a
// telemetry export.
func renderFile(path string, top int) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var kind struct {
		Kind string `json:"kind"`
	}
	if json.Unmarshal(b, &kind) == nil && kind.Kind == machine.HostProfileKind {
		var hp machine.HostProfile
		if err := json.Unmarshal(b, &hp); err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		renderHostProfile(&hp, path, top)
		return nil
	}
	e, err := telemetry.ReadJSON(strings.NewReader(string(b)))
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	render(e, path, top)
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
func renderHostProfile(hp *machine.HostProfile, path string, top int) {
	merged := ""
	if hp.Runs > 1 {
		merged = fmt.Sprintf(", %d runs merged", hp.Runs)
	}
	fmt.Printf("# %s  host-execution profile (shards %d%s)\n", path, hp.Shards, merged)
	fmt.Printf("  windows %d, events %d", hp.Windows, hp.Events)
	if hp.Windows > 0 {
		fmt.Printf(" (%.1f events/window)", float64(hp.Events)/float64(hp.Windows))
	}
	fmt.Println()
	fmt.Printf("  wall %s: exec %s (%s), drain %s (%s); measured run wall %s\n",
		wallMs(hp.WallNs), wallMs(hp.ExecNs), pctOf(hp.ExecNs, hp.WallNs),
		wallMs(hp.DrainNs), pctOf(hp.DrainNs, hp.WallNs), wallMs(hp.RunWallNs))
	fmt.Printf("  barrier: %d inline windows (%s), %d parks",
		hp.InlineWindows, pctOf(int64(hp.InlineWindows), int64(hp.Windows)), hp.Parks)
	if hp.Windows > 0 {
		fmt.Printf(" (%.1f per 1000 windows)", 1000*float64(hp.Parks)/float64(hp.Windows))
	}
	fmt.Println()
	fmt.Printf("  lane imbalance per window: mean %.1f%%, max %.1f%%\n",
		hp.MeanImbalancePct, hp.MaxImbalancePct)
	fmt.Printf("  memory high-water: heap-inuse %.1fMB, heap-alloc %.1fMB, sys %.1fMB, %d GCs (%d samples)\n",
		float64(hp.HeapInuseHigh)/(1<<20), float64(hp.HeapAllocHigh)/(1<<20),
		float64(hp.SysHigh)/(1<<20), hp.NumGC, hp.MemSamples)
	if len(hp.Lanes) == 0 {
		fmt.Println()
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
	fmt.Printf("\nlane breakdown (worst stragglers first):\n")
	fmt.Printf("  %6s %10s %7s %10s %12s %10s %9s\n",
		"lane", "busy", "busy%", "wait", "events", "straggler", "windows%")
	for _, l := range shown {
		fmt.Printf("  %6d %10s %7s %10s %12d %10d %9s\n",
			l.Lane, wallMs(l.BusyNs), pctOf(l.BusyNs, hp.WallNs), wallMs(l.WaitNs),
			l.Events, l.StragglerWindows, pctOf(int64(l.StragglerWindows), int64(hp.Windows)))
	}
	footer(len(shown), len(lanes), "lanes")
	fmt.Println()
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
func footer(shown, total int, unit string) {
	if shown < total {
		fmt.Printf("  ... %d of %d %s shown (-top=0 for all)\n", shown, total, unit)
	}
}

func render(e *telemetry.Export, path string, top int) {
	fmt.Printf("# %s  (sim time %.3f us)\n", path, float64(e.SimTimePs)/1e6)

	if bd, ok := e.Breakdown(); ok {
		fmt.Println()
		bd.Render(os.Stdout)
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
		fmt.Printf("\nhistograms:\n")
		fmt.Printf("  %-44s %8s %12s %12s %12s %12s %12s\n",
			"name", "count", "mean", "p50", "p99", "p999", "max")
		for _, m := range hists[:capLen(len(hists), top)] {
			name := m.Name
			if m.Labels != "" {
				name += "{" + m.Labels + "}"
			}
			mean := 0.0
			if m.Count > 0 {
				mean = float64(m.Sum) / float64(m.Count)
			}
			if isPs(m.Name) {
				fmt.Printf("  %-44s %8d %10.3fus %10.3fus %10.3fus %10.3fus %10.3fus\n",
					name, m.Count, mean/1e6, float64(m.P50)/1e6,
					float64(m.P99)/1e6, float64(m.P999)/1e6, float64(m.Max)/1e6)
			} else {
				fmt.Printf("  %-44s %8d %12.1f %12d %12d %12d %12d\n",
					name, m.Count, mean, m.P50, m.P99, m.P999, m.Max)
			}
		}
		footer(capLen(len(hists), top), len(hists), "histograms")
	}

	renderOccupancy(e, top)
	renderLinkContention(e, top)
	renderHopLatency(e)

	if len(scalars) > 0 {
		fmt.Printf("\ncounters and gauges:\n")
		for _, m := range scalars[:capLen(len(scalars), top)] {
			name := m.Name
			if m.Labels != "" {
				name += "{" + m.Labels + "}"
			}
			fmt.Printf("  %-60s %14g\n", name, m.Value)
		}
		footer(capLen(len(scalars), top), len(scalars), "counters")
	}

	if len(e.Series) > 0 {
		fmt.Printf("\nsampler series:\n")
		fmt.Printf("  %-44s %8s %14s %14s\n", "name", "samples", "first", "last")
		for _, s := range e.Series[:capLen(len(e.Series), top)] {
			name := s.Name
			if s.Labels != "" {
				name += "{" + s.Labels + "}"
			}
			var first, last float64
			if len(s.Values) > 0 {
				first, last = s.Values[0], s.Values[len(s.Values)-1]
			}
			fmt.Printf("  %-44s %8d %14g %14g\n", name, len(s.Values), first, last)
		}
		footer(capLen(len(e.Series), top), len(e.Series), "series")
	}
	fmt.Println()
}

// occRow is one node's firmware occupancy assembled from the export.
type occRow struct {
	rxFree, rxLow   float64
	txFree, txLow   float64
	srcFree, srcLow float64
	evq, evqHigh    float64
}

// labelVal extracts one label's value from a rendered label set
// (`dir="X+",node="3"`), returning "" when absent.
func labelVal(labels, key string) string {
	marker := key + `="`
	i := strings.Index(labels, marker)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(marker):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return rest[:j]
}

// labelInt extracts one numeric label value, returning -1 when absent or
// non-numeric.
func labelInt(labels, key string) int {
	v := labelVal(labels, key)
	if v == "" {
		return -1
	}
	n := 0
	for _, c := range v {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// nodeOf extracts the node id from a rendered label set (`node="3"`),
// returning -1 when absent.
func nodeOf(labels string) int { return labelInt(labels, "node") }

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
func renderLinkContention(e *telemetry.Export, top int) {
	rows := make(map[string]*linkRow)
	row := func(labels string) *linkRow {
		node, dir := nodeOf(labels), labelVal(labels, "dir")
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
		if r := row(s.Labels); r != nil {
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
			if r := row(m.Labels); r != nil {
				r.waitPs = m.Value
			}
		case "fabric_link_queue_high":
			if r := row(m.Labels); r != nil {
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
	fmt.Printf("\nlink contention (top %d of %d directed links by peak utilization):\n",
		len(shown), len(all))
	fmt.Printf("  %6s %5s %9s %10s %14s\n", "node", "dir", "peak-util", "queue-high", "hol-wait")
	for _, r := range shown {
		fmt.Printf("  %6d %5s %8.1f%% %10g %12.3fus\n",
			r.node, r.dir, 100*r.util, r.queueHigh, r.waitPs/1e6)
	}
	footer(len(shown), len(all), "links")
}

// hopRow pairs the two by-hop-count histograms: link-level head-of-line
// blocking and end-to-end message latency at each routing distance.
type hopRow struct {
	hops                    int
	travCount, msgCount     uint64
	holMean, holP99         float64
	e2eMean, e2eP50, e2eP99 float64
}

// renderHopLatency assembles the latency-under-load view: for each hop
// count, link traversals with their head-of-line blocking and delivered
// messages with their end-to-end latency.
func renderHopLatency(e *telemetry.Export) {
	rows := make(map[int]*hopRow)
	row := func(labels string) *hopRow {
		h := labelInt(labels, "hops")
		if h < 0 {
			return nil
		}
		r := rows[h]
		if r == nil {
			r = &hopRow{hops: h}
			rows[h] = r
		}
		return r
	}
	mean := func(m telemetry.ExportMetric) float64 {
		if m.Count == 0 {
			return 0
		}
		return float64(m.Sum) / float64(m.Count)
	}
	for _, m := range e.Metrics {
		switch m.Name {
		case "fabric_link_hol_wait_by_hops_ps":
			if r := row(m.Labels); r != nil {
				r.travCount = m.Count
				r.holMean = mean(m)
				r.holP99 = float64(m.P99)
			}
		case "portals_msg_e2e_by_hops_ps":
			if r := row(m.Labels); r != nil {
				r.msgCount = m.Count
				r.e2eMean = mean(m)
				r.e2eP50 = float64(m.P50)
				r.e2eP99 = float64(m.P99)
			}
		}
	}
	if len(rows) == 0 {
		return
	}
	hops := make([]int, 0, len(rows))
	for h := range rows {
		hops = append(hops, h)
	}
	sort.Ints(hops)
	fmt.Printf("\nlatency under load by hop count:\n")
	fmt.Printf("  %4s %10s %12s %12s %10s %12s %12s %12s\n",
		"hops", "traversals", "hol-mean", "hol-p99", "msgs", "e2e-mean", "e2e-p50", "e2e-p99")
	for _, h := range hops {
		r := rows[h]
		fmt.Printf("  %4d %10d %10.3fus %10.3fus %10d %10.3fus %10.3fus %10.3fus\n",
			r.hops, r.travCount, r.holMean/1e6, r.holP99/1e6,
			r.msgCount, r.e2eMean/1e6, r.e2eP50/1e6, r.e2eP99/1e6)
	}
}

// renderOccupancy assembles the firmware occupancy table from the sampler's
// occupancy series (free now) and watermark gauges (worst case), one row
// per node. Under -top, the most-pressured nodes show first: lowest pool
// low-water mark, then highest event-queue high-water mark.
func renderOccupancy(e *telemetry.Export, top int) {
	rows := make(map[int]*occRow)
	row := func(labels string) *occRow {
		id := nodeOf(labels)
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
		r := row(s.Labels)
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
		r := row(m.Labels)
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
	fmt.Printf("\nfirmware occupancy (free now / low-water; evq depth / high-water; most-pressured first):\n")
	fmt.Printf("  %6s %16s %16s %16s %14s\n", "node", "rx-pend", "tx-pend", "sources", "evq")
	for _, id := range shown {
		r := rows[id]
		fmt.Printf("  %6d %16s %16s %16s %14s\n", id,
			fmt.Sprintf("%g lo %g", r.rxFree, r.rxLow),
			fmt.Sprintf("%g lo %g", r.txFree, r.txLow),
			fmt.Sprintf("%g lo %g", r.srcFree, r.srcLow),
			fmt.Sprintf("%g hi %g", r.evq, r.evqHigh))
	}
	footer(len(shown), len(ids), "nodes")
}
