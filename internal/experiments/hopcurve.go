// Per-hop-count latency curves: the latency-under-load summary distilled
// from a run's telemetry export. Each row pairs the end-to-end message
// latency at one routing distance with the link-level head-of-line
// blocking its traversals saw — the curve EXPERIMENTS.md's
// latency-under-load methodology sweeps across offered loads.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"portals3/internal/telemetry"
)

// HopRow is one routing distance's latency summary.
type HopRow struct {
	Hops       int
	Msgs       uint64  // delivered messages at this distance
	Traversals uint64  // link traversals by those messages
	E2EMeanPs  float64 // end-to-end latency, mean
	E2EP99Ps   float64 // end-to-end latency, p99
	HolMeanPs  float64 // head-of-line wait per traversal, mean
	HolP99Ps   float64 // head-of-line wait per traversal, p99
}

// HopCurve extracts the per-hop-count rows from a telemetry export (the
// portals_msg_e2e_by_hops_ps and fabric_link_hol_wait_by_hops_ps histogram
// families), sorted by hop count. An export with neither family returns an
// empty slice.
func HopCurve(e *telemetry.Export) []HopRow {
	rows := make(map[int]*HopRow)
	row := func(m telemetry.ExportMetric) *HopRow {
		h, err := strconv.Atoi(m.Label("hops"))
		if err != nil || h < 0 {
			return nil
		}
		if rows[h] == nil {
			rows[h] = &HopRow{Hops: h}
		}
		return rows[h]
	}
	mean := func(m telemetry.ExportMetric) float64 {
		if m.Count == 0 {
			return 0
		}
		return float64(m.Sum) / float64(m.Count)
	}
	for _, m := range e.Metrics {
		switch m.Name {
		case "portals_msg_e2e_by_hops_ps":
			if r := row(m); r != nil {
				r.Msgs, r.E2EMeanPs, r.E2EP99Ps = m.Count, mean(m), float64(m.P99)
			}
		case "fabric_link_hol_wait_by_hops_ps":
			if r := row(m); r != nil {
				r.Traversals, r.HolMeanPs, r.HolP99Ps = m.Count, mean(m), float64(m.P99)
			}
		}
	}
	out := make([]HopRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hops < out[j].Hops })
	return out
}

// RenderHopCurve prints the rows as the netpipe/p3stat table.
func RenderHopCurve(w io.Writer, rows []HopRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "latency under load by hop count:\n")
	fmt.Fprintf(w, "  %4s %8s %12s %12s %12s %12s %12s\n",
		"hops", "msgs", "e2e-mean", "e2e-p99", "traversals", "hol-mean", "hol-p99")
	for _, r := range rows {
		fmt.Fprintf(w, "  %4d %8d %10.3fus %10.3fus %12d %10.3fus %10.3fus\n",
			r.Hops, r.Msgs, r.E2EMeanPs/1e6, r.E2EP99Ps/1e6, r.Traversals, r.HolMeanPs/1e6, r.HolP99Ps/1e6)
	}
}
