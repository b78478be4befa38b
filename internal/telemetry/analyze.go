// Trace analyzer: replays Chrome trace records into per-handler and
// per-track summaries — which firmware handlers and host activities carry
// the critical path, per node, over the traced horizon — and counts every
// instant by name, so a node's PowerPC occupancy reads beside how often
// each event happened on it.
package telemetry

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"portals3/internal/sim"
	"portals3/internal/trace"
)

// SpanStat aggregates every span, or every instant, with the same (node,
// track, cat, name); an instant's row has a count and no time.
type SpanStat struct {
	Node  int
	Track int
	Cat   string
	Name  string
	Count uint64
	Total sim.Time // summed span duration
	Max   sim.Time // longest single span
}

// TrackStat aggregates busy time per (node, track) — an occupancy view of
// each modeled execution resource (host CPU, PowerPC, wire, app).
type TrackStat struct {
	Node  int
	Track int
	Busy  sim.Time // summed span durations on the track
	Spans uint64
}

// TraceSummary is the analyzer's result.
type TraceSummary struct {
	Horizon  sim.Time // end of the last span
	Spans    []SpanStat
	Tracks   []TrackStat
	Instants uint64 // point events, counted (in Spans, by name) but not attributed time
}

// Summarize folds trace records into span and track statistics. Spans are
// sorted by total time descending (the critical-path view), so the
// instants' rows come last; tracks by (node, track). The flight recorder's
// covering spans are message lifetimes, not the occupancy of a resource,
// so they are left out.
func Summarize(recs []trace.Record) *TraceSummary {
	s := &TraceSummary{}
	type key struct {
		node, track int
		cat, name   string
	}
	type tkey struct{ node, track int }
	spans := map[key]*SpanStat{}
	tracks := map[tkey]*TrackStat{}
	for _, r := range recs {
		if r.Ph == "X" && r.TID == trace.TrackFlight {
			continue
		}
		if end := r.TS + r.Dur; end > s.Horizon {
			s.Horizon = end
		}
		k := key{r.PID, r.TID, r.Cat, r.Name}
		st := spans[k]
		if st == nil {
			st = &SpanStat{Node: r.PID, Track: r.TID, Cat: r.Cat, Name: r.Name}
			spans[k] = st
		}
		st.Count++
		if r.Ph != "X" {
			s.Instants++
			continue
		}
		st.Total += r.Dur
		if r.Dur > st.Max {
			st.Max = r.Dur
		}
		tk := tkey{r.PID, r.TID}
		ts := tracks[tk]
		if ts == nil {
			ts = &TrackStat{Node: r.PID, Track: r.TID}
			tracks[tk] = ts
		}
		ts.Spans++
		ts.Busy += r.Dur
	}
	for _, st := range spans {
		s.Spans = append(s.Spans, *st)
	}
	slices.SortFunc(s.Spans, func(a, b SpanStat) int {
		return cmp.Or(cmp.Compare(b.Total, a.Total), cmp.Compare(a.Node, b.Node),
			cmp.Compare(a.Track, b.Track), cmp.Compare(a.Name, b.Name), cmp.Compare(a.Cat, b.Cat))
	})
	for _, ts := range tracks {
		s.Tracks = append(s.Tracks, *ts)
	}
	slices.SortFunc(s.Tracks, func(a, b TrackStat) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Track, b.Track))
	})
	return s
}

// Render writes the summary as aligned text tables.
func (s *TraceSummary) Render(w io.Writer) {
	fmt.Fprintf(w, "trace horizon %v, %d instants\n\n", s.Horizon, s.Instants)
	fmt.Fprintf(w, "%-5s %-12s %10s %12s %12s %7s\n",
		"node", "track", "spans", "busy", "max-span", "occ%")
	for _, t := range s.Tracks {
		occ := 0.0
		if s.Horizon > 0 {
			occ = 100 * float64(t.Busy) / float64(s.Horizon)
		}
		fmt.Fprintf(w, "%-5d %-12s %10d %12v %12s %7.2f\n",
			t.Node, trace.TrackName(t.Track), t.Spans, t.Busy, "", occ)
	}
	fmt.Fprintf(w, "\n%-5s %-12s %-24s %8s %12s %12s\n",
		"node", "track", "handler", "count", "total", "max")
	for _, sp := range s.Spans {
		fmt.Fprintf(w, "%-5d %-12s %-24s %8d %12v %12v\n",
			sp.Node, trace.TrackName(sp.Track), sp.Cat+"/"+sp.Name, sp.Count, sp.Total, sp.Max)
	}
}
