package flightrec

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"portals3/internal/sim"
	"portals3/internal/wire"
)

// RenderText writes the dump as a human-readable report: the trigger, each
// node's occupancy watermarks, the busy time per track and handler, and the
// merged cross-node event timeline. top caps the rows of each activity
// table; 0 shows every row.
func (d *Dump) RenderText(w io.Writer, top int) {
	fmt.Fprintf(w, "p3dump: %s at %v (trigger %s", d.Reason, d.At, d.Trigger)
	if d.Node >= 0 {
		fmt.Fprintf(w, ", node %d", d.Node)
	}
	fmt.Fprintf(w, ")\n\n")

	fmt.Fprintf(w, "firmware occupancy (pools: free/total, lo = low-water; queues: depth, hi = high-water)\n")
	fmt.Fprintf(w, "%6s %17s %17s %15s %9s %13s %8s %9s %10s\n",
		"node", "rx-pend", "tx-pend", "sources", "txq", "rx-streams", "unacked", "evq", "sram-used")
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		o := &nd.Occ
		fmt.Fprintf(w, "%6d %17s %17s %15s %9s %13s %8d %9s %10d\n",
			nd.Node,
			fmt.Sprintf("%d/%d lo %d", o.RxPendFree, o.RxPendTotal, o.RxPendLow),
			fmt.Sprintf("%d/%d lo %d", o.TxPendFree, o.TxPendTotal, o.TxPendLow),
			fmt.Sprintf("%d/%d lo %d", o.SourcesFree, o.SourcesTotal, o.SourcesLow),
			fmt.Sprintf("%d hi %d", o.TxQueueDepth, o.TxQueueHigh),
			fmt.Sprintf("%d hi %d", o.RxStreams, o.RxStreamsHigh),
			o.Unacked,
			fmt.Sprintf("%d hi %d", o.EvQueueDepth, o.EvQueueHigh),
			o.SRAMUsed)
	}

	fmt.Fprintln(w)
	summarize(d.Records()).render(w, top)

	tl := d.Timeline()
	fmt.Fprintf(w, "\ntimeline (%d events", len(tl))
	if dropped := d.Dropped(); dropped > 0 {
		fmt.Fprintf(w, ", %d older events lost to ring wrap", dropped)
	}
	fmt.Fprintf(w, ")\n")
	d.renderEvents(w, tl)
}

// RenderSpan writes one causal span's hop-by-hop timeline.
func (d *Dump) RenderSpan(w io.Writer, span uint64) {
	tl := d.Span(span)
	fmt.Fprintf(w, "span %d (%d events)\n", span, len(tl))
	d.renderEvents(w, tl)
}

func (d *Dump) renderEvents(w io.Writer, tl []TimelineEvent) {
	fmt.Fprintf(w, "%14s %5s %6s %-13s %s\n", "time", "node", "span", "event", "args")
	for _, e := range tl {
		span := "-"
		if s := e.SpanID(); s != 0 {
			span = fmt.Sprintf("%d", s)
		}
		fmt.Fprintf(w, "%13.3fus %5d %6s %-13s %s\n",
			e.T.Micros(), e.Node, span, e.Kind.String(), e.ArgString())
	}
}

// WriteChrome writes the dump as a Chrome trace-event timeline (Records).
func (d *Dump) WriteChrome(w io.Writer) error { return writeChrome(w, d.Records()) }

// Records renders the dump as Chrome trace records; it is the machine's
// one timeline renderer. The trace kinds land on the wire, host-cpu,
// seastar-ppc and app tracks under the names their components give them;
// every other kind is an instant on the flightrec track. Records are in
// (start, node) order and in ring order within a node, which is each
// node's event order on its lane, so the timeline is the same at every
// shard count. After them comes a covering span per (span, node) pair, so
// a message's hop path reads as nested bars per node in Perfetto.
func (d *Dump) Records() []Record {
	type key struct {
		span uint64
		node int
	}
	first := make(map[key]sim.Time)
	last := make(map[key]sim.Time)
	var recs []Record
	for _, nd := range d.Nodes {
		for _, e := range nd.Events {
			recs = append(recs, record(nd.Node, e))
			if s := e.SpanID(); s != 0 {
				k := key{s, nd.Node}
				if _, ok := first[k]; !ok {
					first[k] = e.T
				}
				last[k] = e.T
			}
		}
	}
	slices.SortStableFunc(recs, func(a, b Record) int {
		return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.PID, b.PID))
	})
	// The covering spans, in deterministic (span, node) order.
	for _, span := range d.Spans() {
		for i := range d.Nodes {
			k := key{span, d.Nodes[i].Node}
			start, ok := first[k]
			if !ok {
				continue
			}
			recs = append(recs, Record{
				Name: fmt.Sprintf("span %d", span), Cat: "flightrec", Ph: "X",
				TS: start, Dur: last[k] - start, PID: k.node, TID: trackFlight,
				Args: map[string]interface{}{"span": span},
			})
		}
	}
	return recs
}

// record maps one event of node's ring onto its Chrome record.
func record(node int, e Event) Record {
	r := Record{Ph: "i", TS: e.T, PID: node}
	switch e.Kind {
	case KWireTx:
		r.Name, r.Cat, r.TID = "tx "+wire.MsgType(e.Sub).String(), "net", trackWire
		r.Args = map[string]interface{}{"msg": e.Span, "dst": e.A, "len": e.B}
	case KWireRxHdr:
		r.Name, r.Cat, r.TID = "rx hdr "+wire.MsgType(e.Sub).String(), "net", trackWire
		r.Args = map[string]interface{}{"msg": e.Span, "src": e.A}
	case KWireRxLast:
		r.Name, r.Cat, r.TID = "rx last chunk", "net", trackWire
		r.Args = map[string]interface{}{"msg": e.Span, "src": e.A}
	case KHostIrq, KHostWork:
		r.Name, r.Cat, r.TID = "interrupt", "os", trackHost
		if e.Kind == KHostWork {
			r.Name = "portals-processing"
		}
		r.Ph, r.TS, r.Dur = "X", e.T-e.Dur(), e.Dur()
	case KFwHandler:
		r.Name, r.Cat, r.TID = HandlerName(e.Sub), "fw", trackPPC
		r.Ph, r.TS, r.Dur = "X", e.T-e.Dur(), e.Dur()
	case KEQPost:
		r.Name, r.Cat, r.TID = EventName(int(e.Sub)), "portals", trackApp
		r.Args = map[string]interface{}{"pid": e.A, "mlen": e.B, "seq": e.Span}
	default:
		r.Name, r.Cat, r.TID = e.Kind.String(), "flightrec", trackFlight
		r.Args = map[string]interface{}{"args": e.ArgString()}
		if e.Span != 0 {
			r.Args["span"] = e.Span
		}
	}
	return r
}

// spanStat aggregates every span, or every instant, with the same (node,
// track, cat, name); an instant's row has a count and no time.
type spanStat struct {
	node, track int
	cat, name   string
	count       uint64
	total       sim.Time // summed span duration
	max         sim.Time // longest single span
}

// trackStat aggregates busy time per (node, track) — an occupancy view of
// each modeled execution resource (host CPU, PowerPC, wire, app).
type trackStat struct {
	node, track int
	busy        sim.Time // summed span durations on the track
	spans       uint64
}

// summary is where a timeline's time went: which firmware handlers and host
// activities carry the critical path, per node, and how often each instant
// happened, so a node's PowerPC occupancy reads beside its rx-header,
// gbn-ack-tx or gbn-rewind counts.
type summary struct {
	horizon  sim.Time // end of the last span
	spans    []spanStat
	tracks   []trackStat
	instants uint64 // point events, counted (in spans, by name) but not attributed time
}

// summarize folds records into span and track statistics. Spans are sorted
// by total time descending (the critical-path view), so the instants' rows
// come last; tracks by (node, track). The covering spans are message
// lifetimes, not the occupancy of a resource, so they are left out.
func summarize(recs []Record) *summary {
	s := &summary{}
	type key struct {
		node, track int
		cat, name   string
	}
	type tkey struct{ node, track int }
	spans := map[key]*spanStat{}
	tracks := map[tkey]*trackStat{}
	for _, r := range recs {
		if r.Ph == "X" && r.TID == trackFlight {
			continue
		}
		if end := r.TS + r.Dur; end > s.horizon {
			s.horizon = end
		}
		k := key{r.PID, r.TID, r.Cat, r.Name}
		st := spans[k]
		if st == nil {
			st = &spanStat{node: r.PID, track: r.TID, cat: r.Cat, name: r.Name}
			spans[k] = st
		}
		st.count++
		if r.Ph != "X" {
			s.instants++
			continue
		}
		st.total += r.Dur
		st.max = max(st.max, r.Dur)
		tk := tkey{r.PID, r.TID}
		ts := tracks[tk]
		if ts == nil {
			ts = &trackStat{node: r.PID, track: r.TID}
			tracks[tk] = ts
		}
		ts.spans++
		ts.busy += r.Dur
	}
	for _, st := range spans {
		s.spans = append(s.spans, *st)
	}
	slices.SortFunc(s.spans, func(a, b spanStat) int {
		return cmp.Or(cmp.Compare(b.total, a.total), cmp.Compare(a.node, b.node),
			cmp.Compare(a.track, b.track), cmp.Compare(a.name, b.name), cmp.Compare(a.cat, b.cat))
	})
	for _, ts := range tracks {
		s.tracks = append(s.tracks, *ts)
	}
	slices.SortFunc(s.tracks, func(a, b trackStat) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.track, b.track))
	})
	return s
}

// render writes the summary as aligned text tables of at most top rows
// each (every row when top is 0).
func (s *summary) render(w io.Writer, top int) {
	fmt.Fprintf(w, "activity horizon %v, %d instants\n\n", s.horizon, s.instants)
	fmt.Fprintf(w, "%-5s %-12s %10s %12s %12s %7s\n",
		"node", "track", "spans", "busy", "max-span", "occ%")
	tracks := s.tracks[:capRows(len(s.tracks), top)]
	for _, t := range tracks {
		occ := 0.0
		if s.horizon > 0 {
			occ = 100 * float64(t.busy) / float64(s.horizon)
		}
		fmt.Fprintf(w, "%-5d %-12s %10d %12v %12s %7.2f\n",
			t.node, trackName(t.track), t.spans, t.busy, "", occ)
	}
	elided(w, len(tracks), len(s.tracks), "tracks")
	fmt.Fprintf(w, "\n%-5s %-12s %-24s %8s %12s %12s\n",
		"node", "track", "handler", "count", "total", "max")
	spans := s.spans[:capRows(len(s.spans), top)]
	for _, sp := range spans {
		fmt.Fprintf(w, "%-5d %-12s %-24s %8d %12v %12v\n",
			sp.node, trackName(sp.track), sp.cat+"/"+sp.name, sp.count, sp.total, sp.max)
	}
	elided(w, len(spans), len(s.spans), "handlers")
}

// capRows is the row count a table shows under a cap of top rows; top <= 0
// shows them all.
func capRows(n, top int) int {
	if top <= 0 {
		return n
	}
	return min(n, top)
}

// elided prints the line that closes a capped table, as p3stat's other
// tables do.
func elided(w io.Writer, shown, total int, unit string) {
	if shown < total {
		fmt.Fprintf(w, "  ... %d of %d %s shown (-top=0 for all)\n", shown, total, unit)
	}
}
