package flightrec

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"portals3/internal/sim"
	"portals3/internal/trace"
	"portals3/internal/wire"
)

// RenderText writes the dump as a human-readable report: the trigger, each
// node's occupancy watermarks, and the merged cross-node event timeline.
func (d *Dump) RenderText(w io.Writer) {
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

	fmt.Fprintf(w, "\ntimeline (%d events", len(d.Timeline()))
	var dropped uint64
	for i := range d.Nodes {
		dropped += d.Nodes[i].Dropped
	}
	if dropped > 0 {
		fmt.Fprintf(w, ", %d older events lost to ring wrap", dropped)
	}
	fmt.Fprintf(w, ")\n")
	d.renderEvents(w, d.Timeline())
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
func (d *Dump) WriteChrome(w io.Writer) error { return trace.WriteChrome(w, d.Records()) }

// Records renders the dump as Chrome trace records; it is the machine's
// one timeline renderer. The trace kinds land on the wire, host-cpu,
// seastar-ppc and app tracks under the names their components give them;
// every other kind is an instant on the flightrec track. Records are in
// (start, node) order and in ring order within a node, which is each
// node's event order on its lane, so the timeline is the same at every
// shard count. After them comes a covering span per (span, node) pair, so
// a message's hop path reads as nested bars per node in Perfetto.
func (d *Dump) Records() []trace.Record {
	type key struct {
		span uint64
		node int
	}
	first := make(map[key]sim.Time)
	last := make(map[key]sim.Time)
	var recs []trace.Record
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
	slices.SortStableFunc(recs, func(a, b trace.Record) int {
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
			recs = append(recs, trace.Record{
				Name: fmt.Sprintf("span %d", span), Cat: "flightrec", Ph: "X",
				TS: start, Dur: last[k] - start, PID: k.node, TID: trace.TrackFlight,
				Args: map[string]interface{}{"span": span},
			})
		}
	}
	return recs
}

// record maps one event of node's ring onto its Chrome record.
func record(node int, e Event) trace.Record {
	r := trace.Record{Ph: "i", TS: e.T, PID: node}
	switch e.Kind {
	case KWireTx:
		r.Name, r.Cat, r.TID = "tx "+wire.MsgType(e.Sub).String(), "net", trace.TrackWire
		r.Args = map[string]interface{}{"msg": e.Span, "dst": e.A, "len": e.B}
	case KWireRxHdr:
		r.Name, r.Cat, r.TID = "rx hdr "+wire.MsgType(e.Sub).String(), "net", trace.TrackWire
		r.Args = map[string]interface{}{"msg": e.Span, "src": e.A}
	case KWireRxLast:
		r.Name, r.Cat, r.TID = "rx last chunk", "net", trace.TrackWire
		r.Args = map[string]interface{}{"msg": e.Span, "src": e.A}
	case KHostIrq, KHostWork:
		r.Name, r.Cat, r.TID = "interrupt", "os", trace.TrackHost
		if e.Kind == KHostWork {
			r.Name = "portals-processing"
		}
		r.Ph, r.TS, r.Dur = "X", e.T-e.Dur(), e.Dur()
	case KFwHandler:
		r.Name, r.Cat, r.TID = HandlerName(e.Sub), "fw", trace.TrackPPC
		r.Ph, r.TS, r.Dur = "X", e.T-e.Dur(), e.Dur()
	case KEQPost:
		r.Name, r.Cat, r.TID = EventName(int(e.Sub)), "portals", trace.TrackApp
		r.Args = map[string]interface{}{"pid": e.A, "mlen": e.B, "seq": e.Span}
	default:
		r.Name, r.Cat, r.TID = e.Kind.String(), "flightrec", trace.TrackFlight
		r.Args = map[string]interface{}{"args": e.ArgString()}
		if e.Span != 0 {
			r.Args["span"] = e.Span
		}
	}
	return r
}
