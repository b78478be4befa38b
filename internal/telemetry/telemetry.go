// Package telemetry is the observability layer of the simulated machine:
// a metrics registry (counters, gauges, log-bucketed histograms), per-
// message latency attribution records, virtual-time series filled by the
// machine's RAS sampler, and a JSON exporter whose documents ReadJSON
// reads back.
//
// The paper's contribution is explaining where each microsecond of a
// Portals message goes — trap cost, HyperTransport crossings, firmware
// processing on the 500 MHz PowerPC, wire time, and event delivery. This
// package reproduces that decomposition: every message carries a MsgRec
// stamped at each lifecycle boundary, and the deltas between consecutive
// stamps partition the end-to-end latency exactly, so per-segment
// histograms always sum to the end-to-end histogram.
//
// Telemetry follows the repository's observability discipline (see
// flightrec.Ring): a nil *Telemetry is valid and disabled, every method is
// nil-safe, and a disabled machine pays one pointer test per site with
// zero allocations.
package telemetry

import (
	"portals3/internal/sim"
)

// Lifecycle stamp indices, in message order. Consecutive deltas form the
// five latency segments; see Seg.
const (
	StampSubmit  = iota // host: driver accepts the send (post-trap, post-marshal)
	StampFwTx           // firmware: TX mailbox command dequeued on the PowerPC
	StampWire           // fabric: header granted credits, injected into the torus
	StampRxHdr          // fabric: header arrived at the destination NIC
	StampEvPost         // firmware: completion event push to host memory begins
	StampDeliver        // host: driver delivers the completion to the library
	NumStamps
)

// Seg identifies one latency segment — the interval between two
// consecutive lifecycle stamps.
type Seg int

// Segments of a message's end-to-end latency, mapping onto the paper's
// measured cost components (DESIGN.md, "Latency attribution").
const (
	SegHost    Seg = iota // submit -> fw-tx: command write, HT crossing, mailbox wait
	SegTxFw               // fw-tx -> wire: TX state machine, header/payload fetch
	SegWire               // wire -> rx-hdr: router traversal and link time
	SegRxFw               // rx-hdr -> ev-post: RX firmware, matching, payload deposit
	SegDeliver            // ev-post -> deliver: event write, interrupt, host dispatch
	NumSegs
)

// segNames are the stage label values used on exported metrics.
var segNames = [NumSegs]string{"host", "txfw", "wire", "rxfw", "deliver"}

// String returns the stage label ("host", "txfw", ...).
func (s Seg) String() string {
	if s < 0 || s >= NumSegs {
		return "unknown"
	}
	return segNames[s]
}

// MsgRec is the lifecycle record riding on one message. Records are pooled
// on the owning Telemetry; they exist only while telemetry is enabled, so
// a nil *MsgRec (the disabled case) makes every stamp a no-op.
type MsgRec struct {
	t     [NumStamps]sim.Time
	bytes int
	hops  int // route length, set at wire injection; 0 until stamped
}

// Stamp records the virtual time of one lifecycle boundary. Only the first
// stamp at each boundary is kept: a retransmitted message keeps its
// original injection time, charging the delay to the segment that caused
// it.
func (r *MsgRec) Stamp(stamp int, t sim.Time) {
	if r == nil || r.t[stamp] >= 0 {
		return
	}
	r.t[stamp] = t
}

// SetHops records the message's route length (hop count), set by the
// fabric at header injection. Like Stamp, only the first value sticks — a
// go-back-n retransmission follows the same fixed path.
func (r *MsgRec) SetHops(hops int) {
	if r == nil || r.hops != 0 {
		return
	}
	r.hops = hops
}

// reset prepares a pooled record for reuse.
func (r *MsgRec) reset(bytes int) {
	for i := range r.t {
		r.t[i] = -1
	}
	r.bytes = bytes
	r.hops = 0
}

// complete reports whether every boundary was stamped.
func (r *MsgRec) complete() bool {
	for _, t := range r.t {
		if t < 0 {
			return false
		}
	}
	return true
}

// Telemetry is the per-machine telemetry handle. A nil *Telemetry is valid
// and disabled. All instruments hang off Reg; the per-segment histograms
// are additionally cached as fields so the completion path does no lookup.
type Telemetry struct {
	Reg *Registry

	seg [NumSegs]*Histogram // segment latency, picoseconds
	e2e *Histogram          // end-to-end latency, picoseconds
	msg *Histogram          // message size, bytes

	completed  *Counter // records finished with all stamps present
	incomplete *Counter // records dropped with stamps missing

	// byHops caches the per-hop-count end-to-end histograms (the latency-
	// under-load decomposition), indexed by route length and registered on
	// first completion at that distance.
	byHops []*Histogram

	series  []*Series
	sindex  map[string]*Series
	recFree []*MsgRec
}

// New returns an enabled telemetry handle with the message-attribution
// instruments pre-registered.
func New() *Telemetry {
	t := &Telemetry{Reg: NewRegistry(), sindex: map[string]*Series{}}
	for s := Seg(0); s < NumSegs; s++ {
		t.seg[s] = t.Reg.Histogram("portals_msg_segment_ps", L("stage", s.String()))
	}
	t.e2e = t.Reg.Histogram("portals_msg_e2e_ps")
	t.msg = t.Reg.Histogram("portals_msg_bytes")
	t.completed = t.Reg.Counter("portals_msg_records_completed")
	t.incomplete = t.Reg.Counter("portals_msg_records_incomplete")
	return t
}

// Enabled reports whether telemetry is live.
func (t *Telemetry) Enabled() bool { return t != nil }

// NewMsgRec returns a fresh lifecycle record for a message of the given
// payload size, or nil when telemetry is disabled.
func (t *Telemetry) NewMsgRec(bytes int) *MsgRec {
	if t == nil {
		return nil
	}
	r := sim.Pop(&t.recFree)
	if r == nil {
		r = &MsgRec{}
	}
	r.reset(bytes)
	return r
}

// FinishMsg consumes a record at app delivery: the five segment deltas and
// the end-to-end latency feed their histograms, then the record returns to
// the pool. Records with missing stamps (e.g. a message cut short by a
// killed node) only bump the incomplete counter.
func (t *Telemetry) FinishMsg(r *MsgRec) {
	if t == nil || r == nil {
		return
	}
	if r.complete() {
		for s := Seg(0); s < NumSegs; s++ {
			t.seg[s].Observe(int64(r.t[s+1] - r.t[s]))
		}
		e2e := int64(r.t[StampDeliver] - r.t[StampSubmit])
		t.e2e.Observe(e2e)
		t.HopsHist(r.hops).Observe(e2e)
		t.msg.Observe(int64(r.bytes))
		t.completed.Inc()
	} else {
		t.incomplete.Inc()
	}
	t.recFree = append(t.recFree, r)
}

// DropMsgRec returns a record to the pool without recording it — the
// reclaim path for messages recycled before delivery.
func (t *Telemetry) DropMsgRec(r *MsgRec) {
	if t == nil || r == nil {
		return
	}
	t.incomplete.Inc()
	t.recFree = append(t.recFree, r)
}

// SegmentHist returns the histogram for one latency segment.
func (t *Telemetry) SegmentHist(s Seg) *Histogram {
	if t == nil {
		return nil
	}
	return t.seg[s]
}

// HopsHist returns the end-to-end latency histogram for messages whose
// route is hops links long (`portals_msg_e2e_by_hops_ps{hops="k"}`) — the
// latency-under-load decomposition per distance. The cache is bounded by
// the topology diameter; a nil *Telemetry returns nil.
func (t *Telemetry) HopsHist(hops int) *Histogram {
	if t == nil || hops < 0 {
		return nil
	}
	for hops >= len(t.byHops) {
		t.byHops = append(t.byHops, nil)
	}
	if t.byHops[hops] == nil {
		t.byHops[hops] = t.Reg.Histogram("portals_msg_e2e_by_hops_ps", HopsLabel(hops))
	}
	return t.byHops[hops]
}

// E2EHist returns the end-to-end latency histogram.
func (t *Telemetry) E2EHist() *Histogram {
	if t == nil {
		return nil
	}
	return t.e2e
}

// Sample is one time-series point: a value at a virtual time.
type Sample struct {
	T sim.Time
	V float64
}

// Series is one named virtual-time series, filled by the RAS sampler.
// labelStr caches the rendered label set, like Metric's — the per-link
// utilization series alone number in the thousands at machine scale.
type Series struct {
	Name     string
	Labels   []Label
	labelStr string
	Samples  []Sample
}

// Append adds a sample. A nil *Series ignores it.
func (s *Series) Append(t sim.Time, v float64) {
	if s != nil {
		s.Samples = append(s.Samples, Sample{T: t, V: v})
	}
}

// SeriesFor returns the series for (name, labels), creating it if needed.
// Callers cache the pointer; the map lookup happens once per series.
func (t *Telemetry) SeriesFor(name string, labels ...Label) *Series {
	if t == nil {
		return nil
	}
	ls := append([]Label(nil), labels...)
	lstr := labelString(ls)
	key := name + "{" + lstr + "}"
	if s, ok := t.sindex[key]; ok {
		return s
	}
	s := &Series{Name: name, Labels: ls, labelStr: lstr}
	t.series = append(t.series, s)
	t.sindex[key] = s
	return s
}

// AllSeries returns every series in creation order.
func (t *Telemetry) AllSeries() []*Series {
	if t == nil {
		return nil
	}
	return t.series
}
