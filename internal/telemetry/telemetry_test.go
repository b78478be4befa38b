package telemetry

import (
	"math/rand"
	"strings"
	"testing"

	"portals3/internal/sim"
)

// TestBucketInvariants sweeps values across the range and checks that every
// value lands in a bucket whose bounds contain it, and that bounds are
// within the advertised 12.5% relative error.
func TestBucketInvariants(t *testing.T) {
	check := func(v int64) {
		i := bucketIndex(v)
		up := bucketUpper(i)
		if v > up {
			t.Fatalf("value %d above bucket %d upper %d", v, i, up)
		}
		if i > 0 {
			below := bucketUpper(i - 1)
			if v <= below {
				t.Fatalf("value %d not above previous bucket bound %d", v, below)
			}
		}
		if v >= histExact && float64(up-v) > 0.125*float64(v)+1 {
			t.Fatalf("value %d bucket upper %d exceeds 12.5%% error", v, up)
		}
	}
	for v := int64(0); v < 4096; v++ {
		check(v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		check(rng.Int63())
	}
	check(1<<63 - 1)
}

// TestBucketBoundsMonotone verifies the bound sequence is strictly
// increasing — required for quantile walks and cumulative export.
func TestBucketBoundsMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		up := bucketUpper(i)
		if up <= prev {
			t.Fatalf("bucket %d upper %d <= previous %d", i, up, prev)
		}
		prev = up
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Sum() != 500500 {
		t.Fatalf("count/sum wrong: %d/%d", h.Count(), h.Sum())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max wrong: %d/%d", h.Min(), h.Max())
	}
	for _, c := range []struct {
		q     float64
		exact int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {1.0, 1000}} {
		got := h.Quantile(c.q)
		if got < c.exact || float64(got-c.exact) > 0.125*float64(c.exact)+1 {
			t.Errorf("q%.2f = %d, want within 12.5%% above %d", c.q, got, c.exact)
		}
	}
	// A constant distribution reports exact quantiles thanks to clamping.
	h.Reset()
	for i := 0; i < 100; i++ {
		h.Observe(5390)
	}
	if h.Quantile(0.5) != 5390 || h.Quantile(0.999) != 5390 {
		t.Errorf("constant distribution quantiles not exact: p50=%d p999=%d",
			h.Quantile(0.5), h.Quantile(0.999))
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Buckets() != nil || h.Max() != 0 {
		t.Fatal("nil histogram must be inert")
	}
	var c *Counter
	c.Inc()
	c.Add(3)
	var g *Gauge
	g.Set(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil counter/gauge must be inert")
	}
}

func TestRegistryDedupAndOrder(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("b_total", L("node", "1"))
	c2 := r.Counter("b_total", L("node", "1"))
	if c1 != c2 {
		t.Fatal("same key must return same counter")
	}
	r.Counter("a_total")
	r.Gauge("b_total_gauge")
	r.Histogram("a_hist", L("stage", "wire"), L("node", "0"))
	ms := r.Metrics()
	for i := 1; i < len(ms); i++ {
		a, b := ms[i-1], ms[i]
		if a.Name > b.Name ||
			(a.Name == b.Name && labelString(a.Labels) >= labelString(b.Labels)) {
			t.Fatalf("metrics out of order: %s{%s} before %s{%s}",
				a.Name, labelString(a.Labels), b.Name, labelString(b.Labels))
		}
	}
	// Labels are sorted by key within a metric regardless of call order.
	h := r.Metrics()[0]
	if h.Name != "a_hist" || h.Labels[0].Key != "node" {
		t.Fatalf("label order not canonical: %+v", h.Labels)
	}
}

// TestMsgRecSegmentsSumExactly is the attribution core property: a fully
// stamped record contributes segments that sum exactly to its end-to-end
// latency, by construction.
func TestMsgRecSegmentsSumExactly(t *testing.T) {
	tel := New()
	rng := rand.New(rand.NewSource(7))
	const msgs = 500
	for i := 0; i < msgs; i++ {
		r := tel.NewMsgRec(64)
		now := sim.Time(rng.Intn(1000))
		for s := 0; s < NumStamps; s++ {
			r.Stamp(s, now)
			now += sim.Time(rng.Intn(10000))
		}
		tel.FinishMsg(r)
	}
	var segSum int64
	for s := Seg(0); s < NumSegs; s++ {
		h := tel.SegmentHist(s)
		if h.Count() != msgs {
			t.Fatalf("segment %v count %d, want %d", s, h.Count(), msgs)
		}
		segSum += h.Sum()
	}
	if e2e := tel.E2EHist().Sum(); segSum != e2e {
		t.Fatalf("segment sums %d != e2e sum %d", segSum, e2e)
	}
	if tel.completed.Value() != msgs || tel.incomplete.Value() != 0 {
		t.Fatalf("completed/incomplete = %d/%d", tel.completed.Value(), tel.incomplete.Value())
	}
}

func TestMsgRecIncompleteAndPool(t *testing.T) {
	tel := New()
	r := tel.NewMsgRec(8)
	r.Stamp(StampSubmit, 100)
	tel.FinishMsg(r) // missing stamps: incomplete, not recorded
	if tel.incomplete.Value() != 1 || tel.E2EHist().Count() != 0 {
		t.Fatal("incomplete record must not feed histograms")
	}
	r2 := tel.NewMsgRec(8)
	if r2 != r {
		t.Fatal("record not recycled through the pool")
	}
	if r2.t[StampSubmit] != -1 {
		t.Fatal("recycled record not reset")
	}
	// First stamp wins: a retransmit must not move the boundary.
	r2.Stamp(StampWire, 500)
	r2.Stamp(StampWire, 900)
	if r2.t[StampWire] != 500 {
		t.Fatalf("stamp overwritten: %d", r2.t[StampWire])
	}
	tel.DropMsgRec(r2)
	if tel.incomplete.Value() != 2 {
		t.Fatal("DropMsgRec must count incomplete")
	}

	// Disabled telemetry: everything is a nil-safe no-op.
	var off *Telemetry
	if off.Enabled() || off.NewMsgRec(1) != nil {
		t.Fatal("nil telemetry must be disabled")
	}
	off.FinishMsg(nil)
	off.DropMsgRec(nil)
	var nr *MsgRec
	nr.Stamp(StampSubmit, 1)
}

func TestExportLabelAccessor(t *testing.T) {
	tel := New()
	tel.Reg.Counter("demo_total", NodeLabel(12), DirLabel("X+"), L("note", `a,b="c"`)).Add(1)
	tel.SeriesFor("demo_series", HopsLabel(3)).Append(1000, 3)
	e := tel.Snapshot(0)
	m := e.Metrics[0]
	for key, want := range map[string]string{"node": "12", "dir": "X+", "note": `a,b="c"`, "ode": "", "hops": ""} {
		if got := m.Label(key); got != want {
			t.Errorf("metric %s: Label(%q) = %q, want %q", m.Labels, key, got, want)
		}
	}
	if got := e.Series[0].Label("hops"); got != "3" {
		t.Errorf("series Label(hops) = %q, want 3", got)
	}
	// Label sets no exporter wrote must read as absent, not panic.
	for _, labels := range []string{"node", "node=", `node="3`, `node=3`, `=,=`, `a="1"node="2"`} {
		if got := (ExportMetric{Labels: labels}).Label("node"); got != "" {
			t.Errorf("Label(node) of malformed %q = %q, want empty", labels, got)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tel := New()
	tel.Reg.Counter("rt_total").Add(7)
	h := tel.Reg.Histogram("rt_ps")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	tel.SeriesFor("rt_series").Append(500, 1.25)
	tel.SeriesFor("rt_series").Append(1500, 2.5)

	var sb strings.Builder
	if err := tel.WriteJSON(&sb, 99999); err != nil {
		t.Fatal(err)
	}
	e, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if e.SimTimePs != 99999 {
		t.Errorf("sim time %d", e.SimTimePs)
	}
	if m := e.Metric("rt_total", ""); m == nil || m.Value != 7 {
		t.Fatalf("counter lost in round trip: %+v", m)
	}
	m := e.Metric("rt_ps", "")
	if m == nil || m.Count != 100 || m.Sum != 5050000 {
		t.Fatalf("histogram lost in round trip: %+v", m)
	}
	if m.P50 <= 0 || m.P99 < m.P50 || m.Max != 100000 {
		t.Fatalf("quantiles wrong: p50=%d p99=%d max=%d", m.P50, m.P99, m.Max)
	}
	var cum uint64
	for _, b := range m.Buckets {
		cum += b.Count
	}
	if cum != m.Count {
		t.Fatalf("bucket counts sum to %d, want %d", cum, m.Count)
	}
	if len(e.Series) != 1 || len(e.Series[0].Times) != 2 || e.Series[0].Values[1] != 2.5 {
		t.Fatalf("series lost in round trip: %+v", e.Series)
	}
}
