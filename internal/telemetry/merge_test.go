package telemetry

import (
	"bytes"
	"math/rand"
	"testing"

	"portals3/internal/sim"
)

// TestMergedHistogramQuantilesExact is the quantile half of the merge
// contract: a histogram merged from per-lane partials must report the same
// p50/p90/p99/p999 (and count, sum, min, max, mean) as one that saw the
// whole observation stream itself — not merely equal bucket sums. The
// stream is partitioned two ways (round-robin and contiguous blocks) to
// model different node-to-lane assignments of the same run.
func TestMergedHistogramQuantilesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	stream := make([]int64, 20000)
	for i := range stream {
		// Mixed scales, like latency observations: most small, a heavy tail.
		switch i % 7 {
		case 0:
			stream[i] = rng.Int63n(100)
		case 1, 2:
			stream[i] = 1000 + rng.Int63n(10000)
		default:
			stream[i] = rng.Int63n(1 << uint(10+rng.Intn(30)))
		}
	}

	ref := NewHistogram()
	for _, v := range stream {
		ref.Observe(v)
	}

	partitions := map[string]func(i int) int{
		"round-robin": func(i int) int { return i % 4 },
		"blocks":      func(i int) int { return i * 4 / len(stream) },
	}
	for name, laneOf := range partitions {
		lanes := make([]*Histogram, 4)
		for i := range lanes {
			lanes[i] = NewHistogram()
		}
		for i, v := range stream {
			lanes[laneOf(i)].Observe(v)
		}
		merged := NewHistogram()
		for _, h := range lanes {
			merged.Merge(h)
		}
		if merged.Count() != ref.Count() || merged.Sum() != ref.Sum() {
			t.Fatalf("%s: merged count/sum %d/%d != reference %d/%d",
				name, merged.Count(), merged.Sum(), ref.Count(), ref.Sum())
		}
		if merged.Min() != ref.Min() || merged.Max() != ref.Max() {
			t.Fatalf("%s: merged min/max %d/%d != reference %d/%d",
				name, merged.Min(), merged.Max(), ref.Min(), ref.Max())
		}
		if merged.Mean() != ref.Mean() {
			t.Fatalf("%s: merged mean %g != reference %g", name, merged.Mean(), ref.Mean())
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			if got, want := merged.Quantile(q), ref.Quantile(q); got != want {
				t.Fatalf("%s: merged p%g = %d, reference = %d", name, 100*q, got, want)
			}
		}
	}
}

// TestMergedTelemetryExportMatchesSequential models the sharded-observer
// merge end to end at the telemetry layer: per-lane instances holding (a)
// the same histogram fed disjoint halves of one stream, (b) per-lane
// partial series at identical sample times, and (c) single-owner per-node
// series and gauges — merged, they must export byte-identical JSON to an
// instance that recorded everything itself.
func TestMergedTelemetryExportMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := New()
	laneA, laneB := New(), New()

	// (a) Shared histogram, observations split across lanes.
	hSeq := seq.Reg.Histogram("portals_msg_e2e_by_hops_ps", HopsLabel(2))
	hA := laneA.Reg.Histogram("portals_msg_e2e_by_hops_ps", HopsLabel(2))
	hB := laneB.Reg.Histogram("portals_msg_e2e_by_hops_ps", HopsLabel(2))
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 20)
		hSeq.Observe(v)
		if i%2 == 0 {
			hA.Observe(v)
		} else {
			hB.Observe(v)
		}
	}

	// (b) Fabric-aggregate partials: same timestamps, values sum.
	sSeq := seq.SeriesFor("fabric_messages_total")
	sA := laneA.SeriesFor("fabric_messages_total")
	sB := laneB.SeriesFor("fabric_messages_total")
	for i := 1; i <= 10; i++ {
		at := sim.Time(i) * sim.Microsecond
		a, b := float64(rng.Intn(100)), float64(rng.Intn(100))
		sSeq.Append(at, a+b)
		sA.Append(at, a)
		sB.Append(at, b)
	}

	// (c) Single-owner artifacts: one node per lane.
	for i, tel := range []*Telemetry{laneA, laneB} {
		nl := NodeLabel(i)
		ns := tel.SeriesFor("node_fw_heartbeat_total", nl)
		nsSeq := seq.SeriesFor("node_fw_heartbeat_total", nl)
		for k := 1; k <= 5; k++ {
			at := sim.Time(k) * sim.Microsecond
			v := float64(10*i + k)
			ns.Append(at, v)
			nsSeq.Append(at, v)
		}
		tel.Reg.Gauge("node_evq_high", nl).Set(float64(3 + i))
		seq.Reg.Gauge("node_evq_high", nl).Set(float64(3 + i))
		tel.Reg.Counter("node_msgs_total", nl).Add(uint64(100 + i))
		seq.Reg.Counter("node_msgs_total", nl).Add(uint64(100 + i))
	}

	merged := Merged(laneA, laneB)
	now := 10 * sim.Microsecond
	var wantJSON, gotJSON bytes.Buffer
	if err := seq.WriteJSON(&wantJSON, now); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&gotJSON, now); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Fatalf("merged JSON export differs from sequential:\nseq: %s\ngot: %s",
			wantJSON.Bytes(), gotJSON.Bytes())
	}

	// The merged quantiles are the sequential machine's, not approximations.
	em := merged.Snapshot(now)
	es := seq.Snapshot(now)
	for i := range es.Metrics {
		if es.Metrics[i].Kind != "histogram" {
			continue
		}
		if em.Metrics[i].P50 != es.Metrics[i].P50 || em.Metrics[i].P99 != es.Metrics[i].P99 {
			t.Fatalf("metric %s: merged p50/p99 %d/%d != sequential %d/%d",
				es.Metrics[i].Name, em.Metrics[i].P50, em.Metrics[i].P99,
				es.Metrics[i].P50, es.Metrics[i].P99)
		}
	}
}

// TestMergedSeriesMisaligned pins the defensive path: series whose sample
// times do not line up merge losslessly (appended, not silently dropped or
// mis-summed).
func TestMergedSeriesMisaligned(t *testing.T) {
	a, b := New(), New()
	sa := a.SeriesFor("fabric_messages_total")
	sb := b.SeriesFor("fabric_messages_total")
	sa.Append(1*sim.Microsecond, 5)
	sb.Append(1*sim.Microsecond, 7)
	sb.Append(2*sim.Microsecond, 9) // only lane b sampled at t=2

	m := Merged(a, b)
	s := m.SeriesFor("fabric_messages_total")
	if len(s.Samples) != 2 {
		t.Fatalf("merged samples = %d, want 2", len(s.Samples))
	}
	if s.Samples[0].V != 12 {
		t.Fatalf("aligned sample = %g, want 12", s.Samples[0].V)
	}
	if s.Samples[1].T != 2*sim.Microsecond || s.Samples[1].V != 9 {
		t.Fatalf("trailing sample = (%v, %g), want (2us, 9)", s.Samples[1].T, s.Samples[1].V)
	}
}
