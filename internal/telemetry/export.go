// The exporter: a JSON document that round-trips through ReadJSON for
// offline rendering (cmd/p3stat). Metrics and series are emitted in sorted
// (name, labels) order, so exports of a deterministic run are
// byte-identical.
package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"

	"portals3/internal/sim"
)

// seriesSorted returns series sorted by (name, labels) for export.
func (t *Telemetry) seriesSorted() []*Series {
	out := append([]*Series(nil), t.series...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].labelStr < out[j].labelStr
	})
	return out
}

// The JSON export schema. Histograms carry their summary statistics and
// non-empty buckets; series carry every sample. ReadJSON inverts it.
type (
	// Export is the top-level JSON document.
	Export struct {
		SimTimePs int64          `json:"sim_time_ps"`
		Metrics   []ExportMetric `json:"metrics"`
		Series    []ExportSeries `json:"series,omitempty"`
	}

	// ExportMetric is one counter, gauge or histogram.
	ExportMetric struct {
		Name    string        `json:"name"`
		Labels  string        `json:"labels,omitempty"`
		Kind    string        `json:"kind"`
		Value   float64       `json:"value,omitempty"`
		Count   uint64        `json:"count,omitempty"`
		Sum     int64         `json:"sum,omitempty"`
		Min     int64         `json:"min,omitempty"`
		Max     int64         `json:"max,omitempty"`
		P50     int64         `json:"p50,omitempty"`
		P90     int64         `json:"p90,omitempty"`
		P99     int64         `json:"p99,omitempty"`
		P999    int64         `json:"p999,omitempty"`
		Buckets []ExportBound `json:"buckets,omitempty"`
	}

	// ExportBound is one non-empty histogram bucket.
	ExportBound struct {
		Le    int64  `json:"le"`
		Count uint64 `json:"count"`
	}

	// ExportSeries is one sampler time series.
	ExportSeries struct {
		Name   string    `json:"name"`
		Labels string    `json:"labels,omitempty"`
		Times  []int64   `json:"t_ps"`
		Values []float64 `json:"v"`
	}
)

// Snapshot builds the JSON export document.
func (t *Telemetry) Snapshot(now sim.Time) *Export {
	if t == nil {
		return &Export{}
	}
	e := &Export{SimTimePs: int64(now)}
	for _, m := range t.Reg.Metrics() {
		em := ExportMetric{Name: m.Name, Labels: m.labelStr}
		switch m.Kind {
		case KindCounter:
			em.Kind = "counter"
			em.Value = float64(m.C.Value())
		case KindGauge:
			em.Kind = "gauge"
			em.Value = m.G.Value()
		case KindHistogram:
			em.Kind = "histogram"
			em.Count = m.H.Count()
			em.Sum = m.H.Sum()
			em.Min = m.H.Min()
			em.Max = m.H.Max()
			em.P50 = m.H.Quantile(0.50)
			em.P90 = m.H.Quantile(0.90)
			em.P99 = m.H.Quantile(0.99)
			em.P999 = m.H.Quantile(0.999)
			for _, b := range m.H.Buckets() {
				em.Buckets = append(em.Buckets, ExportBound{Le: b.Upper, Count: b.Count})
			}
		}
		e.Metrics = append(e.Metrics, em)
	}
	for _, s := range t.seriesSorted() {
		es := ExportSeries{Name: s.Name, Labels: s.labelStr}
		for _, smp := range s.Samples {
			es.Times = append(es.Times, int64(smp.T))
			es.Values = append(es.Values, smp.V)
		}
		e.Series = append(e.Series, es)
	}
	return e
}

// WriteJSON emits the JSON export document, indented for humans.
func (t *Telemetry) WriteJSON(w io.Writer, now sim.Time) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot(now))
}

// ReadJSON parses a document written by WriteJSON.
func ReadJSON(r io.Reader) (*Export, error) {
	var e Export
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

// Label returns the value of one label of the metric's rendered label set
// (`dir="X+",node="3"`), "" when the key is absent.
func (m ExportMetric) Label(key string) string { return labelValue(m.Labels, key) }

// Label returns the value of one label of the series' rendered label set,
// "" when the key is absent.
func (s ExportSeries) Label(key string) string { return labelValue(s.Labels, key) }

// labelValue inverts labelString for one key: labels is a comma-separated
// list of key="value" pairs with Go-quoted values. A set that does not
// parse (a hand-edited export) reads as having no labels past that point.
func labelValue(labels, key string) string {
	for labels != "" {
		k, rest, ok := strings.Cut(labels, "=")
		if !ok {
			return ""
		}
		q, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return ""
		}
		if k == key {
			v, err := strconv.Unquote(q)
			if err != nil {
				return ""
			}
			return v
		}
		if labels, ok = strings.CutPrefix(rest[len(q):], ","); !ok {
			return ""
		}
	}
	return ""
}

// Metric finds an exported metric by name and exact label string, or nil.
func (e *Export) Metric(name, labels string) *ExportMetric {
	for i := range e.Metrics {
		if e.Metrics[i].Name == name && e.Metrics[i].Labels == labels {
			return &e.Metrics[i]
		}
	}
	return nil
}
