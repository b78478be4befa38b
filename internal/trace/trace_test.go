package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"portals3/internal/sim"
)

func TestNoRecordsWriteAnEmptyArray(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Errorf("empty trace file = %q", buf.String())
	}
}

func TestRecordsAndChromeFormat(t *testing.T) {
	recs := []Record{
		{Name: "rx hdr", Cat: "net", Ph: "i", TS: 5390 * sim.Nanosecond, PID: 3, TID: TrackWire, Args: map[string]interface{}{"msg": 1}},
		{Name: "rx-header", Cat: "fw", Ph: "X", TS: 6 * sim.Microsecond, Dur: 600 * sim.Nanosecond, PID: 3, TID: TrackPPC},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var out []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var foundInstant, foundSpan, foundMeta bool
	for _, ev := range out {
		switch ev["ph"] {
		case "i":
			foundInstant = true
			if ev["ts"].(float64) != 5.39 {
				t.Errorf("instant ts = %v, want 5.39 us", ev["ts"])
			}
		case "X":
			foundSpan = true
			if ev["dur"].(float64) != 0.6 {
				t.Errorf("span dur = %v, want 0.6 us", ev["dur"])
			}
		case "M":
			foundMeta = true
		}
	}
	if !foundInstant || !foundSpan || !foundMeta {
		t.Errorf("missing record kinds: i=%v X=%v M=%v", foundInstant, foundSpan, foundMeta)
	}
}

// TestWriteChromeDeterministic pins the exact serialized form: thread-name
// metadata must come out in track order (a map range here once made the
// file differ between runs), and repeated writes must be byte-identical.
func TestWriteChromeDeterministic(t *testing.T) {
	build := func() []Record {
		return []Record{
			{Name: "interrupt", Cat: "os", Ph: "X", TS: 2 * sim.Microsecond, Dur: 2 * sim.Microsecond, PID: 1, TID: TrackHost},
			{Name: "tx-start", Cat: "fw", Ph: "X", TS: 0, Dur: 900 * sim.Nanosecond, PID: 0, TID: TrackPPC},
			{Name: "inject", Cat: "net", Ph: "i", TS: sim.Microsecond, PID: 0, TID: TrackWire},
		}
	}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, build()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("WriteChrome not deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	const want = `[{"args":{"name":"node 1"},"name":"process_name","ph":"M","pid":1},` +
		`{"args":{"name":"host-cpu"},"name":"thread_name","ph":"M","pid":1,"tid":0},` +
		`{"args":{"name":"seastar-ppc"},"name":"thread_name","ph":"M","pid":1,"tid":1},` +
		`{"args":{"name":"wire"},"name":"thread_name","ph":"M","pid":1,"tid":2},` +
		`{"args":{"name":"app"},"name":"thread_name","ph":"M","pid":1,"tid":3},` +
		`{"args":{"name":"flightrec"},"name":"thread_name","ph":"M","pid":1,"tid":4},` +
		`{"name":"interrupt","cat":"os","ph":"X","ts":2,"dur":2,"pid":1,"tid":0},` +
		`{"args":{"name":"node 0"},"name":"process_name","ph":"M","pid":0},` +
		`{"args":{"name":"host-cpu"},"name":"thread_name","ph":"M","pid":0,"tid":0},` +
		`{"args":{"name":"seastar-ppc"},"name":"thread_name","ph":"M","pid":0,"tid":1},` +
		`{"args":{"name":"wire"},"name":"thread_name","ph":"M","pid":0,"tid":2},` +
		`{"args":{"name":"app"},"name":"thread_name","ph":"M","pid":0,"tid":3},` +
		`{"args":{"name":"flightrec"},"name":"thread_name","ph":"M","pid":0,"tid":4},` +
		`{"name":"tx-start","cat":"fw","ph":"X","ts":0,"dur":0.9,"pid":0,"tid":1},` +
		`{"name":"inject","cat":"net","ph":"i","ts":1,"pid":0,"tid":2,"s":"t"}]` + "\n"
	if a.String() != want {
		t.Errorf("golden mismatch:\ngot  %s\nwant %s", a.String(), want)
	}
}

func TestReadChromeRoundTrip(t *testing.T) {
	want := []Record{
		{Name: "rx-header", Cat: "fw", Ph: "X", TS: 6 * sim.Microsecond, Dur: 600 * sim.Nanosecond, PID: 2, TID: TrackPPC},
		{Name: "put-end", Cat: "ev", Ph: "i", TS: 9 * sim.Microsecond, PID: 2, TID: TrackApp},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, want); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (metadata must be dropped)", len(recs))
	}
	for i, r := range recs {
		w := want[i]
		if r.Name != w.Name || r.Cat != w.Cat || r.Ph != w.Ph ||
			r.TS != w.TS || r.Dur != w.Dur || r.PID != w.PID || r.TID != w.TID {
			t.Errorf("record %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestTrackName(t *testing.T) {
	for tid, want := range map[int]string{
		TrackHost: "host-cpu", TrackPPC: "seastar-ppc",
		TrackWire: "wire", TrackApp: "app",
		TrackFlight: "flightrec", 9: "track 9",
	} {
		if got := TrackName(tid); got != want {
			t.Errorf("TrackName(%d) = %q, want %q", tid, got, want)
		}
	}
}
