package flightrec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"portals3/internal/sim"
)

func TestNoRecordsWriteAnEmptyArray(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Errorf("empty trace file = %q", buf.String())
	}
}

func TestRecordsAndChromeFormat(t *testing.T) {
	recs := []Record{
		{Name: "rx hdr", Cat: "net", Ph: "i", TS: 5390 * sim.Nanosecond, PID: 3, TID: trackWire, Args: map[string]interface{}{"msg": 1}},
		{Name: "rx-header", Cat: "fw", Ph: "X", TS: 6 * sim.Microsecond, Dur: 600 * sim.Nanosecond, PID: 3, TID: trackPPC},
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, recs); err != nil {
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
			{Name: "interrupt", Cat: "os", Ph: "X", TS: 2 * sim.Microsecond, Dur: 2 * sim.Microsecond, PID: 1, TID: trackHost},
			{Name: "tx-start", Cat: "fw", Ph: "X", TS: 0, Dur: 900 * sim.Nanosecond, PID: 0, TID: trackPPC},
			{Name: "inject", Cat: "net", Ph: "i", TS: sim.Microsecond, PID: 0, TID: trackWire},
		}
	}
	var a, b bytes.Buffer
	if err := writeChrome(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := writeChrome(&b, build()); err != nil {
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

func TestTrackName(t *testing.T) {
	for tid, want := range map[int]string{
		trackHost: "host-cpu", trackPPC: "seastar-ppc",
		trackWire: "wire", trackApp: "app",
		trackFlight: "flightrec", 9: "track 9",
	} {
		if got := trackName(tid); got != want {
			t.Errorf("trackName(%d) = %q, want %q", tid, got, want)
		}
	}
}

func TestSummarizeTrace(t *testing.T) {
	span := func(node, track int, cat, name string, ts, dur sim.Time) Record {
		return Record{Name: name, Cat: cat, Ph: "X", TS: ts, Dur: dur, PID: node, TID: track}
	}
	s := summarize([]Record{
		span(0, trackPPC, "fw", "tx-start", 0, 400),
		span(0, trackPPC, "fw", "tx-start", 1000, 600),
		span(0, trackHost, "os", "irq", 500, 2000),
		span(1, trackPPC, "fw", "rx-header", 800, 440),
		{Name: "hdr-arrive", Cat: "fabric", Ph: "i", TS: 700, PID: 1, TID: trackWire},
	})
	if s.horizon != 2500 {
		t.Errorf("horizon %v", s.horizon)
	}
	if s.instants != 1 {
		t.Errorf("instants %d", s.instants)
	}
	if len(s.spans) != 4 || s.spans[0].name != "irq" || s.spans[0].total != 2000 {
		t.Fatalf("span order wrong: %+v", s.spans)
	}
	if in := s.spans[3]; in.name != "hdr-arrive" || in.count != 1 || in.total != 0 {
		t.Fatalf("the instant's row is %+v, want its count last", in)
	}
	if s.spans[1].name != "tx-start" || s.spans[1].count != 2 || s.spans[1].max != 600 {
		t.Fatalf("aggregation wrong: %+v", s.spans[1])
	}
	if len(s.tracks) != 3 || s.tracks[0].node != 0 || s.tracks[0].track != trackHost {
		t.Fatalf("track order wrong: %+v", s.tracks)
	}
	var sb strings.Builder
	s.render(&sb, 0)
	for _, want := range []string{"seastar-ppc", "host-cpu", "fw/tx-start", "occ%"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
	if strings.Contains(sb.String(), "shown") {
		t.Errorf("an uncapped render elides rows:\n%s", sb.String())
	}
	sb.Reset()
	s.render(&sb, 1)
	for _, want := range []string{"1 of 3 tracks shown", "1 of 4 handlers shown"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render capped at 1 row missing %q:\n%s", want, sb.String())
		}
	}
}
