package model

import (
	"reflect"
	"testing"

	"portals3/internal/sim"
)

// FuzzParseSchedule: no spec panics the parser, and what parses renders to
// a spec that parses back to the same schedule and renders the same again —
// the property TestScheduleRoundTrip states for hand-picked inputs, which is
// what makes a bisected schedule a pasteable command line. The seed corpus
// under testdata/fuzz is replayed by every plain `go test`.
func FuzzParseSchedule(f *testing.F) {
	for _, spec := range []string{
		"linkdown:5:X+:200us:300us,stall:12:1ms:150us,restart:3:2ms:80us",
		"burst:drop:data:0.3:500us:120us,burst:delay:fcack:0.5:700us:90us:20us,corrupt:9:800us",
		"stall:0:1234ps:55ns",
		" linkdown:-1:+z:0:1h ,burst:reorder:nack:1e-3:1.5ms:0x1p4ns:7ps",
		"burst:dup:all:NaN:1us:1us",
		"stall:1:9223372036854775807ps:2562047h",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		for _, e := range s {
			if e.At < 0 || e.Dur < 0 || e.Rule.Delay < 0 {
				t.Fatalf("ParseSchedule(%q) accepted a negative time: %+v", spec, e)
			}
		}
		canon := s.String()
		again, err := ParseSchedule(canon)
		if err != nil {
			t.Fatalf("ParseSchedule(%q) renders as %q, which does not parse: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(s, again) || again.String() != canon {
			t.Fatalf("ParseSchedule(%q) is not a fixed point:\n first %q\nsecond %q", spec, canon, again.String())
		}
	})
}

// FuzzParseFaults: no spec panics the parser, what it accepts renders
// (FormatFaults) to a spec that parses back to the same rules, every rule is
// one the fault plane can evaluate (a probability in (0, 1], a positive
// delay where the kind needs one), and each rule survives the schedule
// grammar's rendering of it as a burst.
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{
		"drop:data:0.02,drop:fcack:0.1,delay:data:0.05:20us",
		"dup:any:1, reorder:nack:5e-1:1.5ms",
		"delay:data:0.5:2562047h",
		"drop:data:nan",
		"delay:all:0.25:3ps",
		"drop:data:0.5:junk:more",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseFaults(spec)
		if err != nil {
			return
		}
		if back, err := ParseFaults(FormatFaults(rules)); err != nil || !reflect.DeepEqual(back, rules) {
			t.Fatalf("ParseFaults(%q) renders as %q, which parses to %+v (%v)", spec, FormatFaults(rules), back, err)
		}
		for _, r := range rules {
			if !(r.Prob > 0 && r.Prob <= 1) {
				t.Fatalf("ParseFaults(%q) accepted probability %v", spec, r.Prob)
			}
			timed := r.Kind == FaultDelay || r.Kind == FaultReorder
			if timed != (r.Delay > 0) || r.Delay < 0 {
				t.Fatalf("ParseFaults(%q): %s rule with delay %v", spec, r.Kind, r.Delay)
			}
			burst := FaultSchedule{{Kind: SchedBurst, Rule: r, At: sim.Microsecond, Dur: sim.Microsecond}}
			back, err := ParseSchedule(burst.String())
			if err != nil || !reflect.DeepEqual(back, burst) {
				t.Fatalf("ParseFaults(%q): rule %+v does not survive %q: %v", spec, r, burst, err)
			}
		}
	})
}
