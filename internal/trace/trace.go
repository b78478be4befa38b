// Package trace is the Chrome trace-event format (the chrome://tracing /
// Perfetto JSON) the simulated machine's timeline is written in: per-node
// tracks for interrupts, firmware handlers, message lifecycles and
// flight-recorder events, on a virtual-time axis — the kind of timeline
// observability the real Red Storm team got from their RAS and firmware
// counters.
//
// Nothing here records: the machine's flight recorder does, and its dumps
// render into Records (flightrec.Dump.Records), which WriteChrome writes
// and ReadChrome reads back for offline analysis.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"portals3/internal/sim"
)

// Record is one trace event. Fields map onto the Chrome trace-event
// format: Ph is the phase ("X" complete with duration, "i" instant).
type Record struct {
	Name string
	Cat  string
	Ph   string
	TS   sim.Time // event start
	Dur  sim.Time // for "X" records
	PID  int      // node id (one Chrome "process" per node)
	TID  int      // track within the node
	Args map[string]interface{}
}

// Well-known track ids within a node's group.
const (
	TrackHost   = iota // host CPU: interrupts, driver work
	TrackPPC           // firmware handlers
	TrackWire          // message arrivals/injections
	TrackApp           // application-visible events
	TrackFlight        // flight-recorder events and causal spans (p3dump)
)

// trackNames names the well-known tracks, indexed by track id.
var trackNames = [...]string{"host-cpu", "seastar-ppc", "wire", "app", "flightrec"}

// TrackName returns the display name of a well-known track id ("track N"
// for ids outside the table).
func TrackName(tid int) string {
	if tid >= 0 && tid < len(trackNames) {
		return trackNames[tid]
	}
	return fmt.Sprintf("track %d", tid)
}

// chromeEvent is the on-disk JSON shape.
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`            // microseconds
	Dur  float64                `json:"dur,omitempty"` // microseconds
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"` // instant scope
	Args map[string]interface{} `json:"args,omitempty"`
}

// WriteChrome emits records as a Chrome trace-event JSON array, with
// metadata naming each node's process and tracks.
func WriteChrome(w io.Writer, recs []Record) error {
	out := []interface{}{}
	seen := map[int]bool{}
	for _, r := range recs {
		if !seen[r.PID] {
			seen[r.PID] = true
			out = append(out, map[string]interface{}{
				"name": "process_name", "ph": "M", "pid": r.PID,
				"args": map[string]string{"name": fmt.Sprintf("node %d", r.PID)},
			})
			// Emit thread names in fixed track order so the output is
			// byte-identical across runs (a map range here would not be).
			for tid, tn := range trackNames {
				out = append(out, map[string]interface{}{
					"name": "thread_name", "ph": "M", "pid": r.PID, "tid": tid,
					"args": map[string]string{"name": tn},
				})
			}
		}
		ev := chromeEvent{
			Name: r.Name, Cat: r.Cat, Ph: r.Ph,
			TS: r.TS.Micros(), Dur: r.Dur.Micros(),
			PID: r.PID, TID: r.TID, Args: r.Args,
		}
		if r.Ph == "i" {
			ev.S = "t"
		}
		out = append(out, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadChrome parses a WriteChrome file back into records, dropping the
// metadata ("M") entries — the inverse used by offline analyzers
// (cmd/p3stat) so a saved timeline can be summarized without re-running
// the simulation. Timestamps survive the microsecond round trip exactly:
// Micros divides the picosecond value by 1e6 and float64 holds any sim
// horizon's microsecond count with sub-picosecond slack.
func ReadChrome(r io.Reader) ([]Record, error) {
	var raw []chromeEvent
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return nil, err
	}
	var out []Record
	for _, ev := range raw {
		if ev.Ph == "M" || ev.Ph == "" {
			continue
		}
		out = append(out, Record{
			Name: ev.Name, Cat: ev.Cat, Ph: ev.Ph,
			TS:  sim.Time(ev.TS * 1e6),
			Dur: sim.Time(ev.Dur * 1e6),
			PID: ev.PID, TID: ev.TID, Args: ev.Args,
		})
	}
	return out, nil
}
