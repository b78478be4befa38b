package flightrec

import (
	"encoding/json"
	"fmt"
	"io"

	"portals3/internal/sim"
)

// Record is one Chrome trace event (the chrome://tracing / Perfetto JSON)
// a dump renders into: one process per node, one thread per track, on a
// virtual-time axis. Ph is the phase ("X" complete with duration, "i"
// instant).
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

// The tracks within a node's group.
const (
	trackHost   = iota // host CPU: interrupts, driver work
	trackPPC           // firmware handlers
	trackWire          // message arrivals/injections
	trackApp           // application-visible events
	trackFlight        // flight-recorder events and causal spans
)

// trackNames names the tracks, indexed by track id.
var trackNames = [...]string{"host-cpu", "seastar-ppc", "wire", "app", "flightrec"}

// trackName returns the display name of a track id ("track N" for ids
// outside the table).
func trackName(tid int) string {
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

// writeChrome emits records as a Chrome trace-event JSON array, with
// metadata naming each node's process and tracks.
func writeChrome(w io.Writer, recs []Record) error {
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
	return json.NewEncoder(w).Encode(out)
}
