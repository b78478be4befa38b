package experiments

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// randomJob draws a Job as ParseJob returns one: each field drawn from its
// flag's range, a stall window only with the flight recorder, and a
// progress reporter, which has no spelling, on half the draws.
func randomJob(r *rand.Rand) Job {
	var j Job
	j.Workload = []string{"halo", "collective", "random", "hotspot"}[r.IntN(4)]
	j.Dim, j.Shards = 3+r.IntN(10), 1+r.IntN(8)
	j.Steps, j.Bytes, j.Radius = r.IntN(5), r.IntN(4096), r.IntN(3)
	j.TrafficConfig.Msgs, j.Load, j.Seed = 1+r.IntN(32), 2*r.Float64(), r.Uint64()
	j.HotFrac, j.HotNode = r.Float64(), topo.NodeID(r.IntN(1000))
	j.GoBackN, j.FaultSeed = r.IntN(2) == 0, r.Int64N(1000)-500
	for range r.IntN(3) {
		rule := model.NewFault(model.FaultKind(r.IntN(4)), model.FrameClass(r.IntN(4)), 1/float64(1+r.IntN(100)))
		if rule.Kind == model.FaultDelay || rule.Kind == model.FaultReorder {
			rule.Delay = sim.Time(1 + r.Int64N(1e9))
		}
		j.Faults = append(j.Faults, rule)
	}
	if r.IntN(2) == 0 {
		tp, _ := topo.XT3Torus(j.Dim, j.Dim, j.Dim)
		j.Schedule = model.GenSchedule(r.Int64(), tp, 1+r.IntN(4), 500*sim.Microsecond)
	}
	j.Telemetry, j.SamplePeriod = r.IntN(2) == 0, sim.Time(r.IntN(2000))*sim.Microsecond
	j.StallWindow = sim.Time(r.IntN(3)*r.IntN(1000)) * sim.Microsecond
	if j.StallWindow > 0 || r.IntN(2) == 0 {
		j.FlightRec = 1 + r.IntN(1<<20)
	}
	j.HostProf, j.ProgressEvery = r.IntN(2) == 0, time.Duration(1+r.Int64N(5e9))
	if r.IntN(2) == 0 {
		j.Progress = func(sim.HostProgress) {}
	}
	return j
}

// TestJobArgsRoundTrip: ParseJob reads back every Job that Args spells,
// field for field but Progress.
func TestJobArgsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for range 2000 {
		want := randomJob(r)
		got, err := ParseJob(want.Args())
		want.Progress = nil
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseJob(%q) = %+v, %v\nwant %+v", want.Args(), got, err, want)
		}
	}
}

// TestJobDefaults: Args names the workload and then only what differs from
// the flags' defaults, in name order, and Msgs counts with the zero Steps
// and Bytes resolved as the benchmark shapes have them.
func TestJobDefaults(t *testing.T) {
	for _, tc := range []struct {
		args        string
		bytes, msgs int
	}{
		{"-workload halo -dim 4", 1024, 64 * 6 * 2},
		{"-workload collective -dim 4 -steps 3", 256, CollectiveMsgs(64, 3)},
		{"-workload random -dim 4 -msgs 5", 1024, 64 * 5},
		{"-workload hotspot -bytes 64 -dim 4 -hot 3", 64, 64 * 8},
	} {
		j, err := ParseJob(strings.Fields(tc.args))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(j.Args(), " "); got != tc.args {
			t.Errorf("ParseJob(%q).Args() = %q", tc.args, got)
		}
		if err := j.Validate(); err != nil {
			t.Errorf("%s: %v", tc.args, err)
		}
		if b := j.Resolved().Bytes; b != tc.bytes || j.Msgs() != tc.msgs {
			t.Errorf("%s: %d B and %d messages, want %d and %d", tc.args, b, j.Msgs(), tc.bytes, tc.msgs)
		}
	}
}

// TestHaloTitleFaces: the halo header states its face size exactly — in KB
// when it is whole KB, as every default run prints it, and in bytes when
// not (soak's 512 B halo once read "0 KB faces").
func TestHaloTitleFaces(t *testing.T) {
	for _, tc := range []struct{ args, faces string }{
		{"-workload halo -dim 3", " 1 KB faces,"},
		{"-workload halo -bytes 4096 -dim 3", " 4 KB faces,"},
		{"-workload halo -bytes 512 -dim 3 -steps 4 -radius 1", " 512 B faces,"},
		{"-workload halo -bytes 1536 -dim 3", " 1536 B faces,"},
	} {
		j, err := ParseJob(strings.Fields(tc.args))
		if err != nil {
			t.Fatal(err)
		}
		if title := j.Title(TorusResult{Nodes: 27, Shards: 1}); !strings.Contains(title, tc.faces) {
			t.Errorf("%s: title %q, want %q", tc.args, title, tc.faces)
		}
	}
}

// FuzzParseJob: no command line panics ParseJob or Validate, and every one
// netpipe would run (both accept it) spells, through Args, a command line
// that parses back to the same Job. The seed corpus under
// testdata/fuzz/FuzzParseJob holds the four soak campaigns' Jobs and the
// lossy torus job of scripts/check.sh.
func FuzzParseJob(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		j, err := ParseJob(strings.Fields(line))
		if err != nil || j.Validate() != nil {
			return
		}
		again, err := ParseJob(j.Args())
		if err != nil || !reflect.DeepEqual(again, j) {
			t.Fatalf("ParseJob(%q) = %+v spells %q, which parses to %+v (%v)", line, j, j.Args(), again, err)
		}
	})
}
