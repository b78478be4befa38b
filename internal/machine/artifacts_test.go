package machine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"portals3/internal/flightrec"
	"portals3/internal/model"
	"portals3/internal/sim"
)

// TestArtifactsNothingArmed: a machine with no observer plane hands over
// nothing and writes nothing — not even the directory.
func TestArtifactsNothingArmed(t *testing.T) {
	m := NewPair(model.Defaults())
	onePut(t, m, []byte("x"))
	a := m.Artifacts("end of run")
	if !reflect.DeepEqual(a, Artifacts{}) {
		t.Fatalf("unarmed machine recorded %+v", a)
	}
	dir := filepath.Join(t.TempDir(), "never")
	paths, err := a.WriteFiles(dir, "run")
	if err != nil || len(paths) != 0 {
		t.Fatalf("WriteFiles = %v, %v; want nothing", paths, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("WriteFiles created %s for an empty set", dir)
	}
}

// TestArtifactsEveryPlane arms every plane on the stall scenario — with the
// sampler beside the stall detector, two self-terminating observers that
// once kept each other (and Run) alive forever on a classic machine — and
// checks that each field is the plane's own encoding, that the files come
// out under the documented names in the documented order, and that a rerun
// reproduces every simulated byte.
func TestArtifactsEveryPlane(t *testing.T) { forEachPair(t, testArtifactsEveryPlane) }

func testArtifactsEveryPlane(t *testing.T, build func(model.Params) *Machine) {
	armed := func(p model.Params) *Machine {
		m := build(p)
		m.StartSampler(100 * sim.Microsecond)
		if m.Sharded() {
			m.EnableHostProfile()
		}
		return m
	}
	m, _, _, end := runStallScenario(t, armed)
	a := m.Artifacts("end of run")

	var tel bytes.Buffer
	if err := m.Telemetry().WriteJSON(&tel, m.S.Now()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Telemetry, tel.Bytes()) {
		t.Error("Telemetry is not the machine's JSON export")
	}
	if !bytes.Equal(a.Dump, end.Bytes()) {
		t.Error("Dump is not TakeDump(reason)")
	}
	reports := m.Reports()
	if len(reports) != 1 || len(a.ReportDumps) != 1 {
		t.Fatalf("%d reports, %d report dumps; the scenario stalls once", len(reports), len(a.ReportDumps))
	}
	if rd := a.ReportDumps[0]; rd.Name != "0.stall.p3dump" || !bytes.Equal(rd.Data, reports[0].Dump.Bytes()) {
		t.Errorf("report dump %q is not report 0's detection dump", rd.Name)
	}
	want := []string{"run.telemetry.json", "run.0.stall.p3dump", "run.p3dump"}
	if m.Sharded() {
		want = append(want, "run.hostprof.json")
		var hp HostProfile
		if err := json.Unmarshal(a.HostProfile, &hp); err != nil || hp.Kind != HostProfileKind {
			t.Errorf("HostProfile does not decode as a host profile: %v", err)
		}
	} else if a.HostProfile != nil {
		t.Error("classic machine recorded a host profile")
	}

	dir := filepath.Join(t.TempDir(), "made", "on", "demand")
	paths, err := a.WriteFiles(dir, "run")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range paths {
		got = append(got, filepath.Base(p))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WriteFiles wrote %v, want %v", got, want)
	}
	for _, name := range []string{"run.0.stall.p3dump", "run.p3dump"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		d, err := flightrec.Decode(f)
		f.Close()
		if err != nil || len(d.Nodes) != 2 {
			t.Errorf("%s does not decode as a two-node dump: %v", name, err)
		}
	}

	m2, _, _, _ := runStallScenario(t, armed)
	b := m2.Artifacts("end of run")
	a.HostProfile, b.HostProfile = nil, nil // host-side values
	if !reflect.DeepEqual(a, b) {
		t.Error("a same-seed rerun recorded different bytes")
	}
}
