package machine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// Artifacts is what a run recorded, encoded: one field per observer plane,
// nil when the plane was never armed. It is the only place that knows which
// planes exist, how each encodes and what its file is called — the
// experiment harness, the soak driver and the command-line tools all take
// their bytes from here, and cmd/p3stat reads every one of the files back.
// Everything but HostProfile derives from virtual time and seeded state, so
// a same-seed rerun yields identical bytes at every shard count.
type Artifacts struct {
	Telemetry   []byte // telemetry JSON export
	Dump        []byte // end-of-run flight-recorder dump
	ReportDumps []File // the detection dump of each report that carries one, "<report index>.<kind>.p3dump", in report order
	HostProfile []byte // host-execution profile JSON (host-side values)
}

// File is one artifact under the name WriteFiles appends to the base.
type File struct {
	Name string
	Data []byte
}

// Artifacts encodes every armed plane. reason is recorded in the
// end-of-run dump. Call it after Run, from the driver goroutine.
func (m *Machine) Artifacts(reason string) Artifacts {
	var a Artifacts
	// Encoding into memory fails only on a value no run can record (a NaN
	// gauge), so an error here is a bug, not an outcome.
	must := func(plane string, err error) {
		if err != nil {
			panic(fmt.Sprintf("machine: encoding %s: %v", plane, err))
		}
	}
	if tel := m.Telemetry(); tel != nil {
		var b bytes.Buffer
		must("telemetry", tel.WriteJSON(&b, m.S.Now()))
		a.Telemetry = b.Bytes()
	}
	if m.dumpEvents > 0 {
		a.Dump = m.TakeDump(reason).Bytes()
		for i, r := range m.reports {
			if r.Dump != nil {
				a.ReportDumps = append(a.ReportDumps,
					File{fmt.Sprintf("%d.%s.p3dump", i, r.Kind), r.Dump.Bytes()})
			}
		}
	}
	if hp := m.HostProfile(); hp != nil {
		b, err := hp.JSON()
		must("host profile", err)
		a.HostProfile = b
	}
	return a
}

// WriteFiles writes every recorded artifact under dir (created if missing)
// as base.telemetry.json, base.<i>.<kind>.p3dump per failure
// report that carries a dump, base.p3dump and base.hostprof.json, in that order, and
// returns the paths written. It stops at the first error.
func (a Artifacts) WriteFiles(dir, base string) ([]string, error) {
	files := append([]File{{"telemetry.json", a.Telemetry}}, a.ReportDumps...)
	files = append(files, File{"p3dump", a.Dump}, File{"hostprof.json", a.HostProfile})

	var paths []string
	for _, f := range files {
		if f.Data == nil {
			continue
		}
		if len(paths) == 0 {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
		path := filepath.Join(dir, base+"."+f.Name)
		if err := os.WriteFile(path, f.Data, 0o644); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
