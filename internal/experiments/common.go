// Shared scaffolding for the machine-scale torus workloads: every workload
// (halo exchange, collective trees, synthetic traffic) builds the same
// sharded torus machine from its TorusConfig, starts the same periodic
// observers, and harvests the same digest artifacts. Keeping the scaffold
// in one place is what makes the per-workload differential tests — the
// bit-identity claim of DESIGN.md §11 — compare like with like.
package experiments

import (
	"fmt"

	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/topo"
)

// buildTorusMachine constructs the sharded d×d×d torus machine one
// workload run executes on, applying the config's fault plan and enabling
// the requested artifact recorders. Shards normalizes in place so the
// result reports the value actually used.
func buildTorusMachine(cfg *TorusConfig) (*machine.Machine, *topo.Topology) {
	if cfg.Dim < 3 {
		panic("experiments: torus workloads need Dim >= 3 (smaller axes have no wraparound)")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	p := model.Defaults()
	p.Faults = cfg.Faults
	p.FaultSeed = cfg.FaultSeed
	p.Schedule = cfg.Schedule
	tp, err := topo.XT3Torus(cfg.Dim, cfg.Dim, cfg.Dim)
	if err != nil {
		panic(err)
	}
	m := machine.NewSharded(p, tp, cfg.Shards)
	if cfg.GoBackN || len(cfg.Faults) > 0 || len(cfg.Schedule) > 0 {
		m.EnableGoBackN()
	}
	if cfg.Telemetry {
		m.EnableTelemetry()
	}
	if cfg.FlightRec > 0 {
		m.EnableFlightRecorder(cfg.FlightRec)
	}
	if cfg.HostProf || cfg.Progress != nil {
		m.EnableHostProfile()
		if cfg.Progress != nil {
			m.SetProgress(cfg.ProgressEvery, cfg.Progress)
		}
	}
	return m, tp
}

// startObservers begins the configured periodic observers.
func startObservers(m *machine.Machine, cfg TorusConfig) {
	if cfg.SamplePeriod > 0 {
		m.StartSampler(cfg.SamplePeriod)
	}
	if cfg.StallWindow > 0 {
		m.StartStallDetector(cfg.StallWindow)
	}
}

// harvest collects what every workload digest carries: finish time, window
// count, counter table, whatever the armed planes recorded
// (machine.Artifacts), the fault ledger and failure reports.
func harvest(m *machine.Machine, res *TorusResult) {
	res.Shards = m.ShardKernel().Shards()
	res.FinishPs = int64(m.S.Now())
	res.Windows = m.ShardKernel().Windows
	res.StatsText = m.Stats().String()
	res.Artifacts = m.Artifacts("end of run")
	res.TelemetryJSON = res.Artifacts.Telemetry
	res.HostProfile = m.HostProfile()
	if st, ok := m.FaultSnapshot(); ok {
		res.FaultsLine = st.String()
		res.FaultStats = st
	}
	for _, r := range m.Reports() {
		res.Errors = append(res.Errors, "failure report: "+r.String())
	}
}

// appendRankErrors flattens per-rank error slots (each rank appends only
// to its own slot during the run, so the slices are race-free on a sharded
// machine) into the result in rank order.
func appendRankErrors(res *TorusResult, rankErrs [][]string) {
	for rank, errs := range rankErrs {
		for _, e := range errs {
			res.Errors = append(res.Errors, fmt.Sprintf("rank %d: %s", rank, e))
		}
	}
}
