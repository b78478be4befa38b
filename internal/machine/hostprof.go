// Host-execution profiling on a machine: the machine-level surface over
// the kernel profiler (sim/hostprof.go). A HostProfile is the
// JSON-exportable artifact netpipe writes with -hostprof and p3stat
// renders as the host-execution table. It measures the host running the
// simulation — wall-clock, lane skew, heap watermarks — so it is
// nondeterministic by nature and is deliberately excluded from every
// differential digest (TorusResult.Digest, soak Summary).
package machine

import (
	"encoding/json"
	"time"

	"portals3/internal/sim"
)

// HostProfileKind is the JSON "kind" discriminator p3stat sniffs to route
// a file to the host-execution renderer.
const HostProfileKind = "host_profile"

// HostProfile is the exported host-execution artifact: the kernel's
// profile (for every lane, busy+wait+drain sums to WallNs within clock
// granularity) plus the machine-measured wall of the kernel run calls, the
// external reference that accounting is checked against. One profile
// covers one run; a sweep writes one per load arm.
type HostProfile struct {
	Kind      string `json:"kind"`
	RunWallNs int64  `json:"run_wall_ns"`
	sim.KernelProfile
}

// EnableHostProfile arms the host-execution profiler on a sharded
// machine's kernel. Classic machines have no lanes to account; profiling
// them is a pprof job, not a lane-skew one.
func (m *Machine) EnableHostProfile() {
	m.profiledKernel().EnableHostProfile()
}

// profiledKernel marks the host profiler armed and returns the kernel that
// carries it.
func (m *Machine) profiledKernel() *sim.Kernel {
	if m.kern == nil {
		panic("machine: host-execution profiling needs a sharded machine (NewSharded)")
	}
	m.hostprofOn = true
	return m.kern
}

// SetProgress registers fn for live host-execution snapshots about every
// `every` of wall-clock (see sim.Kernel.SetProgress for the delivery
// contract). Implies EnableHostProfile.
func (m *Machine) SetProgress(every time.Duration, fn func(sim.HostProgress)) {
	m.profiledKernel().SetProgress(every, fn)
}

// HostProfile snapshots the host-execution profile, nil when profiling was
// never enabled. Call it after Run, from the driver goroutine.
func (m *Machine) HostProfile() *HostProfile {
	if !m.hostprofOn {
		return nil
	}
	kp := m.kern.Profile()
	if kp == nil {
		return nil
	}
	return &HostProfile{Kind: HostProfileKind, RunWallNs: int64(m.runWall), KernelProfile: *kp}
}

// JSON renders the profile as indented JSON, trailing newline included —
// the on-disk format netpipe/soak write and p3stat reads.
func (hp *HostProfile) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(hp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
