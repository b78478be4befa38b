package mpi

import (
	"fmt"

	"portals3/internal/core"
	"portals3/internal/machine"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// DefaultStart is the virtual-time start barrier LaunchAt uses on behalf
// of Launch: rank initialization runs at t=0 in parallel across nodes and
// takes well under this regardless of job size, so every rank's library is
// armed before any rank's main begins.
const DefaultStart = 500 * sim.Microsecond

// Launch spawns an MPI job: one rank per listed node, running main. It
// mirrors yod/mpirun on the real machine — the job launcher distributes the
// rank-to-node map and synchronizes startup before user code runs — and is
// LaunchAt with impl's standard profile and the DefaultStart barrier.
func Launch(m *machine.Machine, nodes []topo.NodeID, impl Impl, mode machine.Mode, main func(r *Rank)) error {
	return LaunchAt(m, nodes, ConfigFor(&m.P, impl), mode, DefaultStart, main)
}

// LaunchAt spawns an MPI job with an explicit profile and a virtual-time
// start barrier: each rank initializes its library at t=0 on its own node,
// sleeps to start, and runs main from exactly that instant. The barrier
// needs no shared state — each rank consults only its own clock — so it is
// safe on sharded machines where every rank lives on its node's lane, and
// it is the launch path for machine-scale jobs that also need to shrink
// the per-rank resource profile (Config.NumSinks/SinkBytes/EQDepth). A
// rank whose initialization overruns start panics: the barrier would
// otherwise silently reorder startup against ranks already sending.
func LaunchAt(m *machine.Machine, nodes []topo.NodeID, cfg Config, mode machine.Mode, start sim.Time, main func(r *Rank)) error {
	peers := make([]core.ProcessID, len(nodes))
	for i, node := range nodes {
		i := i
		app, err := m.Spawn(node, fmt.Sprintf("rank%d", i), mode, func(app *machine.App) {
			r, err := NewRank(app.API, app.Proc, app.Alloc, &m.P, cfg, i, peers)
			if err != nil {
				panic(fmt.Sprintf("mpi: rank %d init: %v", i, err))
			}
			if now := app.Proc.Now(); now > start {
				panic(fmt.Sprintf("mpi: rank %d init overran the start barrier (%v > %v)", i, now, start))
			} else {
				app.Proc.Sleep(start - now)
			}
			main(r)
		})
		if err != nil {
			return err
		}
		peers[i] = app.ID()
	}
	return nil
}
