// Torus collective workload: every node of a d×d×d torus runs one MPI
// rank, and the job iterates the two tree collectives scientific kernels
// spend their synchronization time in — a vector Allreduce (binomial
// reduce to rank 0 plus binomial broadcast, the MPICH composition) and a
// rotating-root Bcast. Each step's vectors are pure functions of (rank,
// step, slot), so every rank verifies the reduction against the analytic
// sum and the broadcast against the root's pattern without any out-of-band
// state.
//
// The ranks launch through mpi.LaunchAt with a shrunken resource profile
// (two 32 KiB sinks, a 512-deep event queue) instead of the interactive-job
// defaults. The profile is part of the workload: a sink unlinks and is
// respawned when the room left in it falls below one eager message, so the
// sink size fixes that schedule and with it every digest of this job.
// It no longer buys host memory — sinks nobody writes to and queue slots
// nobody fills are not backed at either size.
package experiments

import (
	"encoding/binary"
	"fmt"

	"portals3/internal/machine"
	"portals3/internal/mpi"
	"portals3/internal/topo"
)

// The job's rank resource profile (see package comment).
const (
	collNumSinks  = 2
	collSinkBytes = 32 << 10
	collEQDepth   = 512
)

// collVal is the uint64 a rank contributes at slot j of step s — a pure
// splitmix-style mix, so the reduced sum is analytically recomputable.
func collVal(rank, step, j int) uint64 {
	x := uint64(rank)*0x9E3779B97F4A7C15 + uint64(step)*0xBF58476D1CE4E5B9 + uint64(j)*0x94D049BB133111EB + 1
	x ^= x >> 29
	x *= 0xD6E8FEB86659FD93
	return x ^ x>>32
}

// bcastVal is the root's broadcast pattern at slot j of step s.
func bcastVal(root, step, j int) uint64 {
	return collVal(root, step, j) ^ 0xA5A5A5A5_5A5A5A5A
}

// TorusCollective runs the collective-tree workload described above.
// cfg.Bytes is the vector length in bytes (rounded up to whole uint64
// slots); cfg.Radius is unused — tree edges span whatever torus distance
// the rank numbering induces, which is the point: collectives exercise the
// routed fabric at many hop counts at once.
func TorusCollective(cfg TorusConfig) TorusResult {
	m, tp := buildTorusMachine(&cfg)
	nodes := tp.Nodes()
	n := (cfg.Bytes + 7) &^ 7
	if n < 8 {
		n = 8
	}
	slots := n / 8

	// Analytic reduction results: sums[step][j] = Σ over ranks of collVal.
	sums := make([][]uint64, cfg.Steps)
	for step := range sums {
		sums[step] = make([]uint64, slots)
		for rank := 0; rank < nodes; rank++ {
			for j := 0; j < slots; j++ {
				sums[step][j] += collVal(rank, step, j)
			}
		}
	}

	ranks := make([]topo.NodeID, nodes)
	for id := range ranks {
		ranks[id] = topo.NodeID(id)
	}
	mcfg := mpi.ConfigFor(&m.P, mpi.MPICH1)
	mcfg.NumSinks = collNumSinks
	mcfg.SinkBytes = collSinkBytes
	mcfg.EQDepth = collEQDepth

	rankErrs := make([][]string, nodes)
	res := TorusResult{Nodes: nodes}
	err := mpi.LaunchAt(m, ranks, mcfg, machine.Generic, mpi.DefaultStart, func(r *mpi.Rank) {
		rank := r.Rank()
		fail := func(format string, args ...interface{}) {
			rankErrs[rank] = append(rankErrs[rank], fmt.Sprintf(format, args...))
		}
		buf := r.Alloc(n)
		local := make([]byte, n)
		for step := 0; step < cfg.Steps; step++ {
			// Vector allreduce, verified against the analytic sum.
			for j := 0; j < slots; j++ {
				binary.LittleEndian.PutUint64(local[j*8:], collVal(rank, step, j))
			}
			buf.WriteAt(0, local)
			r.Allreduce(mpi.SumUint64, buf, 0, n)
			buf.ReadAt(0, local)
			for j := 0; j < slots; j++ {
				if got := binary.LittleEndian.Uint64(local[j*8:]); got != sums[step][j] {
					fail("step %d allreduce slot %d: got %#x want %#x", step, j, got, sums[step][j])
					break
				}
			}
			// Rotating-root broadcast, verified against the root's pattern.
			root := step % r.Size()
			if rank == root {
				for j := 0; j < slots; j++ {
					binary.LittleEndian.PutUint64(local[j*8:], bcastVal(root, step, j))
				}
				buf.WriteAt(0, local)
			}
			r.Bcast(root, buf, 0, n)
			buf.ReadAt(0, local)
			for j := 0; j < slots; j++ {
				if got := binary.LittleEndian.Uint64(local[j*8:]); got != bcastVal(root, step, j) {
					fail("step %d bcast slot %d: got %#x want %#x", step, j, got, bcastVal(root, step, j))
					break
				}
			}
		}
	})
	if err != nil {
		res.Errors = append(res.Errors, "launch: "+err.Error())
	}
	startObservers(m, cfg)
	m.Run()
	harvest(m, &res)
	appendRankErrors(&res, rankErrs)
	return res
}

// CollectiveMsgs is the analytic point-to-point message count of one run —
// per step, a (P−1)-edge reduce tree, a (P−1)-edge broadcast tree closing
// the allreduce, and a (P−1)-edge rotating-root broadcast. Liveness
// monitors (the soak driver's stall budget) size themselves with it.
func CollectiveMsgs(nodes, steps int) int { return steps * 3 * (nodes - 1) }
