package netpipe

import (
	"portals3/internal/core"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// This file is NetPIPE's MPI module: blocking point-to-point calls between
// the two ranks of an MPI job, each rank sending from one buffer and
// receiving into another.

// The module's tags: data, the ping-pong echo, and the zero-byte stream
// signals.
const (
	tagData   = 1
	tagEcho   = 2
	tagSignal = 3
)

// mpiModule is one rank's transfers.
type mpiModule struct {
	r         *mpi.Rank
	other     int
	buf, rbuf core.Region
}

func (m *mpiModule) now() sim.Time { return m.r.Proc().Now() }

func (m *mpiModule) round(n int) {
	m.r.Send(m.other, tagData, m.buf, 0, n)
	m.r.Recv(m.other, tagEcho, m.rbuf, 0, n)
}

func (m *mpiModule) echo(n int) {
	m.r.Recv(m.other, tagData, m.rbuf, 0, n)
	m.r.Send(m.other, tagEcho, m.buf, 0, n)
}

func (m *mpiModule) send(n int)  { m.r.Send(m.other, tagData, m.buf, 0, n) }
func (m *mpiModule) recv(n int)  { m.r.Recv(m.other, tagData, m.rbuf, 0, n) }
func (m *mpiModule) signal(bool) { m.r.Send(m.other, tagSignal, m.buf, 0, 0) }
func (m *mpiModule) await()      { m.r.Recv(m.other, tagSignal, m.rbuf, 0, 0) }
func (m *mpiModule) exchange(n int) {
	m.r.Sendrecv(m.other, tagData, m.buf, 0, n, m.other, tagData, m.rbuf, 0, n)
}

// RunMPI measures one MPI curve over a fresh two-node machine.
func RunMPI(p model.Params, impl mpi.Impl, pat Pattern, cfg Config) Result {
	return drive(p, impl.String(), pat, cfg, func(m *machine.Machine, c *curve) {
		var ranks [2]mpiModule // both ranks' transfers, in one allocation
		err := mpi.Launch(m, []topo.NodeID{0, 1}, impl, cfg.Mode, func(r *mpi.Rank) {
			mod := &ranks[r.Rank()]
			*mod = mpiModule{r: r, other: 1 - r.Rank(), buf: r.Alloc(cfg.MaxBytes), rbuf: r.Alloc(cfg.MaxBytes)}
			r.Barrier()
			c.run(r.Rank(), mod)
		})
		if err != nil {
			panic(err)
		}
	})
}
