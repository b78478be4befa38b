// Package mpi implements MPI point-to-point messaging over the Portals 3.3
// API, reproducing the two implementations the paper measures (§5.1): the
// Sandia port of MPICH 1.2.6 and Cray's MPICH2. Both share one protocol
// engine — eager puts for short messages, rendezvous
// (request-to-send + get) for long ones — and differ in their per-message
// library overheads and eager thresholds, which is exactly how they differ
// in the paper's figures.
//
// The receive side uses the classic Portals-MPI structure: a fence match
// entry separates the posted-receive section of the match list from a set
// of unexpected-message sink buffers with locally managed offsets. Posted
// receives are armed race-free with the threshold-0 + conditional-MDUpdate
// protocol the Portals 3.3 specification provides for precisely this
// purpose.
package mpi

import (
	"fmt"

	"portals3/internal/core"
	"portals3/internal/model"
	"portals3/internal/nal"
	"portals3/internal/sim"
)

// Impl selects the MPI implementation profile.
type Impl int

// The two MPI implementations measured in the paper.
const (
	// MPICH1 is the Sandia port of MPICH 1.2.6.
	MPICH1 Impl = iota
	// MPICH2 is the Cray-supported MPICH2.
	MPICH2
)

func (i Impl) String() string {
	if i == MPICH1 {
		return "mpich-1.2.6"
	}
	return "mpich2"
}

// Config is an implementation profile.
type Config struct {
	Impl       Impl
	EagerMax   int   // bytes; larger messages use rendezvous
	SendCycles int64 // per-send library overhead (host cycles)
	RecvCycles int64 // per-receive library overhead

	// Receive-side resource sizing. Zero means the package default —
	// the generous interactive-job shape (4 × 512 KiB sinks, 8192-deep
	// EQ). These are simulated quantities: a sink unlinks and is
	// respawned when the room left in it falls below one eager message,
	// and the event queue overflows at its depth, so a workload that
	// sets them fixes its respawn schedule with them. They are not a
	// way to save memory on the host running the simulation: a sink
	// costs it nothing until a message lands in it, an event queue only
	// what it has held at once (oskernel.NewRegion, core.EQ).
	NumSinks  int // unexpected-message buffers after the fence
	SinkBytes int // bytes per sink buffer
	EQDepth   int // MPI event queue depth
}

// normalize fills zero-valued resource fields with the package defaults.
func (c Config) normalize() Config {
	if c.NumSinks <= 0 {
		c.NumSinks = numSinks
	}
	if c.SinkBytes <= 0 {
		c.SinkBytes = sinkBytes
	}
	if c.EQDepth <= 0 {
		c.EQDepth = eqDepth
	}
	return c
}

// ConfigFor derives the profile from the machine parameters.
func ConfigFor(p *model.Params, impl Impl) Config {
	if impl == MPICH1 {
		return Config{Impl: impl, EagerMax: p.MPICH1EagerMax,
			SendCycles: p.MPICH1SendCycles, RecvCycles: p.MPICH1RecvCycles}
	}
	return Config{Impl: impl, EagerMax: p.MPICH2EagerMax,
		SendCycles: p.MPICH2SendCycles, RecvCycles: p.MPICH2RecvCycles}
}

// Portal table indices used by the MPI layer.
const (
	ptlMPI = 1 // receives (posted section + fence + sinks)
	ptlRdv = 2 // rendezvous source buffers, fetched by PtlGet
)

// Wildcards.
const (
	AnySource = -1
	AnyTag    = -1
)

// Envelope encoding in Portals match bits:
// [63:48] context id, [47:32] source rank, [31:0] tag.
const (
	srcShift  = 32
	ctxShift  = 48
	tagMask   = 0xFFFFFFFF
	srcIgnore = uint64(0xFFFF) << srcShift
	tagIgnore = uint64(tagMask)
)

func envBits(ctx, srcRank, tag int) uint64 {
	return uint64(ctx)<<ctxShift | uint64(uint16(srcRank))<<srcShift | uint64(uint32(tag))
}

func envDecode(bits uint64) (ctx, srcRank, tag int) {
	return int(bits >> ctxShift), int(uint16(bits >> srcShift)), int(uint32(bits))
}

// Protocol encoding in the put header data (the 64-bit hdr_data of the
// wire header): [63:60] protocol, [59:32] rendezvous sequence, [31:0]
// payload length. The length rides here because a locally-managed target
// offset means the wire offset field is not delivered to the receiver.
const (
	protoEager = 1
	protoRTS   = 2
)

func hdrData(proto int, rdvSeq uint64, length int) uint64 {
	return uint64(proto)<<60 | (rdvSeq&(1<<28-1))<<32 | uint64(uint32(length))
}

func hdrDecode(hd uint64) (proto int, rdvSeq uint64, length int) {
	return int(hd >> 60), hd >> 32 & (1<<28 - 1), int(uint32(hd))
}

// Sink pool shape: how unexpected eager messages are absorbed. These are
// the Config defaults; machine-scale jobs override them per rank.
const (
	numSinks  = 4
	sinkBytes = 512 << 10
	eqDepth   = 8192
	// memcpyBytesPerCycle models host memcpy throughput for the
	// unexpected-path copy (16 B/cycle ≈ 32 GB/s at 2 GHz).
	memcpyBytesPerCycle = 16
	// barrierTag is a tag value reserved for Barrier traffic.
	barrierTag = 0x7FFF0001
)

// Rank is one MPI process.
type Rank struct {
	api   *nal.API
	proc  *sim.Proc
	alloc func(int) core.Region
	p     *model.Params
	cfg   Config

	rank  int
	size  int
	ctx   int
	peers []core.ProcessID

	eq    core.EQHandle
	fence core.MEHandle

	unexpected []*unexpMsg
	// reqFree recycles Requests whose lifetime the blocking wrappers fully
	// own (Send/Recv/Sendrecv); Isend/Irecv handles returned to callers are
	// never pooled.
	reqFree []*Request
	// sinkInflight counts messages that have started arriving into sinks
	// (PUT_START seen) but not yet completed (PUT_END pending); the arming
	// protocol refuses to arm a posted receive while any are outstanding,
	// because one of them might match it.
	sinkInflight int
	rdvSeq       uint64

	// Collective working memory (collScratch, Barrier), kept across calls.
	scratch  core.Region
	operands []byte
	empty    core.Region

	// Stats for tests.
	EagerSends  uint64
	RdvSends    uint64
	Unexpected  uint64
	SinkRespawn uint64
}

// unexpMsg is one message that arrived before its receive was posted.
type unexpMsg struct {
	ctx, src, tag int
	proto         int
	rdvSeq        uint64
	sender        core.ProcessID
	data          []byte // eager payload, copied out of the sink
	rlen          int    // full requested length (rendezvous: data to get)
	nifail        bool
}

// reqTag links a descriptor's events back to its request.
type reqTag struct{ req *Request }

// NewRank initializes the MPI library for one process. rank and peers come
// from the launcher; ctx is the communicator context id (one communicator
// in this implementation — COMM_WORLD).
func NewRank(api *nal.API, proc *sim.Proc, alloc func(int) core.Region,
	p *model.Params, cfg Config, rank int, peers []core.ProcessID) (*Rank, error) {
	r := &Rank{
		api: api, proc: proc, alloc: alloc, p: p, cfg: cfg.normalize(),
		rank: rank, size: len(peers), ctx: 1, peers: peers,
	}
	eq, err := api.EQAlloc(r.cfg.EQDepth)
	if err != nil {
		return nil, err
	}
	r.eq = eq
	// The fence: a match entry that can never match (no sender has this
	// process id), separating posted receives from the sinks forever.
	fence, err := api.MEAttach(ptlMPI, core.ProcessID{Nid: 0xFFFFFFFE, Pid: 0xFFFFFFFE}, 0, 0, core.Retain, core.After)
	if err != nil {
		return nil, err
	}
	r.fence = fence
	for i := 0; i < r.cfg.NumSinks; i++ {
		if err := r.addSink(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Rank returns this process's rank.
func (r *Rank) Rank() int { return r.rank }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.size }

// Proc exposes the owning coroutine (benchmarks read the clock off it).
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Alloc obtains DMA-able memory from the node's OS.
func (r *Rank) Alloc(n int) core.Region { return r.alloc(n) }

// Config returns the active implementation profile.
func (r *Rank) Config() Config { return r.cfg }

// addSink appends one unexpected-message buffer after the fence.
func (r *Rank) addSink() error {
	me, err := r.api.MEAttach(ptlMPI, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
		0, ^uint64(0), core.UnlinkAuto, core.After)
	if err != nil {
		return err
	}
	buf := r.alloc(r.cfg.SinkBytes)
	// START events stay enabled on sinks: the moment a message begins
	// arriving into overflow space the event queue goes non-empty, which
	// is what lets the conditional-MDUpdate arming protocol detect a
	// message racing with a receive posting.
	_, err = r.api.MDAttach(me, core.MDesc{
		Region:    buf,
		Threshold: core.ThresholdInfinite,
		MaxSize:   r.cfg.EagerMax,
		Options:   core.MDOpPut | core.MDMaxSize,
		EQ:        r.eq,
		User:      &sinkEntry{r: r, buf: buf},
	}, core.UnlinkAuto)
	return err
}

type sinkEntry struct {
	r   *Rank
	buf core.Region
}

// fatal aborts the job — MPI semantics for unrecoverable library errors.
func (r *Rank) fatal(format string, args ...interface{}) {
	panic("mpi: rank " + fmt.Sprintf("%d: ", r.rank) + fmt.Sprintf(format, args...))
}

// charge burns MPI library cycles on the host.
func (r *Rank) charge(cycles int64) { r.proc.Sleep(r.p.HostCycles(cycles)) }
