// Package model holds every timing and sizing parameter of the simulated
// XT3/SeaStar platform in one struct, so the whole calibration is auditable.
//
// Values quoted directly from the paper are cited; the remaining values are
// calibrated so that the end-to-end NetPIPE results reproduce the paper's
// Figures 4–7 (see EXPERIMENTS.md for paper-vs-measured numbers).
package model

import (
	"errors"
	"fmt"

	"portals3/internal/sim"
	"portals3/internal/wire"
)

// Params is the complete parameter set for one simulated machine. The zero
// value is not useful; start from Defaults().
type Params struct {
	// ---- Network fabric (paper §2) ----

	// LinkBps is the per-direction data payload rate of one SeaStar link:
	// "The physical links in the 3D topology support up to 2.5 GB/s of data
	// payload in each direction" (§2). Packet and reliability-protocol
	// overhead is already accounted for in this figure.
	LinkBps int64

	// HopLatency is the per-router-hop latency of the cut-through,
	// table-routed network. Calibrated so the Red Storm diameter (53 hops)
	// adds ≈3 µs, matching the 2 µs nearest-neighbor / 5 µs worst-case MPI
	// latency requirements quoted in §1.
	HopLatency sim.Time

	// PacketBytes is the router packet size: "the 64 byte packets used by
	// the router" (§2).
	PacketBytes int

	// InjectLatency covers NIC→router and router→NIC port crossing, once
	// per message direction end.
	InjectLatency sim.Time

	// LinkBitErrorRate is the probability that a packet is corrupted on one
	// link traversal (detected by the 16-bit link CRC and retried). Zero by
	// default; fault-injection tests raise it. The retries draw from the
	// fault plane of the node that owns the link (seeded by FaultSeed), so
	// they replay bit-identically on every machine and at every shard count.
	LinkBitErrorRate float64

	// LinkRetryDelay is the extra delay for one link-level CRC retry.
	LinkRetryDelay sim.Time

	// ---- HyperTransport host interface (paper §2) ----

	// HTReadBps is the practical rate at which the TX DMA engine can pull
	// payload from host memory across HyperTransport. The theoretical peak
	// payload is 2.8 GB/s (§2, "and a practical rate somewhat lower than
	// that"); calibrated to the measured uni-directional put ceiling of
	// 1108.76 MB/s (§6, Figure 5).
	HTReadBps int64

	// HTWriteBps is the practical RX-DMA-to-host-memory write rate. Writes
	// post more efficiently than reads on HT; set above HTReadBps so the
	// read side is the bottleneck, as measured.
	HTWriteBps int64

	// HTReadLatency is the round-trip latency of a host-memory read issued
	// by the SeaStar — the reason the firmware "never reads data from the
	// upper pending structure" (§4.2).
	HTReadLatency sim.Time

	// HTWriteLatency is the one-way posted-write latency host↔NIC, paid by
	// mailbox command writes, upper-pending writes and event posts.
	HTWriteLatency sim.Time

	// DMASegOverhead is the extra per-descriptor cost of a streamed DMA
	// transfer crossing into another physically contiguous segment. Bulk
	// payload DMA pipelines multiple outstanding transactions, so it pays
	// this small descriptor cost rather than the full HT latency per
	// chunk; only control-path reads (header fetches) pay HTReadLatency.
	DMASegOverhead sim.Time

	// ---- Embedded processor and firmware (paper §2, §4) ----

	// PPCHz is the embedded processor clock: "a dual-issue 500 MHz PowerPC
	// 440" (§2).
	PPCHz int64

	// Firmware handler costs, in PowerPC cycles. The firmware is a single
	// threaded run-to-completion loop (§4.3); each handler occupies the
	// PowerPC serially for its cost.
	FwDispatchCycles   int64 // poll-loop dispatch per handler invocation
	FwTxCmdCycles      int64 // transmit command: init lower pending, source lookup, enqueue
	FwTxDoneCycles     int64 // unlink pending, post TX completion event
	FwRxHdrCycles      int64 // new header: source hash, RX pending alloc, header push
	FwRxCmdCycles      int64 // receive command: buffer info into lower pending
	FwRxDoneCycles     int64 // completion event after final deposit
	FwReleaseCycles    int64 // release-pending command
	FwDMAProgramCycles int64 // programming one DMA engine transaction

	// SRAMBytes is the SeaStar local scratch memory: 384 KB (§2).
	SRAMBytes int64

	// RxFIFOBytes bounds payload buffered on the NIC ahead of the RX DMA
	// being programmed; the network backpressures when it fills.
	RxFIFOBytes int64

	// TxFIFOBytes bounds the transmit staging FIFO; the TX state machine
	// yields when a message does not fit (§4.3).
	TxFIFOBytes int64

	// ChunkBytes is the simulation's streaming granularity for payload
	// movement (a modeling knob, not hardware; must divide cleanly into
	// pipeline stages; latency effects are second-order).
	ChunkBytes int

	// InlineDataMax is the small-message optimization: "Because 12 bytes of
	// user data will fit in the 64 byte header packet, these 12 bytes can
	// be copied to the host along with the header", saving an interrupt
	// (§6).
	InlineDataMax int

	// NumSources is the global source-structure pool: "there are 1,024
	// global source structures" (§4.2).
	NumSources int

	// NumGenericPendings is the pending pool of the generic firmware-level
	// process: "1,274 pending structures allocated to the generic process"
	// (§4.2). Half are host-managed (TX), half firmware-managed (RX).
	NumGenericPendings int

	// SourceBytes and PendingBytes size the SRAM-resident structures for
	// the occupancy formula M = S·Ssize + Σ Pi·Psize (§4.2). The paper
	// shows 32-byte structures in Figure 3.
	SourceBytes  int64
	PendingBytes int64

	// FwImageBytes is the firmware code footprint in SRAM: "the resulting
	// firmware image is 22 KB in size" (§4).
	FwImageBytes int64

	// MaxAccelProcs bounds accelerated-mode clients per node: "Limited
	// network interface resources allow only a small number of
	// accelerated-mode clients per node" — one or two per Catamount node
	// (§4.1).
	MaxAccelProcs int

	// GbnTimeout is the go-back-n retransmission timeout: with the
	// recovery protocol enabled, unacknowledged sends retransmit after
	// this much silence from the peer.
	GbnTimeout sim.Time

	// ---- Fault injection (see faults.go and DESIGN.md §9) ----

	// Faults configures the fabric's fault-injection plane; a non-empty
	// list creates the plane at machine construction. Nil (the default)
	// leaves the fabric fault-free and the injection hot path untouched.
	Faults []FaultRule

	// FaultSeed seeds the fault planes' per-node PRNG streams, the only
	// randomness in the model: fault rules and link-CRC retries draw from
	// them, so a fault-free run draws nothing, and a given (Faults,
	// LinkBitErrorRate, FaultSeed) tuple replays bit-identically. Zero
	// selects the planes' fixed default seed.
	FaultSeed int64

	// Schedule is the declarative timed-fault plan (see schedule.go): link
	// outages, node stalls, firmware restarts and windowed fault bursts,
	// applied deterministically at machine construction. Unlike the runtime
	// scenario helpers it works on sharded machines too — entries become
	// pre-scheduled lane-local events, never cross-lane calls.
	Schedule FaultSchedule

	// ---- Host processor and operating systems (paper §3.3) ----

	// HostHz is the compute-node processor clock: 2.0 GHz Opteron (§5.1).
	HostHz int64

	// TrapOverhead is a null system call on Catamount: "approximately 75 ns
	// of overhead" (§3.3).
	TrapOverhead sim.Time

	// LinuxSyscallOverhead is the (larger) Linux syscall cost paid by
	// ukbridge clients.
	LinuxSyscallOverhead sim.Time

	// InterruptOverhead is the cost of taking one interrupt on the host:
	// "Interrupts ... are very costly, requiring at least 2 µs of overhead
	// each" (§3.3).
	InterruptOverhead sim.Time

	// Host-side Portals library costs, in host cycles.
	HostAPICycles       int64 // argument marshalling for one API call
	HostTxSetupCycles   int64 // header build + pending alloc + command push
	HostMatchBaseCycles int64 // Portals matching: fixed part
	HostMatchPerME      int64 // per match-entry walked
	HostEventCycles     int64 // posting/delivering one Portals event
	HostRxCmdCycles     int64 // building the receive command after a match
	HostGetReplyCycles  int64 // get target: reply descriptor + command build
	HostPerPageCycles   int64 // Linux: per-page DMA command precomputation
	PageBytes           int64 // Linux page size

	// ---- MPI implementation profiles (paper §5.1, §6) ----

	// The two MPI implementations measured in the paper, as per-side
	// overheads added on top of the Portals path, plus their eager →
	// rendezvous switch points. Calibrated to the 1-byte latencies in §6:
	// put 5.39 µs, get 6.60 µs, MPICH-1.2.6 7.97 µs, MPICH2 8.40 µs.
	MPICH1SendCycles int64
	MPICH1RecvCycles int64
	MPICH1EagerMax   int // bytes; above this, rendezvous
	MPICH2SendCycles int64
	MPICH2RecvCycles int64
	MPICH2EagerMax   int
}

// Defaults returns the calibrated Red Storm parameter set.
func Defaults() Params {
	return Params{
		LinkBps:          2_500_000_000,
		HopLatency:       55 * sim.Nanosecond,
		PacketBytes:      64,
		InjectLatency:    60 * sim.Nanosecond,
		LinkBitErrorRate: 0,
		LinkRetryDelay:   500 * sim.Nanosecond,

		HTReadBps:      1_116_000_000,
		HTWriteBps:     2_200_000_000,
		HTReadLatency:  240 * sim.Nanosecond,
		HTWriteLatency: 140 * sim.Nanosecond,
		DMASegOverhead: 10 * sim.Nanosecond,

		PPCHz:              500_000_000,
		FwDispatchCycles:   40,
		FwTxCmdCycles:      210,
		FwTxDoneCycles:     140,
		FwRxHdrCycles:      220,
		FwRxCmdCycles:      170,
		FwRxDoneCycles:     150,
		FwReleaseCycles:    60,
		FwDMAProgramCycles: 90,

		SRAMBytes:   384 << 10,
		RxFIFOBytes: 16 << 10,
		TxFIFOBytes: 8 << 10,
		ChunkBytes:  2048,

		InlineDataMax:      12,
		NumSources:         1024,
		NumGenericPendings: 1274,
		SourceBytes:        32,
		PendingBytes:       32,
		FwImageBytes:       22 << 10,
		MaxAccelProcs:      2,
		GbnTimeout:         150 * sim.Microsecond,

		HostHz:               2_000_000_000,
		TrapOverhead:         75 * sim.Nanosecond,
		LinuxSyscallOverhead: 300 * sim.Nanosecond,
		InterruptOverhead:    2 * sim.Microsecond,

		HostAPICycles:       240,
		HostTxSetupCycles:   400,
		HostMatchBaseCycles: 640,
		HostMatchPerME:      70,
		HostEventCycles:     220,
		HostRxCmdCycles:     380,
		HostGetReplyCycles:  2150,
		HostPerPageCycles:   120,
		PageBytes:           4096,

		MPICH1SendCycles: 4800,
		MPICH1RecvCycles: 4800,
		MPICH1EagerMax:   128 << 10,
		MPICH2SendCycles: 5660,
		MPICH2RecvCycles: 5660,
		MPICH2EagerMax:   64 << 10,
	}
}

// Validate reports the combinations of parameters the model cannot run,
// naming the fields: a payload chunk larger than the RX or TX FIFO it
// passes through whole, or inline data past the header packet's room. The
// machine constructors call it, so such a set fails at set-up rather than
// mid-run.
func (p *Params) Validate() error {
	var errs []error
	if int64(p.ChunkBytes) > p.RxFIFOBytes {
		errs = append(errs, fmt.Errorf("ChunkBytes %d exceeds RxFIFOBytes %d: a chunk must fit the RX FIFO", p.ChunkBytes, p.RxFIFOBytes))
	}
	if int64(p.ChunkBytes) > p.TxFIFOBytes {
		errs = append(errs, fmt.Errorf("ChunkBytes %d exceeds TxFIFOBytes %d: a chunk must fit the TX FIFO", p.ChunkBytes, p.TxFIFOBytes))
	}
	if p.InlineDataMax > wire.InlineMax {
		errs = append(errs, fmt.Errorf("InlineDataMax %d exceeds the %d bytes the header packet holds", p.InlineDataMax, wire.InlineMax))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("model: invalid parameters: %w", err)
	}
	return nil
}

// PPCCycles converts firmware cycles to time.
func (p *Params) PPCCycles(n int64) sim.Time { return sim.Cycles(n, p.PPCHz) }

// HostCycles converts host cycles to time.
func (p *Params) HostCycles(n int64) sim.Time { return sim.Cycles(n, p.HostHz) }

// SRAMOccupancy evaluates the paper's formula M = S·Ssize + Σ Pi·Psize
// (§4.2) for a machine with the given per-process pending pool sizes.
func (p *Params) SRAMOccupancy(pendingsPerProc []int) int64 {
	m := int64(p.NumSources) * p.SourceBytes
	for _, pi := range pendingsPerProc {
		m += int64(pi) * p.PendingBytes
	}
	return m
}

// SRAMFree returns SRAM remaining after the firmware image and the given
// structure pools.
func (p *Params) SRAMFree(pendingsPerProc []int) int64 {
	return p.SRAMBytes - p.FwImageBytes - p.SRAMOccupancy(pendingsPerProc)
}
