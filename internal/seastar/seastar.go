// Package seastar models the Cray SeaStar ASIC of paper §2: the embedded
// 500 MHz PowerPC 440 that runs the firmware, the independent transmit and
// receive DMA engines, the HyperTransport cave connecting the chip to the
// Opteron, the 384 KB of local scratch SRAM, and the bounded FIFOs between
// the DMA engines and the router.
//
// The chip is pure hardware: resources with occupancy and latency. All
// protocol behavior lives in package fw (the firmware) and above.
package seastar

import (
	"fmt"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// Chip is one SeaStar instance, attached to one node.
type Chip struct {
	S    *sim.Sim
	P    *model.Params
	Node topo.NodeID

	// CPU is the PowerPC 440. The firmware is a single-threaded
	// run-to-completion event loop (§4.3), so all handler work serializes
	// through this one server.
	CPU *sim.Server

	// HTRead models host-memory reads issued by the chip (TX payload
	// fetches). Reads are transactions across the HyperTransport bus:
	// high latency (the reason the firmware never reads the upper pending,
	// §4.2), and a practical bandwidth well below the 2.8 GB/s peak.
	HTRead *sim.Server

	// HTWrite models posted writes to host memory (RX payload deposits,
	// upper pending updates, event posts). Writes stream better than
	// reads.
	HTWrite *sim.Server

	// RxFIFO bounds payload buffered on the chip ahead of the RX DMA
	// engine; it is the credit pool the fabric takes from, so filling it
	// backpressures the sending node.
	RxFIFO *sim.Credits

	// TxFIFO bounds data staged between the HT read engine and the router
	// ("If the message does not fit into the TX FIFO, the transmit state
	// machine will yield", §4.3).
	TxFIFO *sim.Credits

	// SRAM accounts for the 384 KB of local scratch memory.
	SRAM *SRAM
}

// The diagnostic names of a chip's resources, formatted when read.
var (
	ppcLabel    = sim.Indexed("ppc[%d]")
	htrdLabel   = sim.Indexed("htrd[%d]")
	htwrLabel   = sim.Indexed("htwr[%d]")
	rxfifoLabel = sim.Indexed("rxfifo[%d]")
	txfifoLabel = sim.Indexed("txfifo[%d]")
)

// New builds a chip for node n.
func New(s *sim.Sim, p *model.Params, n topo.NodeID) *Chip {
	c := &Chip{
		S:       s,
		P:       p,
		Node:    n,
		CPU:     sim.NewServerLabel(s, ppcLabel.At(int(n))),
		HTRead:  sim.NewServerLabel(s, htrdLabel.At(int(n))),
		HTWrite: sim.NewServerLabel(s, htwrLabel.At(int(n))),
		RxFIFO:  sim.NewCreditsLabel(s, rxfifoLabel.At(int(n)), p.RxFIFOBytes),
		TxFIFO:  sim.NewCreditsLabel(s, txfifoLabel.At(int(n)), p.TxFIFOBytes),
		SRAM:    NewSRAM(p.SRAMBytes),
	}
	// The firmware image occupies SRAM before anything else (§4: 22 KB).
	if err := c.SRAM.Alloc("firmware-image", p.FwImageBytes); err != nil {
		panic(err)
	}
	return c
}

// Exec schedules firmware work of the given PowerPC cycle count; fn runs
// when the (serialized) processor reaches and finishes it. Every handler
// pays the dispatch overhead of the polling loop.
func (c *Chip) Exec(cycles int64, fn func()) {
	c.CPU.Submit(c.P.PPCCycles(c.P.FwDispatchCycles+cycles), fn)
}

// ReadHost performs one DMA read of n bytes from host memory split across
// segs physically contiguous segments; fn runs at completion. Each segment
// is a separate HT transaction and pays the read latency.
func (c *Chip) ReadHost(n int64, segs int, fn func()) {
	if segs < 1 {
		segs = 1
	}
	d := sim.Time(segs)*c.P.HTReadLatency + sim.BytesAt(n, c.P.HTReadBps)
	c.HTRead.Submit(d, fn)
}

// ReadHostStream performs one burst of a pipelined bulk DMA read: the
// engine keeps multiple transactions outstanding, so a burst costs
// bandwidth plus a small per-segment descriptor overhead, not the full HT
// round-trip latency (which only control reads pay).
func (c *Chip) ReadHostStream(n int64, segs int, fn func()) {
	if segs < 1 {
		segs = 1
	}
	d := sim.Time(segs)*c.P.DMASegOverhead + sim.BytesAt(n, c.P.HTReadBps)
	c.HTRead.Submit(d, fn)
}

// WriteHost performs one posted DMA write of n bytes to host memory; fn
// runs when the write is globally visible.
func (c *Chip) WriteHost(n int64, fn func()) {
	d := c.P.HTWriteLatency + sim.BytesAt(n, c.P.HTWriteBps)
	c.HTWrite.Submit(d, fn)
}

// WriteHostStream performs one burst of a pipelined bulk DMA write (RX
// payload deposit): bandwidth plus per-segment descriptor overhead.
func (c *Chip) WriteHostStream(n int64, segs int, fn func()) {
	if segs < 1 {
		segs = 1
	}
	d := sim.Time(segs)*c.P.DMASegOverhead + sim.BytesAt(n, c.P.HTWriteBps)
	c.HTWrite.Submit(d, fn)
}

// SRAM is the accountant of the chip's scratch memory: it keeps the total
// reserved, and a reservation's name only for the error that refuses it.
// There is no free: the firmware pre-allocates every structure at
// initialization time and never allocates dynamically (§4.2).
type SRAM struct {
	capacity int64
	used     int64
}

// NewSRAM returns an accountant over capacity bytes.
func NewSRAM(capacity int64) *SRAM { return &SRAM{capacity: capacity} }

// Alloc reserves n bytes under name; it fails when the budget is exceeded,
// which is a firmware configuration error (the pools must fit in 384 KB).
func (m *SRAM) Alloc(name string, n int64) error {
	if n < 0 {
		return fmt.Errorf("seastar: negative SRAM allocation %q", name)
	}
	if m.used+n > m.capacity {
		return fmt.Errorf("seastar: SRAM exhausted: %q wants %d, %d of %d used",
			name, n, m.used, m.capacity)
	}
	m.used += n
	return nil
}

// Used reports total reserved bytes.
func (m *SRAM) Used() int64 { return m.used }

// Free reports remaining bytes.
func (m *SRAM) Free() int64 { return m.capacity - m.used }
