// Package oskernel models the two operating systems of the XT3 (paper
// §3.1): the Catamount lightweight compute-node kernel and Linux. The
// properties the paper makes load-bearing are exactly what is modeled:
//
//   - Catamount maps virtually contiguous pages to physically contiguous
//     pages, so one DMA command describes any buffer; its null trap costs
//     about 75 ns (§3.3).
//   - Linux memory is paged; the host must pin pages and pre-compute one
//     DMA command per page (§3.3); system calls are an order of magnitude
//     more expensive than Catamount traps.
//   - Interrupts cost at least 2 µs on either OS (§3.3), and the Portals
//     interrupt handler processes all pending events per invocation to
//     amortize that cost (§4.1).
package oskernel

import (
	"fmt"

	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
	"portals3/internal/trace"
)

// Kind selects the operating system.
type Kind int

// The two operating systems used on XT3 (paper §3.1).
const (
	Catamount Kind = iota
	Linux
)

func (k Kind) String() string {
	if k == Catamount {
		return "catamount"
	}
	return "linux"
}

// Kernel is one node's operating system instance.
type Kernel struct {
	S    *sim.Sim
	P    *model.Params
	Kind Kind
	Node topo.NodeID

	// CPU serializes kernel-context work on the host processor: interrupt
	// handlers and driver processing. Application compute happens on the
	// application's own coroutine (NetPIPE-style benchmarks block while
	// the kernel works, so the contention the model drops is not on any
	// measured path).
	CPU *sim.Server

	irqActive  bool
	irqHandler func()

	// Interrupts counts interrupts actually taken; Coalesced counts raise
	// requests absorbed by an already-active handler (§4.1's batching).
	Interrupts uint64
	Coalesced  uint64

	// Trace, when non-nil, records interrupt and kernel-work spans.
	Trace *trace.Tracer

	// IrqHist, when non-nil, records interrupt dispatch latency — raise to
	// handler entry, i.e. CPU queueing plus the ≥2 µs interrupt overhead
	// (machine.EnableTelemetry installs a per-node histogram).
	IrqHist *telemetry.Histogram

	// irqRaised and irqFn serve the instrumented dispatch path; a single
	// carrier suffices because at most one interrupt is in flight
	// (irqActive gates further raises until InterruptDone).
	irqRaised sim.Time
	irqFn     func()

	// NoCoalesce disables interrupt coalescing for ablation studies: every
	// raise takes its own ≥2 µs interrupt and the driver processes one
	// event per invocation, instead of the paper's batch-drain design
	// (§4.1).
	NoCoalesce bool

	pendingIrqs int

	nextPid uint32
}

// hostLabel is the diagnostic name of a node's host CPU, formatted when read.
var hostLabel = sim.Indexed("host[%d]")

// New builds a kernel for node n.
func New(s *sim.Sim, p *model.Params, kind Kind, n topo.NodeID) *Kernel {
	return &Kernel{
		S:       s,
		P:       p,
		Kind:    kind,
		Node:    n,
		CPU:     sim.NewServerLabel(s, hostLabel.At(int(n))),
		nextPid: 1,
	}
}

// AllocPid hands out process ids.
func (k *Kernel) AllocPid() uint32 {
	pid := k.nextPid
	k.nextPid++
	return pid
}

// TrapCost is the price of one system call into this kernel: ~75 ns on
// Catamount (§3.3), several times that on Linux.
func (k *Kernel) TrapCost() sim.Time {
	if k.Kind == Catamount {
		return k.P.TrapOverhead
	}
	return k.P.LinuxSyscallOverhead
}

// SetInterruptHandler installs the device interrupt handler (the SSNAL's,
// §3.3). The handler must call InterruptDone when it finds no more work.
func (k *Kernel) SetInterruptHandler(fn func()) { k.irqHandler = fn }

// RaiseInterrupt requests the handler. A raise while the handler is active
// (or already scheduled) coalesces: the running handler will see the new
// work in its drain loop, which is how the real driver keeps the ≥2 µs
// interrupt cost off every event (§4.1).
func (k *Kernel) RaiseInterrupt() {
	if k.irqHandler == nil {
		panic("oskernel: interrupt with no handler installed")
	}
	if k.irqActive {
		if k.NoCoalesce {
			k.pendingIrqs++
		} else {
			k.Coalesced++
		}
		return
	}
	k.irqActive = true
	k.Interrupts++
	if k.Trace.Enabled() || k.IrqHist != nil {
		if k.irqFn == nil {
			k.irqFn = k.irqDispatched
		}
		k.irqRaised = k.S.Now()
		k.CPU.Submit(k.P.InterruptOverhead, k.irqFn)
		return
	}
	k.CPU.Submit(k.P.InterruptOverhead, k.irqHandler)
}

// irqDispatched is the instrumented interrupt entry: record the span and
// the dispatch latency, then run the real handler.
func (k *Kernel) irqDispatched() {
	if k.Trace.Enabled() {
		k.Trace.Span(int(k.Node), trace.TrackHost, "os", "interrupt",
			k.S.Now()-k.P.InterruptOverhead, k.P.InterruptOverhead, nil)
	}
	k.IrqHist.Observe(int64(k.S.Now() - k.irqRaised))
	k.irqHandler()
}

// InterruptDone re-arms interrupt delivery; the handler calls it after
// draining every pending event. Under NoCoalesce, raises that arrived while
// the handler ran each get their own interrupt now.
func (k *Kernel) InterruptDone() {
	k.irqActive = false
	if k.NoCoalesce && k.pendingIrqs > 0 {
		k.pendingIrqs--
		k.RaiseInterrupt()
	}
}

// KernelWork charges host cycles of kernel-context processing and runs fn
// when they complete.
func (k *Kernel) KernelWork(cycles int64, fn func()) {
	dur := k.P.HostCycles(cycles)
	if dur > 0 && k.Trace.Enabled() {
		k.CPU.Submit(dur, func() {
			k.Trace.Span(int(k.Node), trace.TrackHost, "os", "portals-processing",
				k.S.Now()-dur, dur, nil)
			fn()
		})
		return
	}
	k.CPU.Submit(dur, fn)
}

// NewRegion allocates application memory the way this OS does: one
// physically contiguous block on Catamount, discontiguous 4 KB pages on
// Linux. The region satisfies both core.Region and fw.Buffer.
//
// What is modelled is fixed here — length, segment count, and through them
// every pin, DMA-command and SRAM charge. What the host running the
// simulation pays is not: backing bytes appear with the first WriteAt that
// needs them, and memory nobody has written reads as zeros.
func (k *Kernel) NewRegion(n int) Region {
	if k.Kind == Catamount {
		return &contigRegion{length: n}
	}
	return &pagedRegion{page: int(k.P.PageBytes), length: n}
}

// Region is host memory as the DMA engines and the Portals library see it.
type Region interface {
	Len() int
	ReadAt(off int, p []byte)
	WriteAt(off int, p []byte)
	// Segments is the number of physically contiguous pieces: the number
	// of DMA commands the host must pre-compute for this buffer (§3.3).
	Segments() int
}

// checkRange panics on an access outside [0, length). Both region kinds call
// it before looking at their backing, so a bad access fails the same way
// whether or not anything has been written yet.
func checkRange(off, n, length int) {
	if off < 0 || n > length-off {
		panic(fmt.Sprintf("oskernel: region access [%d, %d) outside [0, %d)", off, off+n, length))
	}
}

// contigRegion is Catamount memory: virtually contiguous pages map to
// physically contiguous pages (§3.3), so the whole buffer is one segment.
type contigRegion struct {
	length int
	mem    []byte // nil until the first non-empty write
}

func (r *contigRegion) Len() int      { return r.length }
func (r *contigRegion) Segments() int { return 1 }

func (r *contigRegion) ReadAt(off int, p []byte) {
	checkRange(off, len(p), r.length)
	if r.mem == nil {
		clear(p)
		return
	}
	copy(p, r.mem[off:])
}

func (r *contigRegion) WriteAt(off int, p []byte) {
	checkRange(off, len(p), r.length)
	if len(p) == 0 {
		return
	}
	if r.mem == nil {
		r.mem = make([]byte, r.length)
	}
	copy(r.mem[off:], p)
}

// pagedRegion is Linux memory: independently allocated 4 KB pages. Reads
// and writes genuinely walk the page list, and Segments reports the page
// count the host must describe to the NIC.
type pagedRegion struct {
	pages  [][]byte // nil until the first non-empty write; a page until touched
	page   int
	length int
	pinned bool
}

func (r *pagedRegion) Len() int { return r.length }

func (r *pagedRegion) Segments() int { return (r.length + r.page - 1) / r.page }

func (r *pagedRegion) ReadAt(off int, p []byte) {
	checkRange(off, len(p), r.length)
	if r.pages == nil {
		clear(p)
		return
	}
	for len(p) > 0 {
		po := off % r.page
		take := min(r.page-po, len(p))
		if pg := r.pages[off/r.page]; pg != nil {
			copy(p[:take], pg[po:])
		} else {
			clear(p[:take])
		}
		off += take
		p = p[take:]
	}
}

func (r *pagedRegion) WriteAt(off int, p []byte) {
	checkRange(off, len(p), r.length)
	if len(p) == 0 {
		return
	}
	if r.pages == nil {
		r.pages = make([][]byte, r.Segments())
	}
	for len(p) > 0 {
		pi, po := off/r.page, off%r.page
		take := min(r.page-po, len(p))
		if r.pages[pi] == nil {
			// The last page is as short as the region's tail.
			r.pages[pi] = make([]byte, min(r.page, r.length-pi*r.page))
		}
		copy(r.pages[pi][po:], p[:take])
		off += take
		p = p[take:]
	}
}

// Pin marks the region's pages wired for DMA; the Linux bridges call it
// before handing buffers to the NIC. (Catamount memory is always wired.)
func (r *pagedRegion) Pin()         { r.pinned = true }
func (r *pagedRegion) Pinned() bool { return r.pinned }
