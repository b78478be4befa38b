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

	"portals3/internal/flightrec"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
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

	// FR, when non-nil, is the node's flight-recorder ring: interrupt
	// entries and kernel-context work are recorded on it as they end, and
	// the generic driver records its interrupt requests on it.
	FR *flightrec.Ring

	// IrqHist, when non-nil, records interrupt dispatch latency — raise to
	// handler entry, i.e. CPU queueing plus the ≥2 µs interrupt overhead
	// (machine.EnableTelemetry installs a per-node histogram).
	IrqHist *telemetry.Histogram

	// obs holds the kernel-context work waiting for the CPU while it is
	// observed (built with the first such work, so a kernel nobody
	// observes carries one nil pointer).
	obs *observedWork

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
	if k.FR != nil || k.IrqHist != nil {
		k.observed(flightrec.KHostIrq, k.P.InterruptOverhead, k.irqHandler)
		return
	}
	k.CPU.Submit(k.P.InterruptOverhead, k.irqHandler)
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
	if dur > 0 && k.FR != nil {
		k.observed(flightrec.KHostWork, dur, fn)
		return
	}
	k.CPU.Submit(dur, fn)
}

// observedWork is the kernel-context work waiting for the CPU while it is
// observed — recorded on FR, or an interrupt timed for IrqHist. The CPU
// serves in order, so done, bound once, ends the head.
type observedWork struct {
	q    sim.FIFO[kwork]
	done func()
}

// kwork is one piece of observed work: what it is, when it was asked for,
// its cost, and what runs when it completes.
type kwork struct {
	kind   flightrec.Kind // KHostIrq or KHostWork
	raised sim.Time
	dur    sim.Time
	fn     func()
}

// observed charges dur of kernel-context work on the CPU like Submit, and
// when it completes records it (an interrupt also feeds IrqHist its
// dispatch latency) before running fn.
func (k *Kernel) observed(kind flightrec.Kind, dur sim.Time, fn func()) {
	if k.obs == nil {
		k.obs = &observedWork{done: k.workDone}
	}
	k.obs.q.Push(kwork{kind, k.S.Now(), dur, fn})
	k.CPU.Submit(dur, k.obs.done)
}

// workDone ends the oldest observed work.
func (k *Kernel) workDone() {
	w := k.obs.q.Pop()
	k.FR.Put(flightrec.Event{T: k.S.Now(), Kind: w.kind, Span: uint64(w.dur)})
	if w.kind == flightrec.KHostIrq {
		k.IrqHist.Observe(int64(k.S.Now() - w.raised))
	}
	w.fn()
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
