// Package machine assembles complete simulated XT3 systems: nodes (Opteron
// host + OS kernel + SeaStar + firmware + generic driver) wired into the
// 3D interconnect, and application processes running against the Portals
// API through the appropriate bridge.
//
// Nodes are built lazily, so a Red Storm-sized topology (10,368 nodes) can
// be declared while only the nodes a test touches are instantiated.
package machine

import (
	"fmt"
	"sync"
	"time"

	"portals3/internal/core"
	"portals3/internal/fabric"
	"portals3/internal/flightrec"
	"portals3/internal/fw"
	"portals3/internal/model"
	"portals3/internal/nal"
	"portals3/internal/oskernel"
	"portals3/internal/seastar"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
)

// Mode selects how a process reaches Portals (paper §3.1's four system
// configurations).
type Mode int

// Process modes.
const (
	// Generic forwards every Portals call to the OS kernel; matching runs
	// on the host, driven by interrupts.
	Generic Mode = iota
	// Accelerated posts commands directly to a dedicated firmware mailbox;
	// matching runs on the NIC and the data path is interrupt-free.
	// Catamount only (§3.3: accelerated mode does not support paged
	// buffers).
	Accelerated
	// KernelService is a kernel-resident client (the Lustre case) reaching
	// the library through kbridge: no trap cost, still generic mode.
	KernelService
)

func (m Mode) String() string {
	return [...]string{"generic", "accelerated", "kernel-service"}[m]
}

// Machine is one simulated system.
type Machine struct {
	S    *sim.Sim
	P    model.Params
	Topo *topo.Topology
	Fab  *fabric.Fabric

	// OSKind selects each node's operating system; the default is
	// Catamount everywhere (a compute partition).
	OSKind func(topo.NodeID) oskernel.Kind

	nodes     []*Node // dense by id; nil until Node builds it
	gbn       bool
	idleTicks int32 // pending self-terminating observer ticks (every); shares gbn's word, so Machine keeps its size class
	sampler   *Sampler

	// lanes is the event-lane table: one entry on a classic machine (New),
	// one per kernel shard on a sharded one (NewSharded). Every node lives
	// on exactly one lane; engine is what advances them all — the bare
	// simulator or the parallel kernel.
	lanes  []lane
	engine interface {
		Run()
		RunUntil(sim.Time)
	}

	// Sharded-machine state (NewSharded; nil on a classic machine): the
	// parallel kernel and the hopwise fabric cluster. mu serializes the
	// failure funnel across lanes.
	kern *sim.Kernel
	cl   *fabric.Cluster
	mu   sync.Mutex

	// Host-execution profiling (hostprof.go): whether the kernel profiler
	// is armed, and the measured wall-clock of the engine's run calls — the
	// external reference the profiler's accounting is validated against.
	hostprofOn bool
	runWall    time.Duration

	// rec is the one event recorder, armed by EnableFlightRecorder;
	// dumpEvents is the events per node a dump holds, 0 until then. It
	// shares ledgerReported's word, so Machine keeps its size class.
	// reported holds every node that has filed a report, whose later
	// reports carry no dump (fileReport).
	rec            *flightrec.Recorder
	stall          *StallDetector
	reports        []FailureReport
	reported       map[topo.NodeID]bool
	ledgerReported bool
	dumpEvents     int32
}

// lane is one event lane's share of the machine: the simulator its nodes
// run on, the fabric instance owning their links, pools and counters, and
// the telemetry they record into (nil until enabled). Lane-local telemetry
// keeps the hot path lock-free; Telemetry merges it at snapshot time, and
// the merge is byte-identical at every shard count.
type lane struct {
	sim *sim.Sim
	fab *fabric.Fabric
	tel *telemetry.Telemetry
}

// Node is one XT3 node.
type Node struct {
	ID      topo.NodeID
	Kernel  *oskernel.Kernel
	Chip    *seastar.Chip
	NIC     *fw.NIC
	Generic *nal.GenericDriver

	lane *lane
}

// New builds a machine over the given topology. It panics on parameters the
// model cannot run (model.Params.Validate).
func New(p model.Params, tp *topo.Topology) *Machine {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s := sim.New()
	m := &Machine{
		S:      s,
		P:      p,
		Topo:   tp,
		OSKind: func(topo.NodeID) oskernel.Kind { return oskernel.Catamount },
		nodes:  make([]*Node, tp.Nodes()),
	}
	m.Fab = fabric.New(s, tp, &m.P)
	m.lanes = []lane{{sim: s, fab: m.Fab}}
	m.engine = s
	m.applySchedule()
	return m
}

// NewPair is the two-node micro-benchmark machine (the NetPIPE setup):
// two adjacent Catamount nodes.
func NewPair(p model.Params) *Machine {
	tp, err := topo.New(2, 1, 1, false, false, false)
	if err != nil {
		panic(err)
	}
	return New(p, tp)
}

// Node returns (building on first use) the node with the given id.
func (m *Machine) Node(id topo.NodeID) *Node {
	if !m.Topo.Valid(id) {
		panic(fmt.Sprintf("machine: invalid node %d", id))
	}
	if n := m.nodes[id]; n != nil {
		return n
	}
	ln, port := m.home(id)
	kern := oskernel.New(ln.sim, &m.P, m.OSKind(id), id)
	chip := seastar.New(ln.sim, &m.P, id)
	nic, err := fw.New(ln.sim, &m.P, chip, port, id)
	if err != nil {
		panic(err)
	}
	if m.gbn {
		nic.Policy = fw.ExhaustGoBackN
	}
	drv, err := nal.NewGeneric(kern, nic, m.Topo, &m.P)
	if err != nil {
		panic(err)
	}
	n := &Node{ID: id, Kernel: kern, Chip: chip, NIC: nic, Generic: drv, lane: ln}
	if ln.tel != nil {
		m.wireTelemetry(n)
	}
	if m.rec != nil {
		m.wireFlightRec(n)
	}
	m.installFailureHandler(n)
	m.nodes[id] = n
	return n
}

// home returns the lane node id lives on and the port it injects through:
// the classic fabric itself, or the node's own port on a sharded cluster.
func (m *Machine) home(id topo.NodeID) (*lane, fabric.Port) {
	if m.cl != nil {
		return &m.lanes[m.cl.Lane(id)], m.cl.Port(id)
	}
	return &m.lanes[0], m.Fab
}

// EnableTelemetry attaches a telemetry handle to every lane — existing and
// subsequently built nodes — and returns lane 0's: per-message latency
// attribution through the generic driver, per-node interrupt dispatch
// histograms, and the registry the sampler and exporters use. Like
// the flight recorder, enable it before spawning processes; a machine without it pays
// one pointer test per site and allocates nothing. On a sharded machine
// read the merged view through Machine.Telemetry after the run.
func (m *Machine) EnableTelemetry() *telemetry.Telemetry {
	if m.lanes[0].tel == nil {
		for i := range m.lanes {
			ln := &m.lanes[i]
			ln.tel = telemetry.New()
			ln.fab.Tel = ln.tel
		}
		for _, n := range m.nodes {
			if n != nil {
				m.wireTelemetry(n)
			}
		}
	}
	return m.lanes[0].tel
}

// Telemetry returns the machine's telemetry handle (nil unless enabled):
// the live instance on a classic machine, a fresh merge of the per-lane
// instances on a sharded one — call it after Run, from the driver
// goroutine.
func (m *Machine) Telemetry() *telemetry.Telemetry {
	if !m.Sharded() || m.lanes[0].tel == nil {
		return m.lanes[0].tel
	}
	tels := make([]*telemetry.Telemetry, len(m.lanes))
	for i := range m.lanes {
		tels[i] = m.lanes[i].tel
	}
	return telemetry.Merged(tels...)
}

// wireTelemetry points one node's components at its lane's telemetry.
func (m *Machine) wireTelemetry(n *Node) {
	tel := n.lane.tel
	n.Generic.Tel = tel
	n.Kernel.IrqHist = tel.Reg.Histogram("host_irq_dispatch_ps", telemetry.NodeLabel(int(n.ID)))
}

// EnableGoBackN switches every node — existing and subsequently built — to
// the go-back-n exhaustion recovery protocol.
func (m *Machine) EnableGoBackN() {
	m.gbn = true
	for _, n := range m.nodes {
		if n != nil {
			n.NIC.Policy = fw.ExhaustGoBackN
		}
	}
}

// App is one running application process.
type App struct {
	M    *Machine
	Node *Node
	Pid  uint32
	Mode Mode
	// API is the process's Portals interface; valid once main runs.
	API *nal.API
	// Proc is the application coroutine.
	Proc *sim.Proc
	// Accel is the process's own driver in Accelerated mode (nil otherwise:
	// the node's Generic driver serves every other process).
	Accel *nal.AccelDriver
}

// Alloc obtains application memory from the node's OS: contiguous on
// Catamount, paged on Linux.
func (a *App) Alloc(n int) core.Region { return a.Node.Kernel.NewRegion(n) }

// ID returns the process's Portals id without an API crossing.
func (a *App) ID() core.ProcessID {
	return core.ProcessID{Nid: uint32(a.Node.ID), Pid: a.Pid}
}

// Spawn starts an application process on a node in the given mode; main
// runs as a simulator coroutine with a ready Portals API. Spawn returns the
// App immediately (the process starts at the current virtual time).
func (m *Machine) Spawn(node topo.NodeID, name string, mode Mode, main func(app *App)) (*App, error) {
	n := m.Node(node)
	pid := n.Kernel.AllocPid()
	uid := 1000 + pid
	app := &App{M: m, Node: n, Pid: pid, Mode: mode}

	var lib *core.Lib
	var bridge nal.Bridge
	switch mode {
	case Generic:
		lib = n.Generic.AttachProcess(pid, uid, core.Limits{})
		if n.Kernel.Kind == oskernel.Catamount {
			bridge = nal.QKBridge{K: n.Kernel}
		} else {
			bridge = nal.UKBridge{K: n.Kernel}
		}
	case KernelService:
		lib = n.Generic.AttachProcess(pid, uid, core.Limits{})
		bridge = nal.KBridge{}
	case Accelerated:
		if n.Kernel.Kind != oskernel.Catamount {
			return nil, fmt.Errorf("machine: accelerated mode requires Catamount (paper §3.3); node %d runs %v", node, n.Kernel.Kind)
		}
		drv, err := nal.NewAccel(n.NIC, m.Topo, &m.P, pid, uid, core.Limits{}, accelPendings)
		if err != nil {
			return nil, err
		}
		app.Accel = drv
		lib = drv.Lib()
		bridge = nal.AccelBridge{}
	default:
		return nil, fmt.Errorf("machine: unknown mode %d", mode)
	}

	lib.FR = n.NIC.FR
	n.NIC.S.Go(name, func(p *sim.Proc) {
		app.Proc = p
		app.API = nal.NewAPI(p, lib, bridge, &m.P)
		main(app)
	})
	return app, nil
}

// accelPendings sizes an accelerated process's pending pool; small, per the
// paper's limited-NIC-resources constraint.
const accelPendings = 256

// Run executes the simulation to completion, takes the sampler's
// documented final sample at quiesce time (the sampler self-terminates
// with the event heap, so the quiesce point itself has no tick of its
// own), then audits the fault plane's ledger: at quiescence every injected
// fault must be recovered or condemned, and an imbalance files a
// FailureLedger report (with a dump when the flight recorder is on)
// instead of panicking. Processes left blocked after a node panicked are
// that panic's casualties, not a second failure: the run ends as at
// quiescence and Reports says what went wrong. Any other deadlock panics.
func (m *Machine) Run() {
	t0 := time.Now()
	m.runEngine()
	m.runWall += time.Since(t0)
	if m.sampler != nil {
		// On a sharded machine every lane's clock reads the final horizon
		// here (RunUntil sets it), which is shard-invariant, so the closing
		// sample lands at the same timestamp at every shard count. The
		// closing sample flushes link meters instead of sampling them, so
		// the final utilization window ends when each link went idle rather
		// than being diluted across the drain to quiescence.
		m.sampler.closing = true
		m.sampler.sampleAt(m.S.Now())
	}
	m.flushMeters()
	m.checkLedger()
}

// runEngine runs the engine to quiescence, absorbing a deadlock that
// follows a FailurePanic report.
func (m *Machine) runEngine() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(sim.Deadlock); !ok || !m.panicked() {
				panic(r)
			}
		}
	}()
	m.engine.Run()
}

// panicked reports whether a node has filed a FailurePanic report. Call
// it from the driver goroutine, outside Run's windows.
func (m *Machine) panicked() bool {
	for _, r := range m.reports {
		if r.Kind == FailurePanic {
			return true
		}
	}
	return false
}

// flushMeters closes every link meter's final utilization window at
// quiesce time — covering machines that enabled telemetry without ever
// starting the sampler (whose meters would otherwise never be exported)
// and meters the closing sample already flushed (Flush is idempotent).
func (m *Machine) flushMeters() {
	if m.lanes[0].tel == nil {
		return
	}
	now := m.S.Now()
	for _, ln := range m.lanes {
		for _, mt := range ln.fab.Meters() {
			mt.Flush(ln.tel, now)
		}
	}
}

// RunUntil executes the simulation up to a virtual-time horizon, then
// advances the clock to (at least) t — the idiom staged scenario drivers
// use between final Run calls; the barrier ticks of periodic observers due
// through t fire even once the lanes are quiescent. On a sharded machine the
// horizon rounds up to the kernel's next window barrier, so events within
// lookahead−1 past t may run with their window; the rounding depends only
// on the workload's event times, never on the partition, so a
// RunUntil-driven run remains bit-identical at every shard count
// (sim.Kernel.RunUntil documents the argument).
func (m *Machine) RunUntil(t sim.Time) {
	t0 := time.Now()
	m.engine.RunUntil(t)
	m.runWall += time.Since(t0)
}
