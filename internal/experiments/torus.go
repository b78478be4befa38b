// Torus halo exchange: the machine-scale workload the sharded kernel is
// measured on. Every node of a d×d×d torus runs a Portals process that
// exchanges fixed-size halo faces with its six axis partners each step —
// the communication pattern of the paper's target applications, and (with
// Radius > 1) a multi-hop routed load where every message crosses
// intermediate routers under per-hop contention.
//
// The same configuration runs at any shard count; TorusResult.Digest is
// the byte string the differential tests compare across shard counts
// (DESIGN.md §11's bit-identical claim, enforced).
package experiments

import (
	"bytes"
	"fmt"
	"time"

	"portals3/internal/core"
	"portals3/internal/fabric"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// haloPtl is the portal table index the halo processes attach to, and
// haloMatch the single match-bits value every exchange uses.
const (
	haloPtl   = 4
	haloMatch = 0x51
)

// TorusConfig describes one halo-exchange run.
type TorusConfig struct {
	Dim    int // torus is Dim×Dim×Dim nodes
	Bytes  int // halo face size per direction, bytes
	Steps  int // exchange iterations
	Radius int // axis distance to each partner (hops per message)
	Shards int // event lanes; 1 is the sequential reference

	// GoBackN enables the recovery protocol. Forced on when Faults or a
	// Schedule are configured — a dropped halo face would otherwise
	// deadlock the exchange barrier.
	GoBackN   bool
	Faults    []model.FaultRule
	FaultSeed int64

	// Schedule is the declarative timed-fault plan (link outages, stalls,
	// restarts, bursts), applied deterministically at any shard count.
	Schedule model.FaultSchedule

	Telemetry bool
	// FlightRec is the flight recorder's ring bound per node, 0 off; a
	// bound above the run's event count keeps every event.
	FlightRec int

	// Periodic observers, each off when zero: the telemetry sampler
	// (counter and link-contention series) and the stall detector window.
	// On sharded runs both fire at the kernel's canonical barrier ticks, so
	// their artifacts reshard bit-identically.
	SamplePeriod sim.Time
	StallWindow  sim.Time

	// HostProf arms the host-execution profiler: the run's result carries a
	// machine.HostProfile (wall-clock lane accounting, straggler ranking,
	// memory watermarks). Host-side and nondeterministic — never part of
	// the Digest. Progress additionally registers a live reporter invoked
	// about every ProgressEvery of wall-clock (default 1s) and implies
	// HostProf.
	HostProf      bool
	Progress      func(sim.HostProgress)
	ProgressEvery time.Duration
}

// DefaultTorusConfig is the benchmark shape: 512 nodes, 1 KB faces,
// 2-hop partners.
func DefaultTorusConfig() TorusConfig {
	return TorusConfig{Dim: 8, Bytes: 1024, Steps: 2, Radius: 2, Shards: 1}
}

// TorusResult is one run's outcome plus the artifacts the differential
// tests compare byte-for-byte.
type TorusResult struct {
	Nodes    int
	Shards   int
	FinishPs int64  // virtual completion time
	Windows  uint64 // kernel synchronization windows executed

	StatsText string // machine counter table

	// Artifacts is what the armed planes recorded, as the machine encodes
	// it — the value drivers write to disk; the Digest compares its
	// Telemetry and Dump. TelemetryJSON is Artifacts.Telemetry under
	// the name the benchmark reads it by.
	Artifacts     machine.Artifacts
	TelemetryJSON []byte
	FaultsLine    string // summed fault-ledger counters (faults configured)

	// FaultStats is the numeric fault-ledger snapshot behind FaultsLine,
	// for callers (the soak driver) that audit the counters directly.
	FaultStats fabric.FaultStats

	// Errors lists halo verification failures; empty on a correct run.
	Errors []string

	// HostProfile is the host-execution profile (HostProf on). Wall-clock
	// is nondeterministic, so Digest deliberately never reads this field —
	// TestTorusDifferentialHostProfiler enforces that exclusion.
	HostProfile *machine.HostProfile
}

// Digest concatenates every simulated artifact of the run — everything
// that must be invariant under resharding, and nothing (wall-clock, host
// scheduling) that may not.
func (r TorusResult) Digest() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "nodes=%d finish_ps=%d windows=%d\n", r.Nodes, r.FinishPs, r.Windows)
	fmt.Fprintf(&b, "errors=%q\n", r.Errors)
	fmt.Fprintf(&b, "faults=%s\n", r.FaultsLine)
	b.WriteString("--- stats\n")
	b.WriteString(r.StatsText)
	b.WriteString("--- telemetry\n")
	b.Write(r.Artifacts.Telemetry)
	b.WriteString("--- dump\n")
	b.Write(r.Artifacts.Dump)
	return b.Bytes()
}

// pattern is the byte each node writes at offset i of its face toward
// direction d — a pure function of (node, d, i), so any observer can
// recompute what a slot must hold.
func pattern(node topo.NodeID, d, i int) byte {
	return byte(int(node)*131 + d*31 + i*7 + 11)
}

// haloDirs is the fixed direction order: +X,-X,+Y,-Y,+Z,-Z. opp(d) is d^1.
var haloDirs = [6]topo.Dir{
	{Axis: topo.X, Sign: 1}, {Axis: topo.X, Sign: -1},
	{Axis: topo.Y, Sign: 1}, {Axis: topo.Y, Sign: -1},
	{Axis: topo.Z, Sign: 1}, {Axis: topo.Z, Sign: -1},
}

// TorusHalo runs one halo exchange and verifies every received face.
func TorusHalo(cfg TorusConfig) TorusResult {
	if cfg.Radius < 1 {
		cfg.Radius = 1
	}
	m, tp := buildTorusMachine(&cfg)

	nodes := tp.Nodes()
	B := cfg.Bytes

	// partner[n][d] is the node Radius hops along direction d — the torus
	// is symmetric, so partner(partner(n,d), opp(d)) == n.
	partner := make([][6]topo.NodeID, nodes)
	for id := 0; id < nodes; id++ {
		for d := 0; d < 6; d++ {
			cur := topo.NodeID(id)
			for r := 0; r < cfg.Radius; r++ {
				next, ok := tp.Neighbor(cur, haloDirs[d])
				if !ok {
					panic("experiments: torus neighbor missing")
				}
				cur = next
			}
			partner[id][d] = cur
		}
	}

	recvBufs := make([]core.Region, nodes)
	apps := make([]*machine.App, nodes)
	var spawnErrs []string
	for id := 0; id < nodes; id++ {
		id := topo.NodeID(id)
		app, err := m.Spawn(id, fmt.Sprintf("halo-%d", id), machine.Generic, func(app *machine.App) {
			recvEq, err := app.API.EQAlloc(6*cfg.Steps + 32)
			if err != nil {
				panic(err)
			}
			me, err := app.API.MEAttach(haloPtl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
				haloMatch, 0, core.Retain, core.After)
			if err != nil {
				panic(err)
			}
			recvBuf := app.Alloc(6 * B)
			if _, err := app.API.MDAttach(me, core.MDesc{
				Region: recvBuf, Threshold: core.ThresholdInfinite,
				Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable,
				EQ:      recvEq,
			}, core.Retain); err != nil {
				panic(err)
			}
			recvBufs[id] = recvBuf

			sendEq, err := app.API.EQAlloc(6*cfg.Steps + 32)
			if err != nil {
				panic(err)
			}
			src := app.Alloc(6 * B)
			face := make([]byte, B)
			for d := 0; d < 6; d++ {
				for i := range face {
					face[i] = pattern(id, d, i)
				}
				src.WriteAt(d*B, face)
			}
			md, err := app.API.MDBind(core.MDesc{
				Region: src, Threshold: core.ThresholdInfinite,
				Options: core.MDEventStartDisable, EQ: sendEq,
			})
			if err != nil {
				panic(err)
			}

			// Let every node finish posting its match entry before traffic.
			app.Proc.Sleep(100 * sim.Microsecond)

			for step := 0; step < cfg.Steps; step++ {
				for d := 0; d < 6; d++ {
					tgt := apps[partner[id][d]].ID()
					if err := app.API.PutRegion(md, d*B, B, core.NoAck, tgt,
						haloPtl, haloMatch, (d^1)*B, uint64(step)); err != nil {
						panic(err)
					}
				}
				waitEvents(app, sendEq, core.EventSendEnd, 6)
				waitEvents(app, recvEq, core.EventPutEnd, 6)
			}
		})
		if err != nil {
			spawnErrs = append(spawnErrs, err.Error())
		}
		apps[id] = app
	}
	startObservers(m, cfg)
	m.Run()

	res := TorusResult{Nodes: nodes, Errors: spawnErrs}
	harvest(m, &res)

	// Verify every received face against the sender's pure pattern.
	got := make([]byte, B)
	for id := 0; id < nodes; id++ {
		for e := 0; e < 6; e++ {
			from := partner[id][e]
			recvBufs[id].ReadAt(e*B, got)
			for i := range got {
				if got[i] != pattern(from, e^1, i) {
					res.Errors = append(res.Errors, fmt.Sprintf(
						"node %d slot %d byte %d: got %#x want %#x (from node %d)",
						id, e, i, got[i], pattern(from, e^1, i), from))
					break
				}
			}
		}
	}
	return res
}

// waitEvents consumes events from eq until n of the wanted type arrived.
func waitEvents(app *machine.App, eq core.EQHandle, want core.EventType, n int) {
	for got := 0; got < n; {
		ev, err := app.API.EQWait(eq)
		if err != nil && err != core.ErrEQDropped {
			panic(err)
		}
		if ev.Type == want {
			got++
		}
	}
}
