package fw_test

import (
	"fmt"
	"slices"
	"testing"

	"portals3/internal/core"
	"portals3/internal/fw"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/netpipe"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// The conservation checks of conservation_test.go under the real drivers,
// which are who recycle transmit requests on a machine: both nal drivers
// return a request at its TX_DONE event while the firmware pools its control
// frames into the same list, on the two jobs that exercise recovery hardest
// and on ablation A1's accelerated put series.

// twoWaves runs a put job on m twice over, with the machine run dry in
// between: in each wave every node's process (in mode) puts one message to
// each of dests(node), in a burst, the k-th of sizes[k%len(sizes)] bytes, and
// waits for its SEND_ENDs and for everything addressed to it; the two waves
// are fw.Conservation's. Each time the machine runs dry, no driver may hold
// an event or a backlogged transmit.
func twoWaves(t *testing.T, m *machine.Machine, mode machine.Mode, sizes []int, dests func(src topo.NodeID) []topo.NodeID) {
	t.Helper()
	const (
		ptl, bits = 4, 0x7a
		secondAt  = 50 * sim.Millisecond // the first wave is long over
	)
	nodes := m.Topo.Nodes()
	want := make([]int, nodes)
	for id := 0; id < nodes; id++ {
		for _, dst := range dests(topo.NodeID(id)) {
			want[dst]++
		}
	}
	size := slices.Max(sizes)
	apps := make([]*machine.App, nodes)
	got := make([]int, nodes)
	for id := 0; id < nodes; id++ {
		id := topo.NodeID(id)
		app, err := m.Spawn(id, fmt.Sprintf("waves-%d", id), mode, func(app *machine.App) {
			must := func(err error) {
				if err != nil {
					panic(err)
				}
			}
			recvEq, err := app.API.EQAlloc(2*want[id] + 32)
			must(err)
			me, err := app.API.MEAttach(ptl, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny},
				bits, 0, core.Retain, core.After)
			must(err)
			_, err = app.API.MDAttach(me, core.MDesc{
				Region: app.Alloc(size), Threshold: core.ThresholdInfinite,
				Options: core.MDOpPut | core.MDManageRemote | core.MDEventStartDisable, EQ: recvEq,
			}, core.Retain)
			must(err)
			sendEq, err := app.API.EQAlloc(2*len(dests(id)) + 32)
			must(err)
			md, err := app.API.MDBind(core.MDesc{Region: app.Alloc(size), Threshold: core.ThresholdInfinite,
				Options: core.MDEventStartDisable, EQ: sendEq})
			must(err)
			wait := func(eq core.EQHandle, typ core.EventType, n int) {
				for n > 0 {
					ev, err := app.API.EQWait(eq)
					if err != nil && err != core.ErrEQDropped {
						panic(err)
					}
					if ev.Type == typ {
						n--
					}
				}
			}
			for wave := 0; wave < 2; wave++ {
				start := 100*sim.Microsecond + sim.Time(wave)*secondAt
				app.Proc.Sleep(start - app.Proc.Now())
				for k, dst := range dests(id) {
					must(app.API.PutRegion(md, 0, sizes[k%len(sizes)], core.NoAck, apps[dst].ID(), ptl, bits, 0, uint64(k)))
				}
				wait(sendEq, core.EventSendEnd, len(dests(id)))
				wait(recvEq, core.EventPutEnd, want[id])
				got[id] += want[id]
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		apps[id] = app
	}

	nics := make([]*fw.NIC, nodes)
	for id := range nics {
		nics[id] = m.Node(topo.NodeID(id)).NIC
	}
	drained := func(wave string) {
		t.Helper()
		for id, app := range apps {
			if d := app.Accel; d != nil && d.Backlogged() > 0 {
				t.Errorf("node %d after the %s wave: accelerated driver holds %d transmits", id, wave, d.Backlogged())
			}
			if d := app.Node.Generic; d.EvQueueDepth() > 0 || d.Backlogged() > 0 {
				t.Errorf("node %d after the %s wave: generic driver holds %d events, %d transmits",
					id, wave, d.EvQueueDepth(), d.Backlogged())
			}
		}
	}
	m.RunUntil(secondAt)
	drained("first")
	c := fw.Conserve(t, nics...)
	m.Run()
	drained("second")
	c.Check(t)
	for id := 0; id < nodes; id++ {
		if got[id] != 2*want[id] {
			t.Errorf("node %d received %d messages, want %d", id, got[id], 2*want[id])
		}
	}
}

// TestIncastConservesCarriers is ablation A2's go-back-n arm: four senders
// burst 30 messages each at a receiver with 8 receive pendings, which NACKs
// what it cannot hold.
func TestIncastConservesCarriers(t *testing.T) {
	p := model.Defaults()
	p.NumGenericPendings = 16
	tp, err := topo.New(5, 1, 1, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(p, tp)
	m.EnableGoBackN()
	twoWaves(t, m, machine.Generic, []int{2048}, func(src topo.NodeID) []topo.NodeID {
		if src == 0 {
			return nil
		}
		return make([]topo.NodeID, 30) // all to node 0
	})
	var retransmits, exhaustions uint64
	for id := 0; id < 5; id++ {
		st := m.Node(topo.NodeID(id)).NIC.Stats
		retransmits += st.Retransmits
		exhaustions += st.Exhaustions
	}
	if retransmits == 0 || exhaustions == 0 {
		t.Errorf("%d retransmissions, %d exhaustions: the incast did not exercise recovery", retransmits, exhaustions)
	}
}

// TestLossyTrafficConservesCarriers is the benchmark's lossy job at 4×4×4 on
// two lanes: uniform 1 KB traffic with 1 % of data frames dropped, 1 %
// duplicated and 1 % of acknowledgments dropped, both waves.
func TestLossyTrafficConservesCarriers(t *testing.T) {
	p := model.Defaults()
	p.Faults = []model.FaultRule{
		model.NewFault(model.FaultDrop, model.FrameData, 0.01),
		model.NewFault(model.FaultDrop, model.FrameFcAck, 0.01),
		model.NewFault(model.FaultDup, model.FrameData, 0.01),
	}
	p.FaultSeed = 1
	tp, err := topo.XT3Torus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.NewSharded(p, tp, 2)
	m.EnableGoBackN()
	nodes := tp.Nodes()
	twoWaves(t, m, machine.Generic, []int{1024}, func(src topo.NodeID) []topo.NodeID {
		out := make([]topo.NodeID, 8)
		for k := range out {
			// Any spread will do: 8 distinct peers, never src itself.
			out[k] = topo.NodeID((int(src) + 1 + k*7 + int(src)%5) % nodes)
			if out[k] == src {
				out[k] = topo.NodeID((int(src) + 1) % nodes)
			}
		}
		return out
	})
	fs, _ := m.FaultSnapshot()
	if fs.DropsData == 0 || fs.Dups == 0 || fs.DropsFcAck == 0 || fs.Open() != 0 {
		t.Errorf("fault ledger %v: want every kind injected and every entry closed", fs)
	}
}

// TestAcceleratedPutsConserveCarriers is ablation A1's accelerated put series
// (1 B to 1 MB, perturbed around each power of two) on the two-node machine:
// each node bursts the series at the other, five times over, so more sends
// are outstanding than the accelerated process has transmit pendings and
// the driver's backlog is used. The accelerated driver takes its requests
// from the NIC's pool and returns them at TX_DONE, as the generic one does.
func TestAcceleratedPutsConserveCarriers(t *testing.T) {
	m := machine.NewPair(model.Defaults())
	sizes := netpipe.Sizes(1<<20, 3)
	twoWaves(t, m, machine.Accelerated, sizes, func(src topo.NodeID) []topo.NodeID {
		out := make([]topo.NodeID, 5*len(sizes))
		for k := range out {
			out[k] = 1 - src
		}
		return out
	})
}
