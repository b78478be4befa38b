package machine

import (
	"bytes"
	"fmt"
	"testing"

	"portals3/internal/core"
	"portals3/internal/fabric"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// soakRules is the fault mix the soak and determinism tests run under:
// seeded probabilistic drop of data and both flow-control frame types,
// duplication, and delay — every fault class the go-back-n protocol must
// absorb.
func soakRules() []model.FaultRule {
	return []model.FaultRule{
		model.NewFault(model.FaultDrop, model.FrameData, 0.05),
		model.NewFault(model.FaultDrop, model.FrameFcAck, 0.05),
		model.NewFault(model.FaultDrop, model.FrameFcNack, 0.05),
		model.NewFault(model.FaultDup, model.FrameData, 0.03),
		model.NewFault(model.FaultDelay, model.FrameData, 0.03).WithDelay(5 * sim.Microsecond),
	}
}

// runFaultSoak is runFaultSoakOn the classic pair.
func runFaultSoak(t *testing.T, seed int64, msgs int) ([][]byte, sim.Time, fabric.FaultStats) {
	t.Helper()
	return runFaultSoakOn(t, NewPair, seed, msgs)
}

// runFaultSoakOn streams msgs pipelined 1 KiB puts through a go-back-n pair
// (whichever two-node machine build makes) whose fabric runs the soak fault
// mix under the given seed. It returns the received payloads (by slot), the
// virtual completion time, and the planes' final counters.
func runFaultSoakOn(t *testing.T, build func(model.Params) *Machine, seed int64, msgs int) ([][]byte, sim.Time, fabric.FaultStats) {
	t.Helper()
	const msgBytes = 1024
	const window = 4 // puts in flight at once

	p := model.Defaults()
	p.NumGenericPendings = 32
	p.Faults = soakRules()
	p.FaultSeed = seed
	m := build(p)
	m.EnableGoBackN()

	got := make([][]byte, msgs)
	var done sim.Time
	var b *App
	b, _ = m.Spawn(1, "rx", Generic, func(app *App) {
		buf, eq := recvSetup(t, app, msgs*msgBytes, core.MDOpPut|core.MDManageRemote)
		for seen := 0; seen < msgs; {
			ev, err := app.API.EQWait(eq)
			if err != nil {
				return
			}
			if ev.Type != core.EventPutEnd {
				continue
			}
			if ev.NIFail {
				t.Error("NIFail under loss: go-back-n must make faults invisible")
			}
			slot := int(ev.Offset) / msgBytes
			data := make([]byte, ev.MLength)
			buf.ReadAt(int(ev.Offset), data)
			got[slot] = data
			seen++
		}
		done = app.Proc.Now()
	})
	m.Spawn(0, "tx", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		eq, _ := app.API.EQAlloc(4 * msgs)
		inflight := 0
		for i := 0; i < msgs; i++ {
			src := app.Alloc(msgBytes)
			src.WriteAt(0, bytes.Repeat([]byte{byte(i + 1)}, msgBytes))
			md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite,
				Options: core.MDEventStartDisable, EQ: eq})
			app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, i*msgBytes, 0)
			if inflight++; inflight == window {
				waitFor(t, app, eq, core.EventSendEnd)
				inflight--
			}
		}
		for ; inflight > 0; inflight-- {
			waitFor(t, app, eq, core.EventSendEnd)
		}
	})
	m.RunUntil(500 * sim.Millisecond)

	for i := topo.NodeID(0); i < 2; i++ {
		if m.Node(i).NIC.Dead() {
			t.Fatalf("seed %#x: node %d panicked under go-back-n", seed, i)
		}
	}
	fs, _ := m.FaultSnapshot()
	return got, done, fs
}

// TestFaultSoakSeeded hammers the go-back-n pair with the full fault mix
// under several seeds: every message must arrive intact in its slot, no NIC
// may panic, and the plane's ledger must account for every injected fault
// (injected == recovered + condemned).
func TestFaultSoakSeeded(t *testing.T) {
	seeds := []int64{1, 0xfa017, 0x5ea57a7}
	msgs := 40
	if testing.Short() {
		seeds = seeds[:1]
		msgs = 20
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			got, done, fs := runFaultSoak(t, seed, msgs)
			if done == 0 {
				t.Fatalf("receiver did not complete: %v", fs)
			}
			for i, data := range got {
				if len(data) != 1024 {
					t.Fatalf("slot %d: got %d bytes", i, len(data))
				}
				for _, v := range data {
					if v != byte(i+1) {
						t.Fatalf("slot %d corrupted", i)
					}
				}
			}
			if fs.Injected() == 0 {
				t.Error("soak injected no faults; the mix or seed is miscalibrated")
			}
			if fs.Open() != 0 {
				t.Errorf("ledger does not balance: %v", fs)
			}
		})
	}
}

// TestFaultSoakDeterminism: two runs with the same fault seed are
// bit-identical — same completion time, same payloads, same fault counters.
func TestFaultSoakDeterminism(t *testing.T) {
	const seed = 0xfa017
	msgs := 30
	if testing.Short() {
		msgs = 15
	}
	gotA, doneA, fsA := runFaultSoak(t, seed, msgs)
	gotB, doneB, fsB := runFaultSoak(t, seed, msgs)
	if doneA == 0 || doneA != doneB {
		t.Errorf("completion times diverged under one seed: %v vs %v", doneA, doneB)
	}
	if fsA != fsB {
		t.Errorf("fault counters diverged under one seed:\n  %v\n  %v", fsA, fsB)
	}
	for i := range gotA {
		if !bytes.Equal(gotA[i], gotB[i]) {
			t.Fatalf("slot %d payloads diverged under one seed", i)
		}
	}
}

// forEachPair runs a two-node fault scenario on every machine kind: the
// classic pair, and the sharded pair at one and two lanes. build makes the
// machine from the scenario's parameters (faults are declared there, in
// Params.Schedule, the one fault-declaration API).
func forEachPair(t *testing.T, run func(t *testing.T, build func(model.Params) *Machine)) {
	t.Run("pair", func(t *testing.T) { run(t, NewPair) })
	for _, shards := range []int{1, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { run(t, shardedPair(shards)) })
	}
}

// shardedPair builds the two-node line as a sharded machine of the given
// lane count.
func shardedPair(shards int) func(model.Params) *Machine {
	return func(p model.Params) *Machine {
		tp, err := topo.New(2, 1, 1, false, false, false)
		if err != nil {
			panic(err)
		}
		return NewSharded(p, tp, shards)
	}
}

// TestStallNodeForHoldsThenDelivers: a stalled destination buffers arrivals
// in order and releases them at resume — a hung NIC that recovers.
func TestStallNodeForHoldsThenDelivers(t *testing.T) {
	forEachPair(t, func(t *testing.T, build func(model.Params) *Machine) {
		p := model.Defaults()
		// Stall the receiver before the put's frames arrive, resume at 300µs.
		p.Schedule = model.FaultSchedule{{Kind: model.SchedStall, Node: 1, At: 0, Dur: 300 * sim.Microsecond}}
		m := build(p)
		m.EnableGoBackN()
		payload := bytes.Repeat([]byte{0x77}, 4096)
		_, got, at := onePut(t, m, payload)
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted across a stall window")
		}
		if at < 300*sim.Microsecond {
			t.Errorf("delivery at %v inside the stall window", at)
		}
		fs, _ := m.FaultSnapshot()
		if fs.Stalls == 0 {
			t.Error("no frames were held by the stall")
		}
		if fs.Open() != 0 {
			t.Errorf("ledger does not balance: %v", fs)
		}
	})
}

// TestLinkDownWindowRecoveredByGoBackN: frames crossing a downed link are
// dropped for the window's duration; go-back-n redelivers once it is back.
func TestLinkDownWindowRecoveredByGoBackN(t *testing.T) {
	forEachPair(t, func(t *testing.T, build func(model.Params) *Machine) {
		p := model.Defaults()
		p.Schedule = model.FaultSchedule{{Kind: model.SchedLinkDown, Node: 0,
			Dir: topo.Dir{Axis: topo.X, Sign: 1}, At: 0, Dur: 200 * sim.Microsecond}}
		m := build(p)
		m.EnableGoBackN()
		payload := bytes.Repeat([]byte{0x3c}, 4096)
		_, got, at := onePut(t, m, payload)
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted across a link-down window")
		}
		if at < 200*sim.Microsecond {
			t.Errorf("delivery at %v inside the down window", at)
		}
		fs, _ := m.FaultSnapshot()
		if fs.DropsLink == 0 {
			t.Error("no frames dropped by the downed link")
		}
		if fs.Open() != 0 {
			t.Errorf("ledger does not balance: %v", fs)
		}
	})
}
