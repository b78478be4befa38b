package machine

import (
	"bytes"
	"math"
	"testing"

	"portals3/internal/fabric"
	"portals3/internal/flightrec"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// What the classic machine and the sharded one share above the walk, stated
// as properties rather than goldens: one message-ID and span scheme and one
// fault-plane scope (DESIGN.md §11). On a two-node line
// a route is one hop and the receive window never fills, so the whole-path
// and hop-by-hop walks coincide and the two machines must agree exactly.

// TestOneLaneMatchesClassicUnderFaults: the same rules and seed draw the
// same faults on both machines — every plane is per source node with the
// same stream — so the ledgers, the deliveries and the completion time are
// identical.
func TestOneLaneMatchesClassicUnderFaults(t *testing.T) {
	msgs := 40
	if testing.Short() {
		msgs = 20
	}
	for _, seed := range []int64{1, 0xfa017, 0x5ea57a7} {
		gotC, doneC, fsC := runFaultSoakOn(t, NewPair, seed, msgs)
		gotS, doneS, fsS := runFaultSoakOn(t, shardedPair(1), seed, msgs)
		if fsC.Injected() == 0 {
			t.Errorf("seed %#x: no fault injected; the comparison is vacuous", seed)
		}
		if fsC != fsS {
			t.Errorf("seed %#x: fault ledgers differ:\n  classic  %v\n  one lane %v", seed, fsC, fsS)
		}
		if doneC == 0 || doneC != doneS {
			t.Errorf("seed %#x: completion %v on the classic machine, %v on one lane", seed, doneC, doneS)
		}
		for i := range gotC {
			if !bytes.Equal(gotC[i], gotS[i]) {
				t.Fatalf("seed %#x: slot %d delivered differently", seed, i)
			}
		}
	}
}

// TestOneLaneMatchesClassicUnderLinkErrors: link-CRC retries draw from the
// plane of the node that owns the link, in that node's own order, so a lossy
// link retries the same crossings on the classic machine and on one or two
// lanes — with the fault rules drawing from the same streams in between.
func TestOneLaneMatchesClassicUnderLinkErrors(t *testing.T) {
	msgs := 40
	if testing.Short() {
		msgs = 20
	}
	for _, seed := range []int64{1, 0xfa017} {
		type run struct {
			got     [][]byte
			done    sim.Time
			fs      fabric.FaultStats
			retries uint64
		}
		var runs []run
		for _, build := range []func(model.Params) *Machine{NewPair, shardedPair(1), shardedPair(2)} {
			var m *Machine
			lossy := func(p model.Params) *Machine {
				p.LinkBitErrorRate = 0.005
				m = build(p)
				return m
			}
			got, done, fs := runFaultSoakOn(t, lossy, seed, msgs)
			runs = append(runs, run{got, done, fs, m.Stats().Fabric.LinkRetries})
		}
		c := runs[0]
		if c.retries == 0 || c.fs.Injected() == 0 {
			t.Errorf("seed %#x: %d link retries, %d faults; the comparison is vacuous", seed, c.retries, c.fs.Injected())
		}
		for i, r := range runs[1:] {
			lanes := i + 1
			if r.retries != c.retries {
				t.Errorf("seed %#x: %d link retries on the classic machine, %d on %d lanes", seed, c.retries, r.retries, lanes)
			}
			if r.fs != c.fs {
				t.Errorf("seed %#x: fault ledgers differ:\n  classic  %v\n  %d lanes  %v", seed, c.fs, lanes, r.fs)
			}
			if c.done == 0 || r.done != c.done {
				t.Errorf("seed %#x: completion %v on the classic machine, %v on %d lanes", seed, c.done, r.done, lanes)
			}
			for j := range c.got {
				if !bytes.Equal(c.got[j], r.got[j]) {
					t.Fatalf("seed %#x: slot %d delivered differently on %d lanes", seed, j, lanes)
				}
			}
		}
	}
}

// TestIDsCarryTheirNode: on every machine a message ID is (source+1)<<32 |
// the source's own sequence and a flight-recorder span is (node+1)<<32 | the
// minting ring's sequence, so neither depends on how nodes interleave.
func TestIDsCarryTheirNode(t *testing.T) {
	forEachPair(t, func(t *testing.T, build func(model.Params) *Machine) {
		m := build(model.Defaults())
		m.EnableFlightRecorder(math.MaxInt)
		pingPong(t, m, Generic, 4096)

		sent := map[int]uint64{}   // node -> messages it injected
		minted := map[int]uint64{} // node -> spans it minted
		for _, nd := range m.TakeDump("ids").Nodes {
			for _, e := range nd.Events {
				if e.Kind == flightrec.KWireTx {
					sent[nd.Node]++
					if want := uint64(nd.Node+1)<<32 | sent[nd.Node]; e.Span != want {
						t.Errorf("node %d's message %d has ID %#x, want %#x", nd.Node, sent[nd.Node], e.Span, want)
					}
				}
				if e.Kind != flightrec.KTxSerialize {
					continue
				}
				minted[nd.Node]++
				if want := uint64(nd.Node+1)<<32 | minted[nd.Node]; e.Span != want {
					t.Errorf("node %d's span %d is %#x, want %#x", nd.Node, minted[nd.Node], e.Span, want)
				}
			}
		}
		if sent[0] == 0 || sent[1] == 0 || minted[0] == 0 || minted[1] == 0 {
			t.Fatalf("injections per node = %v, spans minted per node = %v, want both nodes sending", sent, minted)
		}
	})
}

// TestCorruptEntryLandsOnItsNodesPlane: a corrupt:NODE:AT schedule entry
// opens its unclosable ledger entry on that node's plane and on no other, on
// every machine.
func TestCorruptEntryLandsOnItsNodesPlane(t *testing.T) {
	forEachPair(t, func(t *testing.T, build func(model.Params) *Machine) {
		sched, err := model.ParseSchedule("corrupt:1:5us")
		if err != nil {
			t.Fatal(err)
		}
		p := model.Defaults()
		p.Schedule = sched
		m := build(p)
		m.Run()
		for id := topo.NodeID(0); id < 2; id++ {
			ln, _ := m.home(id)
			want := uint64(id) // one entry on node 1's plane, none on node 0's
			if got := ln.fab.Plane(id).Stats.Open(); got != want {
				t.Errorf("node %d's plane holds %d open entries, want %d", id, got, want)
			}
		}
		if reports := m.Reports(); len(reports) != 1 || reports[0].Kind != FailureLedger {
			t.Errorf("reports = %v, want the one ledger imbalance", reports)
		}
	})
}
