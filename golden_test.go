// The cross-commit pin of the simulated results. Every differential test
// compares shards = N against shards = 1 inside one build, and the figures are
// checked against the paper's tolerance, so a kernel change that reordered
// ties identically everywhere would pass both. This test compares against
// testdata/golden.txt, a document recorded at PR 16 (5d38e23), before
// sim.Proc.Sleep began dispatching in place: small artifacts line for line in
// exact picoseconds, large ones (a trace, the torus digests) as a sha256. The
// sha256 lines whose input holds trace or dump bytes were re-recorded once
// since, when the trace became a rendering of the flight recorder's rings
// (which then also recorded wire, host, PowerPC and event-queue activity).
// The get and mpich1 curves were added later, recorded before the Portals
// and MPI modules came to share one NetPIPE driver; that driver then zeroed
// the latency cells of both MPI bidir blocks, which had carried an RTT/2
// that Point.Latency reserves for ping-pong. The A6 block and the lossy
// traffic's digest and fault-plane lines were re-recorded when each node's
// fault stream moved from a math/rand source to a math/rand/v2 PCG: the same
// rules at the same rates roll other dice. The six torus digest lines were
// re-recorded when the digest dropped its Chrome trace section, a second
// rendering of the dump's events: each is the former digest with that
// section cut. The A2 and A6 blocks were re-recorded again when a go-back-n
// timeout began resending a flow's oldest unacked message alone instead of
// its whole unacked tail. Every other line is as recorded.
package portals3

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"portals3/internal/experiments"
	"portals3/internal/flightrec"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/netpipe"
)

// goldenDocument renders every pinned artifact into one text.
func goldenDocument() string {
	var doc strings.Builder
	p := model.Defaults()

	doc.WriteString("== figure 4\n")
	f4 := experiments.Figure4(p)
	f4.Render(&doc)
	f4.RenderPercentiles(&doc)

	// Every NetPIPE module and pattern, capped at 64 KB (eager, rendezvous
	// and the chunk pipeline all engage below that), in exact picoseconds:
	// put and mpich2 first, as first recorded, then get and mpich1.
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = 64 << 10
	for _, mod := range []struct {
		op   netpipe.Op
		impl mpi.Impl
	}{{netpipe.OpPut, mpi.MPICH2}, {netpipe.OpGet, mpi.MPICH1}} {
		for _, pat := range []netpipe.Pattern{netpipe.PingPong, netpipe.Stream, netpipe.Bidir} {
			for _, r := range []netpipe.Result{
				netpipe.RunPortals(p, mod.op, pat, cfg),
				netpipe.RunMPI(p, mod.impl, pat, cfg),
			} {
				fmt.Fprintf(&doc, "== %s %v: bytes iters elapsed latency p50 p99 (ps)\n", r.Series, pat)
				for _, pt := range r.Points {
					fmt.Fprintf(&doc, "%d %d %d %d %d %d\n", pt.Bytes, pt.Iters, pt.Elapsed, pt.Latency, pt.P50, pt.P99)
				}
			}
		}
	}

	doc.WriteString("== ablation checks: A1 accelerated, A2 go-back-n, A6 lossy incast\n")
	experiments.RenderChecks(&doc, experiments.AblationAccelerated(p).Checks())
	gbn := experiments.AblationGoBackN(p, 4, 30, 2048)
	fmt.Fprintf(&doc, "  %v\n  %v\n", gbn[0], gbn[1])
	experiments.RenderChecks(&doc, experiments.GbnChecks(gbn))
	lossy := experiments.AblationLossyIncast(p, 4, 30, 2048, 0xfa017)
	fmt.Fprintf(&doc, "  %v\n  %v\n", lossy.Arms[0], lossy.Arms[1])
	experiments.RenderChecks(&doc, experiments.LossyChecks(lossy))

	doc.WriteString("== sha256 of large artifacts\n")
	sum := func(name string, b []byte) { fmt.Fprintf(&doc, "%s %x (%d bytes)\n", name, sha256.Sum256(b), len(b)) }

	// A keep-everything bound: the dump holds every event of the run.
	var traced *machine.Machine
	cfg.MaxBytes = 1 << 10
	cfg.Observe = func(m *machine.Machine) { traced = m; m.EnableFlightRecorder(math.MaxInt) }
	netpipe.RunPortals(p, netpipe.OpPut, netpipe.PingPong, cfg)
	d := traced.TakeDump("end of run")
	whole(d)
	var chrome bytes.Buffer
	if err := d.WriteChrome(&chrome); err != nil {
		panic(err)
	}
	sum("chrome trace, put pingpong to 1 KB", chrome.Bytes())

	torus := experiments.TorusConfig{Dim: 4, Bytes: 256, Steps: 2, Radius: 2, Telemetry: true, FlightRec: flightrec.DefaultRingEvents}
	lossyTraffic := experiments.TrafficConfig{TorusConfig: torus, Msgs: 4, Load: 1, Seed: 7}
	lossyTraffic.GoBackN = true
	lossyTraffic.FaultSeed = 7
	lossyTraffic.Faults = []model.FaultRule{
		model.NewFault(model.FaultDrop, model.FrameData, 0.01),
		model.NewFault(model.FaultDrop, model.FrameFcAck, 0.01),
		model.NewFault(model.FaultDup, model.FrameData, 0.01),
	}
	// Each digest's dump holds every event its run recorded: no node's ring
	// wrapped.
	digest := func(res experiments.TorusResult) []byte {
		d, err := flightrec.Decode(bytes.NewReader(res.Artifacts.Dump))
		if err != nil {
			panic(err)
		}
		whole(d)
		return res.Digest()
	}
	for _, shards := range []int{1, 2} {
		torus.Shards, lossyTraffic.Shards = shards, shards
		sum(fmt.Sprint("halo dim 4 digest, shards ", shards), digest(experiments.TorusHalo(torus)))
		sum(fmt.Sprint("collective dim 4 digest, shards ", shards), digest(experiments.TorusCollective(torus)))
		res := experiments.TorusTraffic(lossyTraffic)
		sum(fmt.Sprint("lossy go-back-n traffic dim 4 digest, shards ", shards), digest(res))
		fmt.Fprintf(&doc, "  its fault plane: %s\n", res.FaultsLine)
	}
	return doc.String()
}

// whole panics if a node's ring lost events to wrap: a pinned artifact must
// cover its whole run.
func whole(d *flightrec.Dump) {
	if n := d.Dropped(); n > 0 {
		panic(fmt.Sprintf("the dump dropped %d events", n))
	}
}

// TestGoldenSimulatedResults fails when any simulated number, table, trace or
// digest differs from the recorded build's. There is deliberately no -update
// flag: a change that means to move the fixed point replaces
// testdata/golden.txt with the document this prints and says why.
func TestGoldenSimulatedResults(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := goldenDocument()
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(s []string) string {
		if i < len(s) {
			return s[i]
		}
		return "<end of document>"
	}
	t.Errorf("simulated results differ from testdata/golden.txt, first at line %d:\n want %s\n  got %s\nthe new document:\n%s",
		i+1, line(w), line(g), got)
}
