package experiments

import (
	"bytes"
	"testing"

	"portals3/internal/flightrec"
	"portals3/internal/model"
	"portals3/internal/sim"
)

// diffCollConfig is the collective differential-test shape: 64 ranks on a
// 4³ torus, a 16-slot vector, every observer on (as diffConfig).
func diffCollConfig(shards int, seed int64) TorusConfig {
	return TorusConfig{
		Dim: 4, Bytes: 128, Steps: 2, Shards: shards,
		FaultSeed: seed,
		Telemetry: true, FlightRec: flightrec.DefaultRingEvents,
		SamplePeriod: 20 * sim.Microsecond,
		StallWindow:  600 * sim.Microsecond,
	}
}

// TestTorusCollectiveCompletes sanity-checks the workload: every rank's
// allreduce matches the analytic sum and every broadcast the root's
// pattern, at the sequential reference.
func TestTorusCollectiveCompletes(t *testing.T) {
	res := TorusCollective(diffCollConfig(1, 0))
	if len(res.Errors) > 0 {
		t.Fatalf("collective run failed: %v", res.Errors[:min(len(res.Errors), 5)])
	}
	if res.Nodes != 64 {
		t.Fatalf("nodes = %d", res.Nodes)
	}
	if res.FinishPs <= 0 {
		t.Fatalf("finish = %d", res.FinishPs)
	}
}

// TestCollectiveDifferential: the resharding bit-identity gate for the
// collective trees — the binomial edges span many hop counts at once, and
// the MPI library (sinks, rendezvous, event queues) rides on top, so this
// exercises reshard invariance through a much deeper stack than the halo.
func TestCollectiveDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		ref := TorusCollective(diffCollConfig(1, seed))
		if len(ref.Errors) > 0 {
			t.Fatalf("seed %d: reference run failed: %v", seed, ref.Errors[:min(len(ref.Errors), 5)])
		}
		refDigest := wholeDigest(t, ref)
		for _, shards := range []int{2, 4} {
			got := TorusCollective(diffCollConfig(shards, seed)).Digest()
			if !bytes.Equal(got, refDigest) {
				t.Errorf("seed %d shards %d: collective digest diverges\n%s",
					seed, shards, digestDiff(refDigest, got))
			}
		}
	}
}

// TestCollectiveDifferentialFaults reruns the differential over a lossy
// fabric with go-back-n recovery: a dropped tree edge stalls the whole
// collective until recovered, so the recovery path is fully load-bearing.
func TestCollectiveDifferentialFaults(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		cfg := diffCollConfig(1, 0xc011+seed)
		cfg.GoBackN = true
		cfg.Faults = []model.FaultRule{
			model.NewFault(model.FaultDrop, model.FrameData, 0.02).WithCount(2),
		}
		ref := TorusCollective(cfg)
		if len(ref.Errors) > 0 {
			t.Fatalf("seed %d: faulty reference failed: %v", seed, ref.Errors[:min(len(ref.Errors), 5)])
		}
		if ref.FaultsLine == "" {
			t.Fatalf("seed %d: fault plane never activated", seed)
		}
		refDigest := wholeDigest(t, ref)
		for _, shards := range []int{2, 4} {
			c := cfg
			c.Shards = shards
			got := TorusCollective(c).Digest()
			if !bytes.Equal(got, refDigest) {
				t.Errorf("seed %d shards %d (faults): collective digest diverges\n%s",
					seed, shards, digestDiff(refDigest, got))
			}
		}
	}
}
