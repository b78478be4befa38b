package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"portals3/internal/flightrec"
	"portals3/internal/model"
	"portals3/internal/sim"
)

// diffConfig is the differential-test shape: small enough to run many
// seeds, big enough to route multi-hop and cross every lane boundary.
// Every observer is on — telemetry, flight recorder, the sampler and the
// stall detector — so the digest covers every artifact the lane-local
// observers merge.
func diffConfig(shards int, seed int64) TorusConfig {
	return TorusConfig{
		Dim: 4, Bytes: 256, Steps: 2, Radius: 2, Shards: shards,
		FaultSeed: seed, // seeds the per-node fault PRNGs even with no rules
		Telemetry: true, FlightRec: flightrec.DefaultRingEvents,
		SamplePeriod: 20 * sim.Microsecond,
		StallWindow:  400 * sim.Microsecond,
	}
}

// TestTorusHaloCompletes sanity-checks the workload itself: every face
// verified, no failure reports, at the sequential reference shard count.
func TestTorusHaloCompletes(t *testing.T) {
	res := TorusHalo(diffConfig(1, 0))
	if len(res.Errors) > 0 {
		t.Fatalf("halo run failed: %v", res.Errors[:min(len(res.Errors), 5)])
	}
	if res.Nodes != 64 {
		t.Fatalf("nodes = %d", res.Nodes)
	}
	if res.FinishPs <= 0 {
		t.Fatalf("finish = %d", res.FinishPs)
	}
}

// TestTorusDifferential is the resharding bit-identity gate: for several
// seeds and shard counts, the full artifact digest — finish time, stats,
// telemetry snapshot, flight-recorder dump — must equal the shards=1
// reference byte for byte. Fault-free arms only; see
// TestTorusDifferentialFaults for the A6-style schedule.
func TestTorusDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	shardCounts := []int{2, 3, 4}
	for _, seed := range seeds {
		ref := TorusHalo(diffConfig(1, seed))
		if len(ref.Errors) > 0 {
			t.Fatalf("seed %d: reference run failed: %v", seed, ref.Errors[:min(len(ref.Errors), 5)])
		}
		refDigest := wholeDigest(t, ref)
		for _, shards := range shardCounts {
			got := TorusHalo(diffConfig(shards, seed)).Digest()
			if !bytes.Equal(got, refDigest) {
				t.Errorf("seed %d shards %d: digest diverges from sequential reference\n%s",
					seed, shards, digestDiff(refDigest, got))
			}
		}
	}
}

// TestTorusDifferentialFaults reruns the differential under an A6-style
// fault schedule: data drops recovered by go-back-n, with per-seed fault
// PRNG streams. The recovered run must still reshard bit-identically.
func TestTorusDifferentialFaults(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	shardCounts := []int{2, 3, 4}
	for _, seed := range seeds {
		cfg := diffConfig(1, 0x5eed0+seed)
		cfg.GoBackN = true
		cfg.Faults = []model.FaultRule{
			model.NewFault(model.FaultDrop, model.FrameData, 0.02).WithCount(2),
		}
		ref := TorusHalo(cfg)
		if len(ref.Errors) > 0 {
			t.Fatalf("seed %d: faulty reference failed: %v", seed, ref.Errors[:min(len(ref.Errors), 5)])
		}
		if ref.FaultsLine == "" {
			t.Fatalf("seed %d: fault plane never activated", seed)
		}
		refDigest := wholeDigest(t, ref)
		for _, shards := range shardCounts {
			c := cfg
			c.Shards = shards
			got := TorusHalo(c).Digest()
			if !bytes.Equal(got, refDigest) {
				t.Errorf("seed %d shards %d (faults): digest diverges\n%s",
					seed, shards, digestDiff(refDigest, got))
			}
		}
	}
}

// wholeDigest is res's digest, once t has checked that no node's end-of-run
// dump lost an event to ring wrap: the differential shapes fit the default
// ring, so the digest covers every event the run recorded.
func wholeDigest(t *testing.T, res TorusResult) []byte {
	t.Helper()
	d, err := flightrec.Decode(bytes.NewReader(res.Artifacts.Dump))
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Dropped(); n > 0 {
		t.Fatalf("the dump dropped %d events: the digest misses part of the run", n)
	}
	return res.Digest()
}

// digestDiff renders the first divergent line of two digests.
func digestDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := min(len(al), len(bl))
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  ref: %.200q\n  got: %.200q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("digests differ in length: ref %d lines, got %d lines", len(al), len(bl))
}
