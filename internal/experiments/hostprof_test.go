package experiments

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"portals3/internal/sim"
)

// hostprofConfig is diffConfig with the host profiler armed and a progress
// callback firing at effectively every window barrier — the maximally
// intrusive profiler configuration.
func hostprofConfig(shards int, seed int64) TorusConfig {
	cfg := diffConfig(shards, seed)
	cfg.HostProf = true
	cfg.Progress = func(sim.HostProgress) {}
	cfg.ProgressEvery = time.Nanosecond
	return cfg
}

// TestTorusDifferentialHostProfiler is the profiler-purity gate: digests
// must be byte-identical with the profiler off (the reference), with it
// on, and across shard counts {1, 2, 4} with it on. Wall-clock state must
// never leak into a deterministic artifact.
func TestTorusDifferentialHostProfiler(t *testing.T) {
	const seed = 3
	ref := TorusHalo(diffConfig(1, seed))
	if len(ref.Errors) > 0 {
		t.Fatalf("reference run failed: %v", ref.Errors[:min(len(ref.Errors), 5)])
	}
	refDigest := ref.Digest()
	for _, shards := range []int{1, 2, 4} {
		res := TorusHalo(hostprofConfig(shards, seed))
		if got := res.Digest(); !bytes.Equal(got, refDigest) {
			t.Errorf("shards %d: digest diverges with profiler on\n%s",
				shards, digestDiff(refDigest, got))
		}
		hp := res.HostProfile
		if hp == nil {
			t.Fatalf("shards %d: no host profile harvested", shards)
		}
		if hp.Shards != shards || hp.Windows != res.Windows || hp.WallNs <= 0 {
			t.Errorf("shards %d: profile inconsistent: shards=%d windows=%d (run %d) wall=%d",
				shards, hp.Shards, hp.Windows, res.Windows, hp.WallNs)
		}
		js, err := hp.JSON()
		if err != nil || !bytes.Contains(js, []byte(`"parks": `)) || !bytes.Contains(js, []byte(`"inline_windows": `)) {
			t.Fatalf("shards %d: exported profile lacks the barrier counts (err %v):\n%s", shards, err, js)
		}
		// The acceptance identity, at the exported-artifact level: every
		// lane's busy+wait+drain within 5% of the measured kernel wall.
		for _, l := range hp.Lanes {
			sum := l.BusyNs + l.WaitNs + hp.DrainNs
			diff := sum - hp.RunWallNs
			if diff < 0 {
				diff = -diff
			}
			if float64(diff) > 0.05*float64(hp.RunWallNs) {
				t.Errorf("shards %d lane %d: busy %d + wait %d + drain %d = %d vs measured wall %d (>5%% off)",
					shards, l.Lane, l.BusyNs, l.WaitNs, hp.DrainNs, sum, hp.RunWallNs)
			}
		}
	}
}

// TestTorusDifferentialInline pins the GOMAXPROCS=1 inline-fallback path
// at the workload level: a full halo run (all observers on) on a single
// scheduling core must digest byte-identically to the parallel-worker run
// at the same shard count.
func TestTorusDifferentialInline(t *testing.T) {
	const seed = 2
	ref := TorusHalo(diffConfig(4, seed)).Digest()
	prev := runtime.GOMAXPROCS(1)
	inline := TorusHalo(diffConfig(4, seed)).Digest()
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(inline, ref) {
		t.Errorf("GOMAXPROCS=1 inline run diverges from parallel workers\n%s",
			digestDiff(ref, inline))
	}
}
