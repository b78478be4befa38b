package machine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"portals3/internal/core"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// runHorizonDriven drives a sharded 4-node line machine with a stepped
// RunUntil loop instead of a single Run: a go-back-n-free put stream 0→1
// supplies traffic, node 3 sits idle, and the telemetry sampler records
// every node's counters at kernel barrier ticks through each horizon.
// Returns a digest covering payloads, finish time, stats, the sample count,
// the sampler's series (a hash of the telemetry export) and the kernel
// window count.
// horizon is the last RunUntil step of runHorizonDriven.
const horizon = 900 * sim.Microsecond

func runHorizonDriven(t *testing.T, shards int) string {
	t.Helper()
	const msgs = 8
	p := model.Defaults()
	tp, _ := topo.New(4, 1, 1, false, false, false)
	m := NewSharded(p, tp, shards)

	var got []byte
	var done sim.Time
	var b *App
	b, _ = m.Spawn(1, "rx", Generic, func(app *App) {
		buf, eq := recvSetup(t, app, 4096, core.MDOpPut|core.MDManageRemote)
		for n := 0; n < msgs; n++ {
			ev := waitFor(t, app, eq, core.EventPutEnd)
			data := make([]byte, ev.MLength)
			buf.ReadAt(0, data)
			got = append(got, data...)
		}
		done = app.Proc.Now()
	})
	m.Spawn(0, "tx", Generic, func(app *App) {
		app.Proc.Sleep(50 * sim.Microsecond)
		eq, _ := app.API.EQAlloc(64)
		for i := 0; i < msgs; i++ {
			src := app.Alloc(1024)
			src.WriteAt(0, bytes.Repeat([]byte{byte(i + 1)}, 1024))
			md, _ := app.API.MDBind(core.MDesc{Region: src, Threshold: core.ThresholdInfinite, EQ: eq})
			app.API.Put(md, core.NoAck, b.ID(), testPtl, 7, 0, 0)
			waitFor(t, app, eq, core.EventSendEnd)
			app.Proc.Sleep(60 * sim.Microsecond)
		}
	})
	m.Node(3) // instantiate the bystander so the sampler records it
	sp := m.StartSampler(20 * sim.Microsecond)

	// Stepped horizons well past the stream's natural finish: the sampler
	// must keep sampling (barrier ticks fire through each horizon even once
	// the lanes are quiescent).
	for h := 50 * sim.Microsecond; h <= horizon; h += 50 * sim.Microsecond {
		m.RunUntil(h)
		if now := m.S.Now(); now < h {
			t.Fatalf("shards=%d: lane 0 at %v after RunUntil(%v)", shards, now, h)
		}
	}
	m.Run()

	if len(got) != msgs*1024 {
		t.Fatalf("shards=%d: received %d bytes, want %d", shards, len(got), msgs*1024)
	}
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "rx_done_ps=%d finish_ps=%d windows=%d\n", done, m.S.Now(), m.ShardKernel().Windows)
	fmt.Fprintf(&sb, "payload=%x\n", got[:64])
	fmt.Fprintf(&sb, "samples=%d telemetry=%x\n", sp.Samples, sha256.Sum256(m.Artifacts("").Telemetry))
	sb.WriteString(m.Stats().String())
	return sb.String()
}

// TestRunUntilShardedBitIdentity: a horizon-driven sharded run — RunUntil
// steps observed by the sampler at kernel barrier ticks — produces a
// byte-identical digest at every shard count. This is the idiom seqOnly
// used to reject; it now runs on the parallel kernel with the horizon
// rounded up to the next window barrier.
func TestRunUntilShardedBitIdentity(t *testing.T) {
	ref := runHorizonDriven(t, 1)
	if len(ref) == 0 {
		t.Fatal("empty reference digest")
	}
	var samples int
	if _, err := fmt.Sscanf(ref[strings.Index(ref, "samples="):], "samples=%d", &samples); err != nil || samples < int(horizon/(20*sim.Microsecond)) {
		t.Fatalf("reference digest holds %d samples (%v), want one per 20 us through %v:\n%s", samples, err, horizon, ref)
	}
	for _, shards := range []int{2, 4} {
		if got := runHorizonDriven(t, shards); got != ref {
			t.Errorf("shards=%d digest diverges from shards=1:\n--- ref\n%s\n--- got\n%s", shards, ref, got)
		}
	}
}

// TestNewShardedClampsLaneCount: asking for more lanes than nodes (or a
// non-positive count) must not build degenerate partitions — the lane map
// would skip indices and leave permanently empty lanes. The clamp keeps
// results identical anyway, checked via the horizon-driven digest.
func TestNewShardedClampsLaneCount(t *testing.T) {
	tp, _ := topo.New(4, 1, 1, false, false, false)
	for _, tc := range []struct{ ask, want int }{{0, 1}, {-3, 1}, {4, 4}, {9, 4}} {
		m := NewSharded(model.Defaults(), tp, tc.ask)
		if got := m.ShardKernel().Shards(); got != tc.want {
			t.Errorf("NewSharded(4 nodes, shards=%d): %d lanes, want %d", tc.ask, got, tc.want)
		}
	}
	if ref, got := runHorizonDriven(t, 1), runHorizonDriven(t, 16); got != ref {
		t.Errorf("clamped shards=16 digest diverges from shards=1:\n--- ref\n%s\n--- got\n%s", ref, got)
	}
}
