package model

import (
	"strings"
	"testing"

	"portals3/internal/sim"
)

func TestDefaultsQuotePaperConstants(t *testing.T) {
	p := Defaults()
	if p.LinkBps != 2_500_000_000 {
		t.Error("link payload must be 2.5 GB/s (paper §2)")
	}
	if p.PacketBytes != 64 {
		t.Error("router packets are 64 bytes (paper §2)")
	}
	if p.PPCHz != 500_000_000 {
		t.Error("PowerPC 440 runs at 500 MHz (paper §2)")
	}
	if p.SRAMBytes != 384<<10 {
		t.Error("SeaStar SRAM is 384 KB (paper §2)")
	}
	if p.TrapOverhead != 75*sim.Nanosecond {
		t.Error("null trap is ~75 ns (paper §3.3)")
	}
	if p.InterruptOverhead < 2*sim.Microsecond {
		t.Error("interrupts cost at least 2 µs (paper §3.3)")
	}
	if p.InlineDataMax != 12 {
		t.Error("12 bytes of user data fit in the header packet (paper §6)")
	}
	if p.NumSources != 1024 || p.NumGenericPendings != 1274 {
		t.Error("pool sizes must match paper §4.2")
	}
	if p.FwImageBytes != 22<<10 {
		t.Error("firmware image is 22 KB (paper §4)")
	}
	if p.HostHz != 2_000_000_000 {
		t.Error("Red Storm Opterons run at 2.0 GHz (paper §5.1)")
	}
}

func TestSRAMOccupancyFormula(t *testing.T) {
	p := Defaults()
	// Paper configuration: 1,024 sources and 1,274 pendings for the single
	// generic process (N=1).
	m := p.SRAMOccupancy([]int{p.NumGenericPendings})
	want := int64(1024*32 + 1274*32)
	if m != want {
		t.Errorf("M = %d, want %d", m, want)
	}
	// The paper: "These structures are small enough that several more
	// similarly sized pending pools can be supported" (§4.2). Check that
	// four more accelerated pools still fit with the firmware image.
	pools := []int{p.NumGenericPendings, 1274, 1274, 1274, 1274}
	if free := p.SRAMFree(pools); free <= 0 {
		t.Errorf("four extra pending pools must still fit in SRAM, free=%d", free)
	}
}

func TestCycleConversions(t *testing.T) {
	p := Defaults()
	if p.PPCCycles(500) != sim.Microsecond {
		t.Errorf("500 PowerPC cycles should be 1 µs, got %v", p.PPCCycles(500))
	}
	if p.HostCycles(2000) != sim.Microsecond {
		t.Errorf("2000 host cycles should be 1 µs, got %v", p.HostCycles(2000))
	}
}

func TestRedStormLatencyTargetsPlausible(t *testing.T) {
	// §1: one-way MPI latency requirement is 2 µs nearest-neighbor and 5 µs
	// between the two furthest nodes; the wire portion of that difference
	// is (diameter-1) extra hops. Check our hop latency puts the wire delta
	// in the right ballpark (2–4 µs over 52 extra hops).
	p := Defaults()
	delta := sim.Time(52) * p.HopLatency
	if delta < 2*sim.Microsecond || delta > 4*sim.Microsecond {
		t.Errorf("52-hop delta = %v, want 2-4 µs to honor the §1 requirements", delta)
	}
}

// TestValidate: a set the model cannot run is refused with the fields
// named; the sets the figures and ablations run pass.
func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(p *Params)
		fields []string // named in the error; none: valid
	}{
		{"defaults", func(p *Params) {}, nil},
		{"A5: a 2 KB RX FIFO", func(p *Params) { p.RxFIFOBytes = 2 << 10 }, nil},
		{"an 8 KB chunk, the largest ChunkRobustness runs", func(p *Params) { p.ChunkBytes = 8 << 10 }, nil},
		{"A5 at a 4 KB chunk", func(p *Params) { p.RxFIFOBytes, p.ChunkBytes = 2<<10, 4<<10 }, []string{"ChunkBytes 4096", "RxFIFOBytes 2048"}},
		{"a chunk past the TX FIFO", func(p *Params) { p.ChunkBytes = 16 << 10 }, []string{"ChunkBytes 16384", "TxFIFOBytes 8192"}},
		{"15 bytes inline", func(p *Params) { p.InlineDataMax = 15 }, []string{"InlineDataMax 15"}},
		{"all three", func(p *Params) { p.RxFIFOBytes, p.ChunkBytes, p.InlineDataMax = 2<<10, 16<<10, 13 },
			[]string{"RxFIFOBytes 2048", "TxFIFOBytes 8192", "InlineDataMax 13"}},
	} {
		p := Defaults()
		tc.change(&p)
		err := p.Validate()
		if (err != nil) != (tc.fields != nil) {
			t.Errorf("%s: Validate() = %v", tc.name, err)
			continue
		}
		for _, f := range tc.fields {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%s: %q does not name %q", tc.name, err, f)
			}
		}
	}
}
