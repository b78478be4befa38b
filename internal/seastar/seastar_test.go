package seastar

import (
	"strings"
	"testing"

	"portals3/internal/model"
	"portals3/internal/sim"
)

func newChip(t *testing.T) (*sim.Sim, *Chip, model.Params) {
	t.Helper()
	s := sim.New()
	p := model.Defaults()
	return s, New(s, &p, 0), p
}

func TestFirmwareImageChargedToSRAM(t *testing.T) {
	_, c, p := newChip(t)
	if c.SRAM.Used() != p.FwImageBytes {
		t.Errorf("SRAM used = %d, want the 22 KB firmware image", c.SRAM.Used())
	}
}

func TestSRAMExhaustion(t *testing.T) {
	m := NewSRAM(100)
	if err := m.Alloc("a", 60); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc("b", 60); err == nil {
		t.Error("over-allocation accepted")
	} else if !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("exhaustion error %q does not name the refused reservation", err)
	}
	if err := m.Alloc("c", 40); err != nil {
		t.Errorf("exact fit rejected: %v", err)
	}
	if m.Free() != 0 {
		t.Errorf("free = %d", m.Free())
	}
	if m.Used() != 100 {
		t.Errorf("used = %d, want the 60 + 40 accepted, not the refused 60", m.Used())
	}
	if err := m.Alloc("neg", -1); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestExecSerializesThroughCPU(t *testing.T) {
	s, c, p := newChip(t)
	var done []sim.Time
	c.Exec(500, func() { done = append(done, s.Now()) }) // 500+40 cycles @500MHz
	c.Exec(500, func() { done = append(done, s.Now()) })
	s.Run()
	per := p.PPCCycles(540)
	if done[0] != per || done[1] != 2*per {
		t.Errorf("handler completions %v, want %v and %v (single-threaded firmware)", done, per, 2*per)
	}
}

func TestReadHostPaysPerSegmentLatency(t *testing.T) {
	s, c, p := newChip(t)
	var one, four sim.Time
	c.ReadHost(4096, 1, func() { one = s.Now() })
	s.Run()
	s2 := sim.New()
	c2 := New(s2, &p, 0)
	c2.ReadHost(4096, 4, func() { four = s2.Now() })
	s2.Run()
	if four-one != 3*p.HTReadLatency {
		t.Errorf("4-segment read should cost 3 extra latencies: %v vs %v", four, one)
	}
}

func TestStreamTransfersSkipHTLatency(t *testing.T) {
	s, c, p := newChip(t)
	var ctrl, stream sim.Time
	c.WriteHost(2048, func() { ctrl = s.Now() - 0 })
	s.Run()
	s2 := sim.New()
	c2 := New(s2, &p, 0)
	c2.WriteHostStream(2048, 1, func() { stream = s2.Now() })
	s2.Run()
	// A pipelined bulk write pays the segment overhead, not the full
	// posted-write latency.
	if stream >= ctrl {
		t.Errorf("stream write (%v) should be cheaper than control write (%v)", stream, ctrl)
	}
	want := p.DMASegOverhead + sim.BytesAt(2048, p.HTWriteBps)
	if stream != want {
		t.Errorf("stream write = %v, want %v", stream, want)
	}
	var rd sim.Time
	s3 := sim.New()
	c3 := New(s3, &p, 0)
	c3.ReadHostStream(4096, 2, func() { rd = s3.Now() })
	s3.Run()
	wantRd := 2*p.DMASegOverhead + sim.BytesAt(4096, p.HTReadBps)
	if rd != wantRd {
		t.Errorf("stream read = %v, want %v", rd, wantRd)
	}
}
