// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), one benchmark per artifact, plus the ablations from DESIGN.md and
// micro-benchmarks of the simulation substrate itself.
//
// Each figure benchmark runs the full experiment per iteration and attaches
// the headline numbers as custom metrics (us = microseconds of simulated
// latency, MB/s = simulated bandwidth), so `go test -bench` output can be
// compared directly against the paper. Run with -v to get the full data
// tables.
package portals3

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"portals3/internal/core"
	"portals3/internal/experiments"
	"portals3/internal/flightrec"
	"portals3/internal/machine"
	"portals3/internal/model"
	"portals3/internal/mpi"
	"portals3/internal/netpipe"
	"portals3/internal/sim"
	"portals3/internal/topo"
)

// logFigure attaches the rendered data table to the benchmark output.
func logFigure(b *testing.B, f experiments.Figure) {
	var sb strings.Builder
	f.Render(&sb)
	b.Log("\n" + sb.String())
}

// at is a curve's point at one size; a missing point reads as zero.
func at(r netpipe.Result, bytes int) netpipe.Point {
	pt, _ := r.At(bytes)
	return pt
}

// BenchmarkFigure4Latency regenerates paper Figure 4: ping-pong latency,
// 1 B – 1 KB, for put, get, MPICH-1.2.6 and MPICH2. Paper values at one
// byte: 5.39, 6.60, 7.97 and 8.40 µs.
func BenchmarkFigure4Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure4(model.Defaults())
		b.ReportMetric(at(f.Curve("put"), 1).Latency.Micros(), "put_us")
		b.ReportMetric(at(f.Curve("get"), 1).Latency.Micros(), "get_us")
		b.ReportMetric(at(f.Curve("mpich-1.2.6"), 1).Latency.Micros(), "mpich1_us")
		b.ReportMetric(at(f.Curve("mpich2"), 1).Latency.Micros(), "mpich2_us")
		if i == 0 {
			logFigure(b, f)
		}
	}
}

// BenchmarkFigure5UniBandwidth regenerates paper Figure 5: uni-directional
// ping-pong bandwidth to 8 MB. Paper peak: put 1108.76 MB/s,
// half-bandwidth around 7 KB.
func BenchmarkFigure5UniBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure5(model.Defaults())
		b.ReportMetric(at(f.Curve("put"), 8<<20).MBps, "put_MB/s")
		b.ReportMetric(at(f.Curve("get"), 8<<20).MBps, "get_MB/s")
		b.ReportMetric(at(f.Curve("mpich2"), 8<<20).MBps, "mpich2_MB/s")
		if i == 0 {
			logFigure(b, f)
		}
	}
}

// BenchmarkFigure6StreamBandwidth regenerates paper Figure 6: streaming
// bandwidth. Paper: half-bandwidth around 5 KB; the get curve suffers
// badly (blocking operation, no pipelining).
func BenchmarkFigure6StreamBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure6(model.Defaults())
		b.ReportMetric(at(f.Curve("put"), 8192).MBps, "put8K_MB/s")
		b.ReportMetric(at(f.Curve("get"), 8192).MBps, "get8K_MB/s")
		b.ReportMetric(at(f.Curve("put"), 8<<20).MBps, "put_MB/s")
		if i == 0 {
			logFigure(b, f)
		}
	}
}

// BenchmarkFigure7BidirBandwidth regenerates paper Figure 7:
// bi-directional bandwidth. Paper peak: put 2203.19 MB/s at 8 MB.
func BenchmarkFigure7BidirBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figure7(model.Defaults())
		b.ReportMetric(at(f.Curve("put"), 8<<20).MBps, "put_MB/s")
		b.ReportMetric(at(f.Curve("mpich2"), 8<<20).MBps, "mpich2_MB/s")
		if i == 0 {
			logFigure(b, f)
		}
	}
}

// BenchmarkTrapAndInterruptCosts reproduces the scalar claims of §3.3: a
// null trap costs ~75 ns on Catamount and an interrupt at least 2 µs.
func BenchmarkTrapAndInterruptCosts(b *testing.B) {
	p := model.Defaults()
	for i := 0; i < b.N; i++ {
		b.ReportMetric(p.TrapOverhead.Nanos(), "trap_ns")
		b.ReportMetric(p.InterruptOverhead.Micros(), "interrupt_us")
		// Measured end to end: the difference between a 12-byte put (one
		// interrupt) and a 16-byte put (two interrupts) exposes the
		// interrupt cost on the wire path.
		cfg := netpipe.DefaultConfig()
		cfg.MaxBytes = 16
		r := netpipe.RunPortals(p, netpipe.OpPut, netpipe.PingPong, cfg)
		b.ReportMetric((at(r, 16).Latency - at(r, 11).Latency).Micros(), "inline_step_us")
	}
}

// BenchmarkAblationAcceleratedMode is ablation A1: generic vs accelerated
// processing for the same workload (§3.3's forward-looking design).
func BenchmarkAblationAcceleratedMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.AblationAccelerated(model.Defaults())
		b.ReportMetric(at(a.Generic, 1).Latency.Micros(), "generic_us")
		b.ReportMetric(at(a.Accel, 1).Latency.Micros(), "accel_us")
		b.ReportMetric(at(a.Generic, 1024).Latency.Micros(), "generic1K_us")
		b.ReportMetric(at(a.Accel, 1024).Latency.Micros(), "accel1K_us")
	}
}

// BenchmarkAblationGoBackN is ablation A2: incast resource exhaustion
// under the panic policy vs the go-back-n recovery protocol (§4.3).
func BenchmarkAblationGoBackN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationGoBackN(model.Defaults(), 4, 30, 2048)
		b.ReportMetric(float64(r[0].Completed), "panic_delivered")
		b.ReportMetric(float64(r[1].Completed), "gbn_delivered")
		b.ReportMetric(float64(r[1].Retransmits), "gbn_retransmits")
		if i == 0 {
			b.Logf("\n%v\n%v", r[0], r[1])
		}
	}
}

// BenchmarkSimulatorEventThroughput measures the substrate itself: how
// many simulator events per second of host time the kernel dispatches
// through the timed (heap) lane.
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(sim.Nanosecond, tick)
		}
	}
	b.ResetTimer()
	s.After(sim.Nanosecond, tick)
	s.Run()
}

// BenchmarkSimulatorZeroDelayLane measures the same-timestamp FIFO fast
// lane: After(0) handler chaining, the dominant scheduling pattern in the
// firmware and fabric models (credit grants, posted writes, pipelines).
func BenchmarkSimulatorZeroDelayLane(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(0, tick)
		}
	}
	b.ResetTimer()
	s.After(0, tick)
	s.Run()
}

// BenchmarkSimulatorEventThroughputDeep dispatches through a queue kept
// 1024 events deep, each at an instant of its own: past 64 entries the queue
// files events in its wheel (DESIGN.md §7), so this is the wheel with no ties
// to exploit — four events to a bucket, every bucket refilled.
func BenchmarkSimulatorEventThroughputDeep(b *testing.B) {
	b.ReportAllocs()
	const depth = 1024
	s := sim.New()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired >= b.N {
			s.Stop()
			return
		}
		s.After(depth*sim.Nanosecond, tick)
	}
	for i := 0; i < depth; i++ {
		s.After(sim.Time(i+1)*sim.Nanosecond, tick)
	}
	b.ResetTimer()
	s.Run()
}

// BenchmarkSimulatorEventThroughputLane is the queue as a lane of a 512-node
// machine loads it (measured on halo_512, DESIGN.md §7): events come due in
// bursts of 200 that share an instant, each scheduled 65 ns – 2.1 µs ahead
// over a standing depth of 1,000, and one event in a hundred arms a 150 µs
// retransmission timer, which waits outside the wheel's span.
func BenchmarkSimulatorEventThroughputLane(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	fired := 0
	timer := func() {}
	for _, ns := range []sim.Time{65, 131, 262, 524, 2100} {
		d := ns * sim.Nanosecond
		var tick func()
		tick = func() {
			fired++
			if fired >= b.N {
				s.Stop()
				return
			}
			if fired%100 == 0 {
				s.After(150*sim.Microsecond, timer)
			}
			s.After(d, tick)
		}
		for i := 0; i < 200; i++ {
			s.After(d, tick)
		}
	}
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelMail is a kernel lane's mail as uniform_lossy_512 loads it
// (DESIGN.md §7): one lane, windows one hop latency (55 ns) long, and 265
// packets in flight, each of which, when it arrives, posts itself on to the
// next router 55–465 ns ahead and queues a local event at the instant it
// posted for. That is 56 posts a window, 36 % of them due before the post
// ahead of them in the outbox, merged into a lane that stands about 500
// events deep. An op is one post: sorted into its window's batch, merged,
// dispatched, with its local event.
func BenchmarkKernelMail(b *testing.B) {
	b.ReportAllocs()
	const packets = 265
	k := sim.NewKernel(1, model.Defaults().HopLatency)
	l := k.Lane(0)
	local := func() {}
	posted := 0
	for node := range packets {
		var seq uint64
		var arrive func()
		arrive = func() {
			if posted == b.N {
				return
			}
			posted++
			seq++
			at := l.Now() + sim.Time(55+posted*7961%411)*sim.Nanosecond
			l.At(at, local)
			k.Post(0, 0, at, int32(node), seq, arrive)
		}
		arrive()
	}
	b.ResetTimer()
	k.Run()
	b.ReportMetric(float64(b.N)/float64(k.Windows), "posts/window")
}

// BenchmarkProcSwitch measures one simulated process switch pair: a timed
// event raises a signal, which wakes the waiting process (a coroutine switch
// in), and the process waits again (a switch back out). A Raise-woken process
// always leaves the CPU, so parks/op is 1; a lone sleeper no longer switches at
// all (BenchmarkSleepInPlace). The set-up (the coroutine) is outside the
// timer; the steady state allocates nothing. A scheduler round-trip per switch
// (a channel hand-off costs ~3x) is job_wall_s on bench/'s fig4_latency.
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	sig := &sim.Signal{}
	s.Go("waiter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			sig.Wait(p)
		}
	})
	n := 0
	var tick func()
	tick = func() {
		sig.Raise()
		if n++; n < b.N {
			s.After(sim.Nanosecond, tick)
		}
	}
	s.After(0, func() { // after the waiter's start event
		b.ResetTimer()
		tick()
	})
	s.Run()
	b.ReportMetric(float64(s.Parks)/float64(b.N), "parks/op")
}

// BenchmarkSleepInPlace is the sleep that stays on the CPU: a single Proc
// sleeping b.N times finds its own wake-up next in line every time, so each op
// is one timed event queued and taken in place, with no switch (parks/op 0).
func BenchmarkSleepInPlace(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	s.Go("sleeper", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	s.Run()
	b.ReportMetric(float64(s.Parks)/float64(b.N), "parks/op")
}

// BenchmarkParkedCall is the Portals call that leaves the CPU: a 1-byte put
// ping-pong between the two nodes of a 2-lane machine, so an op is a round of
// one PutRegion and one EQWait on each node. A lane's window is one hop
// latency, shorter than any host cost, so no sleep of a call stays on the CPU:
// what a call costs in switches is its chain's (sim.Step) — one park per
// PutRegion and one per EQWait that finds its queue empty — and the steady
// state allocates nothing.
func BenchmarkParkedCall(b *testing.B) { benchParkedCall(b, false) }

// BenchmarkPolledCall is BenchmarkParkedCall with each side waiting in EQPoll
// over an idle queue and its busy one, with no timeout instead of EQWait: a
// poll builds nothing per queue and nothing per wait, so the steady state
// allocates nothing either.
func BenchmarkPolledCall(b *testing.B) { benchParkedCall(b, true) }

func benchParkedCall(b *testing.B, poll bool) {
	b.ReportAllocs()
	tp, err := topo.New(2, 1, 1, false, false, false)
	if err != nil {
		b.Fatal(err)
	}
	m := machine.NewSharded(model.Defaults(), tp, 2)
	var ids [2]core.ProcessID
	for rank := range ids {
		app, err := m.Spawn(topo.NodeID(rank), "rank", machine.Generic, func(app *machine.App) {
			api := app.API
			buf := app.Alloc(1)
			eq, err := api.EQAlloc(64)
			check := func(err error) {
				if err != nil {
					panic(err)
				}
			}
			check(err)
			me, err := api.MEAttach(4, core.ProcessID{Nid: core.NidAny, Pid: core.PidAny}, 1, 0, core.Retain, core.After)
			check(err)
			_, err = api.MDAttach(me, core.MDesc{Region: buf, Threshold: core.ThresholdInfinite, EQ: eq,
				Options: core.MDOpPut | core.MDManageRemote}, core.Retain)
			check(err)
			md, err := api.MDBind(core.MDesc{Region: buf, Threshold: core.ThresholdInfinite, EQ: eq,
				Options: core.MDEventStartDisable})
			check(err)
			wait := func() (core.Event, error) { return api.EQWait(eq) }
			if poll {
				idle, err := api.EQAlloc(64)
				check(err)
				hs := []core.EQHandle{idle, eq}
				wait = func() (core.Event, error) {
					ev, _, err := api.EQPoll(hs, sim.Never)
					return ev, err
				}
			}
			app.Proc.Sleep(10 * sim.Microsecond) // both sides attached
			if rank == 0 {
				b.ResetTimer()
			}
			peer := ids[1-rank]
			for i := 0; i < b.N; i++ {
				if rank == 0 {
					check(api.PutRegion(md, 0, 1, core.NoAck, peer, 4, 1, 0, 0))
				}
				for { // the peer's put; this side's SEND_END comes first
					ev, err := wait()
					check(err)
					if ev.Type == core.EventPutEnd {
						break
					}
				}
				if rank == 1 {
					check(api.PutRegion(md, 0, 1, core.NoAck, peer, 4, 1, 0, 0))
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		ids[rank] = app.ID()
	}
	m.Run()
	k := m.ShardKernel()
	b.ReportMetric(float64(k.Lane(0).Parks+k.Lane(1).Parks)/float64(b.N), "parks/op")
}

// BenchmarkSpawnCall is what a process and its Portals API cost to set up: an
// op spawns a process on a built pair that binds a descriptor and puts one
// byte from it, and runs the machine until the put is done.
func BenchmarkSpawnCall(b *testing.B) {
	b.ReportAllocs()
	m := machine.NewPair(model.Defaults())
	m.Node(1)
	nobody := core.ProcessID{Nid: 1, Pid: 1}
	caller := func(app *machine.App) {
		md, err := app.API.MDBind(core.MDesc{Region: app.Alloc(1), Threshold: core.ThresholdInfinite, EQ: core.NoEQ})
		if err == nil {
			err = app.API.PutRegion(md, 0, 1, core.NoAck, nobody, 4, 1, 0, 0)
		}
		if err != nil {
			panic(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Spawn(0, "caller", machine.Generic, caller); err != nil {
			b.Fatal(err)
		}
		m.Run()
	}
}

// BenchmarkFigure4LatencySequential is the parallel-driver baseline: the
// identical Figure 4 workload with the worker pool forced to one worker.
// Comparing it against BenchmarkFigure4Latency (which uses GOMAXPROCS
// workers) isolates the driver's wall-clock gain; the rendered tables are
// byte-identical either way.
func BenchmarkFigure4LatencySequential(b *testing.B) {
	defer func(old int) { experiments.Parallelism = old }(experiments.Parallelism)
	experiments.Parallelism = 1
	for i := 0; i < b.N; i++ {
		f := experiments.Figure4(model.Defaults())
		b.ReportMetric(at(f.Curve("put"), 1).Latency.Micros(), "put_us")
	}
}

// BenchmarkSimulatedPut measures host wall time per fully simulated
// 1-byte put (the cost of one end-to-end message through every layer).
func BenchmarkSimulatedPut(b *testing.B) { benchSimulatedPut(b, model.Defaults()) }

// BenchmarkSimulatedPutDrawing is BenchmarkSimulatedPut through a fault
// plane whose one rule draws on every frame and, at this seed, never fires.
func BenchmarkSimulatedPutDrawing(b *testing.B) {
	p := model.Defaults()
	p.Faults = []model.FaultRule{model.NewFault(model.FaultDrop, model.FrameAny, 1e-12)}
	benchSimulatedPut(b, p)
}

func benchSimulatedPut(b *testing.B, p model.Params) {
	b.ReportAllocs()
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = 1
	cfg.MinIters = b.N
	cfg.MaxIters = b.N
	cfg.Mode = machine.Generic
	b.ResetTimer()
	netpipe.RunPortals(p, netpipe.OpPut, netpipe.PingPong, cfg)
}

// BenchmarkSimulatedMPI is BenchmarkSimulatedPut through the MPI module: a
// 1-byte MPICH2 ping-pong, so an op is one round of Send and Recv on each
// rank, every message posting and auto-unlinking its receive descriptor.
func BenchmarkSimulatedMPI(b *testing.B) {
	b.ReportAllocs()
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = 1
	cfg.MinIters = b.N
	cfg.MaxIters = b.N
	cfg.Mode = machine.Generic
	b.ResetTimer()
	netpipe.RunMPI(model.Defaults(), mpi.MPICH2, netpipe.PingPong, cfg)
}

// BenchmarkPingPongTelemetryOn is BenchmarkSimulatedPut with full telemetry:
// message attribution records, per-node interrupt histograms, and the
// sampler at a 100 µs simulated period. The delta against the put is the
// whole observability tax.
func BenchmarkPingPongTelemetryOn(b *testing.B) {
	b.ReportAllocs()
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = 1
	cfg.MinIters = b.N
	cfg.MaxIters = b.N
	cfg.Mode = machine.Generic
	cfg.Observe = func(m *machine.Machine) {
		m.EnableTelemetry()
		m.StartSampler(100 * sim.Microsecond)
	}
	b.ResetTimer()
	netpipe.RunPortals(model.Defaults(), netpipe.OpPut, netpipe.PingPong, cfg)
}

// BenchmarkPingPongFlightRecOn is the same workload with the flight
// recorder and stall detector armed. The recorder's hot path is a nil test
// plus a fixed-slot ring write per firmware transition, so the delta
// against BenchmarkSimulatedPut must stay within a few percent; allocs/op
// must not move at all.
func BenchmarkPingPongFlightRecOn(b *testing.B) {
	b.ReportAllocs()
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = 1
	cfg.MinIters = b.N
	cfg.MaxIters = b.N
	cfg.Mode = machine.Generic
	cfg.Observe = func(m *machine.Machine) {
		m.EnableFlightRecorder(0)
		m.StartStallDetector(1 * sim.Millisecond)
	}
	b.ResetTimer()
	netpipe.RunPortals(model.Defaults(), netpipe.OpPut, netpipe.PingPong, cfg)
}

// BenchmarkPingPongTracingOn is the same workload with the recorder armed at
// a keep-everything bound: it keeps every event of the run, the whole
// timeline, in rings no dump is taken of. A record is a struct store into a
// ring that doubles when full, so allocs/op must not move either.
func BenchmarkPingPongTracingOn(b *testing.B) {
	b.ReportAllocs()
	cfg := netpipe.DefaultConfig()
	cfg.MaxBytes = 1
	cfg.MinIters = b.N
	cfg.MaxIters = b.N
	cfg.Mode = machine.Generic
	cfg.Observe = func(m *machine.Machine) { m.EnableFlightRecorder(math.MaxInt) }
	b.ResetTimer()
	netpipe.RunPortals(model.Defaults(), netpipe.OpPut, netpipe.PingPong, cfg)
}

// benchTorusHalo runs the full 512-node (8×8×8, radius-2) halo exchange —
// the machine-scale workload of DESIGN.md §11 — once per iteration at the
// given shard count. ns/op is the wall-clock cost of the whole simulated
// run; sim_us and windows are its (shard-invariant) virtual results.
func benchTorusHalo(b *testing.B, shards int) {
	b.ReportAllocs()
	cfg := experiments.DefaultTorusConfig()
	cfg.Shards = shards
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.TorusHalo(cfg)
		if len(r.Errors) > 0 {
			b.Fatalf("halo run failed: %s", r.Errors[0])
		}
		b.ReportMetric(float64(r.FinishPs)/1e6, "sim_us")
		b.ReportMetric(float64(r.Windows), "windows")
	}
}

// BenchmarkTorusHaloSeq is the sequential reference arm (shards=1: the
// single-lane kernel, one event heap). TestContractHaloArms compares it
// against BenchmarkTorusHaloShard4 for the sharded kernel's allocations.
func BenchmarkTorusHaloSeq(b *testing.B) { benchTorusHalo(b, 1) }

// BenchmarkTorusHaloShard4 is the parallel arm: four event lanes under
// conservative lookahead. Simulated results are bit-identical to the Seq
// arm (enforced by TestTorusDifferential); only wall-clock may differ.
func BenchmarkTorusHaloShard4(b *testing.B) { benchTorusHalo(b, 4) }

// BenchmarkTorusHaloShard4SamplerOn is the observed sharded arm: four
// lanes with every periodic observer armed — telemetry, the sampler
// (counter + link-contention series), the stall detector and the flight
// recorder at its default bound. The delta against BenchmarkTorusHaloShard4
// is the price of lane-local observation on the hot path;
// TestContractHaloArms bounds it.
func BenchmarkTorusHaloShard4SamplerOn(b *testing.B) {
	b.ReportAllocs()
	cfg := experiments.DefaultTorusConfig()
	cfg.Shards = 4
	cfg.Telemetry = true
	cfg.FlightRec = flightrec.DefaultRingEvents
	cfg.SamplePeriod = 20 * sim.Microsecond
	cfg.StallWindow = 400 * sim.Microsecond
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.TorusHalo(cfg)
		if len(r.Errors) > 0 {
			b.Fatalf("observed halo run failed: %s", r.Errors[0])
		}
		b.ReportMetric(float64(r.FinishPs)/1e6, "sim_us")
		b.ReportMetric(float64(r.Windows), "windows")
	}
}

// jobShape is what `netpipe -workload w` runs with every other flag at its
// default: bench/'s shape of that workload (512 nodes; a 256-byte vector
// over 2 collective steps, or 8 × 1 KB per sender at full offered load).
func jobShape(w string) experiments.Job {
	j, err := experiments.ParseJob([]string{"-workload", w})
	if err != nil {
		panic(err)
	}
	return j.Resolved()
}

// benchTorusCollective runs the 512-rank (8×8×8) MPI
// allreduce/broadcast-tree workload on four event lanes — the
// machine-scale collective arm of the workload suite. ns/op is the
// wall-clock cost of the whole simulated job; sim_us is its
// (shard-invariant) virtual completion time.
func benchTorusCollective(b *testing.B, steps int) {
	b.ReportAllocs()
	cfg := jobShape("collective").TorusConfig
	cfg.Shards = 4
	cfg.Steps = steps
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.TorusCollective(cfg)
		if len(r.Errors) > 0 {
			b.Fatalf("collective run failed: %s", r.Errors[0])
		}
		b.ReportMetric(float64(r.FinishPs)/1e6, "sim_us")
		b.ReportMetric(float64(r.Windows), "windows")
	}
}

func BenchmarkTorusCollective(b *testing.B) { benchTorusCollective(b, 2) }

// collectiveHeap runs the default collective on a dim×dim×dim torus and two
// lanes under the host profiler and returns the heap high-water (HeapAlloc,
// sampled every 32 windows) and the rank count. Any rank error is fatal.
func collectiveHeap(tb testing.TB, dim int) (heap uint64, ranks int) {
	cfg := jobShape("collective").TorusConfig
	cfg.Dim, cfg.Shards, cfg.HostProf = dim, 2, true
	runtime.GC() // the high-water is the process's: start it from this job's own heap
	r := experiments.TorusCollective(cfg)
	if len(r.Errors) > 0 {
		tb.Fatalf("%d-rank collective failed: %s", r.Nodes, r.Errors[0])
	}
	return r.HostProfile.HeapAllocHigh, r.Nodes
}

// BenchmarkTorusCollective32k is the machine-scale proof: one MPI rank on
// every node of a 32×32×32 torus — 32,768 ranks, three times Red Storm — runs
// the collective job to completion inside 1 GiB of heap (~10 s; `make
// machine-scale` runs it once). TestContractBytesPerRank holds the same
// bytes/rank at 4,096 ranks on every `go test`.
func BenchmarkTorusCollective32k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		heap, ranks := collectiveHeap(b, 32)
		if heap > 1<<30 {
			b.Fatalf("%d-rank collective: heap high-water %.0f MB, want at most 1024", ranks, float64(heap)/(1<<20))
		}
		b.ReportMetric(float64(heap)/(1<<20), "heap_MB")
		b.ReportMetric(float64(heap)/float64(ranks), "bytes/rank")
	}
}

// benchHotSpot runs the 512-node hot-spot traffic generator on four
// event lanes: 30% of every sender's messages converge on one victim
// node, the maximal head-of-line-blocking case of the generator pair.
func benchHotSpot(b *testing.B, msgs int) {
	b.ReportAllocs()
	cfg := jobShape("random").TrafficConfig
	cfg.Shards = 4
	cfg.Msgs = msgs
	cfg.HotFrac = 0.3
	cfg.HotNode = 219 // center of the 8x8x8 torus
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.TorusTraffic(cfg)
		if len(r.Errors) > 0 {
			b.Fatalf("hot-spot run failed: %s", r.Errors[0])
		}
		b.ReportMetric(float64(r.FinishPs)/1e6, "sim_us")
		b.ReportMetric(float64(r.Windows), "windows")
	}
}

func BenchmarkHotSpot(b *testing.B) { benchHotSpot(b, 8) }

// lossyFaults is bench/'s uniform_lossy_512 fault plan: 1 % of data frames
// dropped, 1 % of acknowledgments dropped and 1 % of data frames duplicated.
var lossyFaults = []model.FaultRule{
	model.NewFault(model.FaultDrop, model.FrameData, 0.01),
	model.NewFault(model.FaultDrop, model.FrameFcAck, 0.01),
	model.NewFault(model.FaultDup, model.FrameData, 0.01),
}

// benchUniformLossy is bench/'s uniform_lossy_512 shape, the one job that
// runs the recovery path: 512 nodes, 1 KB uniform traffic on one lane under
// go-back-n with lossyFaults (seed 1).
func benchUniformLossy(b *testing.B, msgs int) {
	b.ReportAllocs()
	cfg := jobShape("random").TrafficConfig
	cfg.Msgs = msgs
	cfg.GoBackN = true
	cfg.Faults = lossyFaults
	cfg.FaultSeed = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.TorusTraffic(cfg)
		if len(r.Errors) > 0 {
			b.Fatalf("lossy run failed: %s", r.Errors[0])
		}
		b.ReportMetric(float64(r.FinishPs)/1e6, "sim_us")
		b.ReportMetric(float64(r.FaultStats.Recovered), "recovered")
	}
}

func BenchmarkUniformLossy(b *testing.B) { benchUniformLossy(b, 32) }

// lossySetup is bench/'s uniform_lossy_512 set-up probe: the 8³ torus on one
// lane under go-back-n with the given fault plan (seed 1; none when faults is
// empty), one no-op process on every node, run to quiescence.
func lossySetup(faults []model.FaultRule) *machine.Machine {
	p := model.Defaults()
	if len(faults) > 0 {
		p.Faults, p.FaultSeed = faults, 1
	}
	tp, err := topo.XT3Torus(8, 8, 8)
	if err != nil {
		panic(err)
	}
	m := machine.NewSharded(p, tp, 1)
	m.EnableGoBackN()
	for id := 0; id < tp.Nodes(); id++ {
		if _, err := m.Spawn(topo.NodeID(id), "noop", machine.Generic, func(*machine.App) {}); err != nil {
			panic(err)
		}
	}
	m.Run()
	return m
}

func benchLossySetup(b *testing.B, faults []model.FaultRule) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lossySetup(faults)
	}
}

// BenchmarkLossySetup builds bench/'s lossy machine with its fault plan and
// BenchmarkLossySetupBare the same machine without one: the difference is
// what the fault planes cost the set-up.
func BenchmarkLossySetup(b *testing.B)     { benchLossySetup(b, lossyFaults) }
func BenchmarkLossySetupBare(b *testing.B) { benchLossySetup(b, nil) }

// BenchmarkAblationInlineOptimization removes the ≤12-byte
// payload-in-header path (§6) and reports the small-message cost.
func BenchmarkAblationInlineOptimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.AblationInline(model.Defaults())
		b.ReportMetric(at(a.With, 8).Latency.Micros(), "with_us")
		b.ReportMetric(at(a.Without, 8).Latency.Micros(), "without_us")
	}
}

// BenchmarkAblationInterruptCoalescing removes the batch-drain interrupt
// handler (§4.1) and reports the interrupt inflation under streaming.
func BenchmarkAblationInterruptCoalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.AblationCoalescing(model.Defaults())
		b.ReportMetric(float64(a.IrqWith), "irq_with")
		b.ReportMetric(float64(a.IrqWithout), "irq_without")
	}
}

// BenchmarkAblationRxFIFOSize shrinks the receive FIFO to 2 KB and reports
// the mid-size latency penalty from early sender stalls.
func BenchmarkAblationRxFIFOSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := experiments.AblationRxFIFO(model.Defaults())
		b.ReportMetric(at(a.Big, 8192).Latency.Micros(), "fifo16K_us")
		b.ReportMetric(at(a.Small, 8192).Latency.Micros(), "fifo2K_us")
	}
}
