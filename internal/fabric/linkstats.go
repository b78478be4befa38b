// Link-contention metering: the per-link observability plane over the
// fabric's serial link servers. The paper's performance story is about
// where microseconds go; at machine scale the answer is often "queued
// behind someone else's traffic on a shared link", which the aggregate
// counters cannot show. A LinkMeter tracks, per directed link:
//
//   - head-of-line blocking time — how long each reservation waited behind
//     earlier traffic before its own occupancy began, accumulated on the
//     link and also attributed to the blocked message's hop count
//     (fabric_link_hol_wait_by_hops_ps), connecting contention to the
//     latency-under-load curves per distance;
//   - the queue-depth high-water mark — the most reservations outstanding
//     (queued or in service) behind the link at any admission;
//   - windowed utilization — the busy-time fraction per sample window,
//     generalizing the end-of-run Fabric.LinkUtilization to a time series.
//
// Meters exist only while telemetry is enabled (one pointer test per
// reservation otherwise) and live on the lane that owns the link, so the
// hot path stays single-goroutine and lock-free; the machine's sampler reads them
// at canonical barrier ticks and the per-lane series/gauges merge like
// every other telemetry artifact (each directed link is owned by exactly
// one lane).
package fabric

import (
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
)

// LinkMeter is the contention state of one directed link.
type LinkMeter struct {
	Node topo.NodeID
	Dir  topo.Dir
	sv   *sim.Server

	// WaitPs accumulates head-of-line blocking: virtual time reservations
	// spent waiting behind earlier traffic before their occupancy began.
	WaitPs sim.Time
	// QueueHigh is the high-water mark of reservations outstanding (queued
	// or in service) at any admission.
	QueueHigh int

	// done queues the outstanding completion times; entries at or before
	// an arriving reservation's start have drained and pop off. Steady
	// state allocates nothing once the queue has grown to the link's peak
	// backlog.
	done sim.FIFO[sim.Time]

	// Sampler state: the busy integral at the previous sample, the
	// instruments bound on first sample, and whether Flush already closed
	// the final window (so the quiesce path is idempotent).
	lastBusy sim.Time
	lastT    sim.Time
	closed   bool
	util     *telemetry.Series
	waitG    *telemetry.Gauge
	depthG   *telemetry.Gauge
}

// note records one reservation: it arrived (was free to start) at arrive,
// found the link free at free, and will complete at done.
func (mt *LinkMeter) note(arrive, free, done sim.Time) {
	if w := free - arrive; w > 0 {
		mt.WaitPs += w
	}
	for mt.done.Len() > 0 && mt.done.First() <= arrive {
		mt.done.Pop()
	}
	mt.done.Push(done)
	if n := mt.done.Len(); n > mt.QueueHigh {
		mt.QueueHigh = n
	}
}

// Sample appends one point to the meter's utilization series and refreshes
// its watermark gauges, binding the instruments on first use. Called by the
// machine's sampler with the canonical sample time; tel is the lane's
// telemetry instance.
func (mt *LinkMeter) Sample(tel *telemetry.Telemetry, now sim.Time) {
	mt.bind(tel)
	mt.closed = false
	mt.appendWindow(now)
	mt.waitG.Set(float64(mt.WaitPs))
	mt.depthG.Set(float64(mt.QueueHigh))
}

// Flush closes the meter's final utilization window at quiescence. A plain
// Sample at quiesce time would divide the last window's busy integral by
// the whole drain — including the idle tail after the link's final
// reservation completed — so a link saturated until shortly before the end
// of the run would read near-idle. Flush instead ends the window at the
// instant the link actually went idle (Server.BusyUntil, clamped to now),
// reporting the active portion undiluted; it also binds and refreshes the
// instruments, so meters are exported even on runs that enabled telemetry
// without ever starting the sampler. Idempotent until the next Sample.
func (mt *LinkMeter) Flush(tel *telemetry.Telemetry, now sim.Time) {
	if mt.closed || now <= mt.lastT {
		return
	}
	mt.bind(tel)
	end := mt.sv.BusyUntil()
	if end <= mt.lastT || end > now {
		end = now
	}
	mt.appendWindow(end)
	mt.waitG.Set(float64(mt.WaitPs))
	mt.depthG.Set(float64(mt.QueueHigh))
	mt.closed = true
}

// bind creates the meter's instruments on first use.
func (mt *LinkMeter) bind(tel *telemetry.Telemetry) {
	if mt.util != nil {
		return
	}
	dl := telemetry.DirLabel(mt.Dir.String())
	nl := telemetry.NodeLabel(int(mt.Node))
	mt.util = tel.SeriesFor("fabric_link_utilization", dl, nl)
	mt.waitG = tel.Reg.Gauge("fabric_link_hol_wait_ps", dl, nl)
	mt.depthG = tel.Reg.Gauge("fabric_link_queue_high", dl, nl)
}

// appendWindow appends the utilization point for the window (lastT, end].
func (mt *LinkMeter) appendWindow(end sim.Time) {
	busy := mt.sv.BusyBy(end)
	var u float64
	if dt := end - mt.lastT; dt > 0 {
		u = float64(busy-mt.lastBusy) / float64(dt)
		if u < 0 {
			u = 0
		} else if u > 1 {
			u = 1
		}
	}
	mt.util.Append(end, u)
	mt.lastBusy = busy
	mt.lastT = end
}

// Utilization returns the link's lifetime busy fraction at time now.
func (mt *LinkMeter) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(mt.sv.BusyBy(now)) / float64(now)
}

// meter returns (creating on first use) the contention meter for the
// directed link (node, d) backed by server sv.
func (f *Fabric) meter(node topo.NodeID, d topo.Dir, sv *sim.Server) *LinkMeter {
	k := linkKey{node, d}
	if mt, ok := f.meters[k]; ok {
		return mt
	}
	if f.meters == nil {
		f.meters = make(map[linkKey]*LinkMeter)
	}
	mt := &LinkMeter{Node: node, Dir: d, sv: sv}
	f.meters[k] = mt
	f.meterList = append(f.meterList, mt)
	return mt
}

// Meters returns every live link meter in creation order — first
// reservation order on this fabric's lane, which is deterministic. Empty
// until telemetry is enabled.
func (f *Fabric) Meters() []*LinkMeter { return f.meterList }

// holHist returns (caching) the head-of-line blocking histogram for
// messages routed hops links far.
func (f *Fabric) holHist(hops int) *telemetry.Histogram {
	for hops >= len(f.holByHops) {
		f.holByHops = append(f.holByHops, nil)
	}
	if f.holByHops[hops] == nil {
		f.holByHops[hops] = f.Tel.Reg.Histogram("fabric_link_hol_wait_by_hops_ps", telemetry.HopsLabel(hops))
	}
	return f.holByHops[hops]
}

// linkReserve reserves the directed link leaving node in direction d for
// occupancy starting no earlier than t and returns the completion time.
// With telemetry enabled it also meters contention: every reservation
// observes its head-of-line wait (zero included, so counts equal
// traversals) into the hop-count histogram, accumulates it on the link,
// and updates the queue-depth watermark.
func (f *Fabric) linkReserve(node topo.NodeID, d topo.Dir, t, occupancy sim.Time, hops int) sim.Time {
	sv := f.link(node, d)
	if f.Tel == nil {
		return sv.SubmitAfter(t, occupancy, nil)
	}
	arrive := t
	if now := f.S.Now(); arrive < now {
		arrive = now
	}
	wait := sv.FreeAt() - arrive
	if wait < 0 {
		wait = 0
	}
	done := sv.SubmitAfter(t, occupancy, nil)
	f.meter(node, d, sv).note(arrive, arrive+wait, done)
	f.holHist(hops).Observe(int64(wait))
	return done
}
