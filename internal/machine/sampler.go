package machine

import (
	"portals3/internal/fabric"
	"portals3/internal/sim"
	"portals3/internal/telemetry"
	"portals3/internal/topo"
)

// This file is the machine's counter-gathering loop: the Sampler
// periodically snapshots every node's counters (the firmware heartbeat
// among them) and utilizations into virtual-time series — the path the
// real Red Storm's reliability network provided — feeding the machine's
// telemetry registry for export. Liveness is not its job: a node that
// dies files its own report (installFailureHandler).
//
// The sampler is lane-local: ticks fire through Machine.every — on a
// sharded machine at the kernel's canonical barrier times, where every
// lane's clock agrees and the lane workers have joined, so the coordinator
// may read any node's counters race-free. Per-node series land in the
// owning lane's telemetry instance; the fabric aggregates are recorded as
// per-lane partials that telemetry.Merged sums pointwise (samples share
// timestamps across lanes by construction), so the merged export is
// byte-identical at every shard count.

// nodeSeries caches one node's series pointers so a tick does no map
// lookups beyond discovering newly built nodes.
type nodeSeries struct {
	heartbeat  *telemetry.Series
	interrupts *telemetry.Series
	coalesced  *telemetry.Series
	headersRx  *telemetry.Series
	msgsTx     *telemetry.Series
	events     *telemetry.Series
	ppcBusy    *telemetry.Series
	htRdBusy   *telemetry.Series
	htWrBusy   *telemetry.Series
	sramUsed   *telemetry.Series
	rxWaits    *telemetry.Series

	// Firmware occupancy: pool frees as series, worst-case watermarks as
	// gauges (a watermark is a single monotone value, not a time series).
	rxPendFree *telemetry.Series
	txPendFree *telemetry.Series
	srcFree    *telemetry.Series
	evqDepth   *telemetry.Series
	rxPendLow  *telemetry.Gauge
	txPendLow  *telemetry.Gauge
	srcLow     *telemetry.Gauge
	evqHigh    *telemetry.Gauge
}

// laneFab caches one lane's fabric-aggregate series.
type laneFab struct {
	messages  *telemetry.Series
	chunks    *telemetry.Series
	delivered *telemetry.Series
	retries   *telemetry.Series
}

// Sampler is a running virtual-time stats sampler.
type Sampler struct {
	m      *Machine
	period sim.Time
	nodes  map[topo.NodeID]*nodeSeries

	// Fabric aggregates, one entry per lane (partials that sum pointwise
	// under telemetry.Merged).
	fabs []laneFab

	// Simulator internals — classic machine only. Per-lane event counts
	// depend on the node partition, so a sharded machine records
	// kernel_windows_total (shard-invariant; see sim.Kernel) instead.
	simFired    *telemetry.Series
	simPending  *telemetry.Series
	kernWindows *telemetry.Series

	// lastAt dedupes the final quiesce-time sample against a tick that
	// already fired at the same instant (series timestamps stay strictly
	// increasing, which tests pin).
	lastAt sim.Time
	took   bool

	// closing marks the final quiesce-time sample: link meters are flushed
	// (window ends when the link went idle) instead of sampled (window
	// diluted across the drain). Set by Machine.Run.
	closing bool

	// Samples counts ticks taken, for tests and reports.
	Samples int
}

// StartSampler begins periodic sampling of every node's firmware, kernel
// and chip counters (plus fabric, link-contention and simulator stats)
// into telemetry time series, every period of simulated time. Telemetry is
// enabled if it was not already.
//
// The sampler self-terminates (Machine.every), so Machine.Run still
// returns, with a final sample taken at quiesce time.
func (m *Machine) StartSampler(period sim.Time) *Sampler {
	if m.sampler != nil {
		return m.sampler
	}
	tel0 := m.EnableTelemetry()
	sp := &Sampler{m: m, period: period, nodes: make(map[topo.NodeID]*nodeSeries)}
	m.sampler = sp
	sp.fabs = make([]laneFab, len(m.lanes))
	for i, ln := range m.lanes {
		sp.fabs[i] = bindFab(ln.tel)
	}
	if m.kern != nil {
		sp.kernWindows = tel0.SeriesFor("kernel_windows_total")
	} else {
		sp.simFired = tel0.SeriesFor("sim_events_fired_total")
		sp.simPending = tel0.SeriesFor("sim_events_pending")
	}
	m.every(period, sp.sampleAt)
	return sp
}

// bindFab creates one telemetry instance's fabric-aggregate series.
func bindFab(tel *telemetry.Telemetry) laneFab {
	return laneFab{
		messages:  tel.SeriesFor("fabric_messages_total"),
		chunks:    tel.SeriesFor("fabric_chunks_total"),
		delivered: tel.SeriesFor("fabric_delivered_total"),
		retries:   tel.SeriesFor("fabric_link_retries_total"),
	}
}

// sampleAt appends one point to every series at the given canonical time
// (a tick time, or the quiesce time for the closing sample).
func (sp *Sampler) sampleAt(now sim.Time) {
	if sp.took && now == sp.lastAt {
		return
	}
	sp.took = true
	sp.lastAt = now
	m := sp.m
	sp.Samples++
	for _, n := range m.nodes {
		if n == nil {
			continue
		}
		ns := sp.nodes[n.ID]
		if ns == nil {
			ns = sp.bindNode(n)
		}
		ns.heartbeat.Append(now, float64(n.NIC.Heartbeat))
		ns.interrupts.Append(now, float64(n.Kernel.Interrupts))
		ns.coalesced.Append(now, float64(n.Kernel.Coalesced))
		ns.headersRx.Append(now, float64(n.NIC.Stats.HeadersRx))
		ns.msgsTx.Append(now, float64(n.NIC.Stats.MsgsTx))
		ns.events.Append(now, float64(n.NIC.Stats.EventsPosted))
		ns.ppcBusy.Append(now, n.Chip.CPU.Utilization())
		ns.htRdBusy.Append(now, n.Chip.HTRead.Utilization())
		ns.htWrBusy.Append(now, n.Chip.HTWrite.Utilization())
		ns.sramUsed.Append(now, float64(n.Chip.SRAM.Used()))
		ns.rxWaits.Append(now, float64(n.Chip.RxFIFO.Waits))
		occ := n.NIC.Occupancy()
		ns.rxPendFree.Append(now, float64(occ.RxPendFree))
		ns.txPendFree.Append(now, float64(occ.TxPendFree))
		ns.srcFree.Append(now, float64(occ.SourcesFree))
		ns.evqDepth.Append(now, float64(n.Generic.EvQueueDepth()))
		ns.rxPendLow.Set(float64(occ.RxPendLow))
		ns.txPendLow.Set(float64(occ.TxPendLow))
		ns.srcLow.Set(float64(occ.SourcesLow))
		ns.evqHigh.Set(float64(n.Generic.EvQueueHigh()))
	}
	for i, ln := range m.lanes {
		sp.fabs[i].append(now, ln.fab.Stats)
		for _, mt := range ln.fab.Meters() {
			sp.meterAt(mt, ln.tel, now)
		}
	}
	if sp.kernWindows != nil {
		sp.kernWindows.Append(now, float64(m.kern.Windows))
		return
	}
	sp.simFired.Append(now, float64(m.S.Fired))
	sp.simPending.Append(now, float64(m.S.Pending()))
}

// meterAt advances one link meter: a periodic tick samples the window
// ending now; the closing quiesce sample flushes instead, ending the final
// window at the instant the link went idle.
func (sp *Sampler) meterAt(mt *fabric.LinkMeter, tel *telemetry.Telemetry, now sim.Time) {
	if sp.closing {
		mt.Flush(tel, now)
		return
	}
	mt.Sample(tel, now)
}

// append records one lane's fabric counters at time now.
func (lf *laneFab) append(now sim.Time, st fabric.Stats) {
	lf.messages.Append(now, float64(st.Messages))
	lf.chunks.Append(now, float64(st.Chunks))
	lf.delivered.Append(now, float64(st.Delivered))
	lf.retries.Append(now, float64(st.LinkRetries))
}

// bindNode creates the series set for a newly seen node, in the node's
// lane-local telemetry instance.
func (sp *Sampler) bindNode(n *Node) *nodeSeries {
	tel := n.lane.tel
	nl := telemetry.NodeLabel(int(n.ID))
	ns := &nodeSeries{
		heartbeat:  tel.SeriesFor("node_fw_heartbeat_total", nl),
		interrupts: tel.SeriesFor("node_host_interrupts_total", nl),
		coalesced:  tel.SeriesFor("node_host_irq_coalesced_total", nl),
		headersRx:  tel.SeriesFor("node_fw_headers_rx_total", nl),
		msgsTx:     tel.SeriesFor("node_fw_msgs_tx_total", nl),
		events:     tel.SeriesFor("node_fw_events_posted_total", nl),
		ppcBusy:    tel.SeriesFor("node_ppc_utilization", nl),
		htRdBusy:   tel.SeriesFor("node_ht_read_utilization", nl),
		htWrBusy:   tel.SeriesFor("node_ht_write_utilization", nl),
		sramUsed:   tel.SeriesFor("node_sram_used_bytes", nl),
		rxWaits:    tel.SeriesFor("node_rx_fifo_waits_total", nl),

		rxPendFree: tel.SeriesFor("node_fw_rx_pendings_free", nl),
		txPendFree: tel.SeriesFor("node_fw_tx_pendings_free", nl),
		srcFree:    tel.SeriesFor("node_fw_sources_free", nl),
		evqDepth:   tel.SeriesFor("node_evq_depth", nl),
		rxPendLow:  tel.Reg.Gauge("node_fw_rx_pendings_low", nl),
		txPendLow:  tel.Reg.Gauge("node_fw_tx_pendings_low", nl),
		srcLow:     tel.Reg.Gauge("node_fw_sources_low", nl),
		evqHigh:    tel.Reg.Gauge("node_evq_high", nl),
	}
	sp.nodes[n.ID] = ns
	return ns
}
