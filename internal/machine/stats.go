package machine

import (
	"fmt"
	"strings"

	"portals3/internal/fabric"
	"portals3/internal/fw"
	"portals3/internal/topo"
)

// NodeStats is one node's counter snapshot: what the real machine's
// reliability network would gather from its heartbeat/telemetry path.
type NodeStats struct {
	Node       topo.NodeID
	OS         string
	Interrupts uint64 // interrupts taken by the host
	Coalesced  uint64 // interrupt raises absorbed by an active handler
	Firmware   fw.Stats
	Heartbeat  uint64
	SRAMUsed   int64
	SRAMFree   int64
	PPCBusy    float64 // utilization of the embedded processor
	HTReadBusy float64
	HTWrBusy   float64
}

// Stats is a whole-machine snapshot.
type Stats struct {
	Nodes  []NodeStats
	Fabric fabric.Stats
}

// Stats snapshots every instantiated node plus the fabric counters.
func (m *Machine) Stats() Stats {
	var out Stats
	for _, n := range m.nodes {
		if n == nil {
			continue
		}
		out.Nodes = append(out.Nodes, NodeStats{
			Node:       n.ID,
			OS:         n.Kernel.Kind.String(),
			Interrupts: n.Kernel.Interrupts,
			Coalesced:  n.Kernel.Coalesced,
			Firmware:   n.NIC.Stats,
			Heartbeat:  n.NIC.Heartbeat,
			SRAMUsed:   n.Chip.SRAM.Used(),
			SRAMFree:   n.Chip.SRAM.Free(),
			PPCBusy:    n.Chip.CPU.Utilization(),
			HTReadBusy: n.Chip.HTRead.Utilization(),
			HTWrBusy:   n.Chip.HTWrite.Utilization(),
		})
	}
	// Injection counts land on the sender's lane and deliveries on the
	// receiver's, so the sums are independent of the partition.
	for _, ln := range m.lanes {
		st := ln.fab.Stats
		out.Fabric.Messages += st.Messages
		out.Fabric.Chunks += st.Chunks
		out.Fabric.LinkRetries += st.LinkRetries
		out.Fabric.Delivered += st.Delivered
	}
	return out
}

// String renders the snapshot as an aligned table.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%6s %-10s %6s %6s %8s %8s %8s %7s %7s %7s\n",
		"node", "os", "irq", "coal", "hdrs-rx", "msgs-tx", "events", "ppc%", "htrd%", "htwr%")
	for _, n := range s.Nodes {
		fmt.Fprintf(&sb, "%6d %-10s %6d %6d %8d %8d %8d %6.1f%% %6.1f%% %6.1f%%\n",
			n.Node, n.OS, n.Interrupts, n.Coalesced,
			n.Firmware.HeadersRx, n.Firmware.MsgsTx, n.Firmware.EventsPosted,
			100*n.PPCBusy, 100*n.HTReadBusy, 100*n.HTWrBusy)
	}
	fmt.Fprintf(&sb, "fabric: %d messages, %d chunks, %d link retries, %d delivered\n",
		s.Fabric.Messages, s.Fabric.Chunks, s.Fabric.LinkRetries, s.Fabric.Delivered)
	return sb.String()
}
