package nal

import (
	"portals3/internal/core"
	"portals3/internal/fw"
	"portals3/internal/model"
	"portals3/internal/sim"
	"portals3/internal/topo"
	"portals3/internal/wire"
)

// AccelDriver is the accelerated-mode implementation of §3.3: the Portals
// library functionality — including matching — runs on the SeaStar's
// PowerPC. Arriving messages are processed immediately instead of waiting
// for the host, commands are posted from user space without system calls,
// and no interrupts are raised anywhere on the data path; completion events
// are written directly into process space and discovered by polling.
//
// The same core.Lib state machine runs here as in the generic driver — the
// paper's shared-library design — but its costs are charged to the 500 MHz
// embedded processor instead of the 2 GHz Opteron.
type AccelDriver struct {
	S    *sim.Sim
	P    *model.Params
	NIC  *fw.NIC
	Topo *topo.Topology
	Pid  uint32

	lib *core.Lib
	txBacklog
}

// NewAccel registers an accelerated mailbox for pid (subject to the NIC's
// accelerated-client limit) and builds its NIC-resident library.
func NewAccel(nic *fw.NIC, tp *topo.Topology, p *model.Params, pid, uid uint32,
	limits core.Limits, pendings int) (*AccelDriver, error) {
	d := &AccelDriver{S: nic.S, P: p, NIC: nic, Topo: tp, Pid: pid}
	if _, err := nic.RegisterAccel(pid, pendings, d.fwEvent); err != nil {
		return nil, err
	}
	d.lib = core.NewLib(nic.S, core.ProcessID{Nid: uint32(nic.Node), Pid: pid}, uid, limits, d)
	return d, nil
}

// Lib returns the process's library (lives on the NIC in this mode).
func (d *AccelDriver) Lib() *core.Lib { return d.lib }

// Send implements core.Backend: post the transmit command directly to the
// dedicated firmware mailbox.
func (d *AccelDriver) Send(req *core.SendReq) {
	tx := d.NIC.AllocTxReq()
	tx.Pid = d.Pid
	tx.Hdr = req.Hdr
	tx.Off = req.Off
	tx.Len = req.Len
	if req.Region != nil {
		tx.Buf = req.Region
	}
	if req.RxOp != nil || req.Hdr.Type == wire.TypePut {
		tx.Ctx = req // finished at TX_DONE (sendDone)
	}
	d.submit(d.NIC, tx)
}

// Distance implements core.Backend.
func (d *AccelDriver) Distance(nid uint32) int {
	return d.Topo.Hops(d.NIC.Node, topo.NodeID(nid))
}

// fwEvent handles firmware events in NIC context. Matching runs here, on
// the PowerPC; Portals completion events become visible to the application
// after one HT write, with no interrupt.
func (d *AccelDriver) fwEvent(ev fw.Event) {
	switch ev.Kind {
	case fw.EvNewHeader:
		d.handleHeader(ev)
	case fw.EvRxDone:
		if op, _ := ev.Pending.Ctx().(*core.RxOp); op != nil {
			d.visible(func() {
				if ack := d.lib.Delivered(op, ev.OK); ack != nil {
					d.Send(ack)
				}
			})
		}
		ev.Pending.ReleaseLocal()
	case fw.EvTxDone:
		if req, _ := ev.Tx.Ctx.(*core.SendReq); req != nil {
			ok := ev.OK
			d.visible(func() { sendDone(d.lib, req, ok) })
		}
		d.retry(d.NIC)
		d.NIC.RecycleTxReq(ev.Tx)
	}
}

// handleHeader performs the offloaded Portals matching: charge the match
// walk to the PowerPC, then program the RX DMA engine (or the reply)
// without any host involvement. The library is locked across the match —
// the same serialization the kernel provides in generic mode, here
// mirroring the firmware mailbox ordering that makes user-level commands
// and NIC-side matching mutually exclusive.
func (d *AccelDriver) handleHeader(ev fw.Event) {
	p := ev.Pending
	hdr := p.Hdr
	d.lib.Lock()
	op := d.lib.Receive(&hdr)
	if op == nil { // acknowledgment
		d.lib.Unlock()
		d.visible(func() {})
		p.ReleaseLocal()
		return
	}
	matchCycles := d.P.HostMatchBaseCycles + int64(op.Walked)*d.P.HostMatchPerME
	d.NIC.Chip.Exec(matchCycles, func() {
		defer d.lib.Unlock()
		switch {
		case op.Drop:
			if !p.Complete() {
				p.DiscardLocal()
			}
			p.ReleaseLocal()
		case op.Reply != nil:
			d.Send(op.Reply)
			p.ReleaseLocal()
		case p.Complete():
			mlen := op.MLen
			if mlen > len(p.Inline) {
				mlen = len(p.Inline)
			}
			if mlen > 0 {
				op.Region.WriteAt(op.Off, p.Inline[:mlen])
			}
			d.visible(func() {
				if ack := d.lib.Delivered(op, ev.OK); ack != nil {
					d.Send(ack)
				}
			})
			p.ReleaseLocal()
		default:
			p.ProgramRx(op.Region, op.Off, op.MLen, op)
		}
	})
}

// visible defers fn by one HT event write: Portals events the firmware
// generates become observable to the polling application only once they
// land in host memory.
func (d *AccelDriver) visible(fn func()) {
	d.NIC.Chip.WriteHost(32, fn)
}
