package fw

import (
	"fmt"
	"testing"
)

// Test hooks for white-box assertions.

// SegsInRange exposes the DMA segment computation.
func (n *NIC) SegsInRange(buf Buffer, off, nbytes int) int { return n.segsInRange(buf, off, nbytes) }

// TxQueueLen exposes the TX pending list depth.
func (n *NIC) TxQueueLen() int { return n.txq.len() }

// SourceCount exposes the active source table size.
func (n *NIC) SourceCount() int { return len(n.sources) }

// SourcesFree exposes the remaining global source-pool capacity.
func (n *NIC) SourcesFree() int { return n.sourceFree }

// freeLists lists the NIC's free lists — carriers, stubs, transmit requests
// and each process's pendings — by name, with the objects on each.
func (n *NIC) freeLists() map[string][]any {
	lists := map[string][]any{
		"txChunk":   anys(n.txcFree),
		"rxDeposit": anys(n.depFree),
		"stub":      anys(n.stubFree),
		"evPost":    anys(n.evpFree),
		"TxReq":     anys(n.txrFree),
	}
	for _, p := range n.processes() {
		lists[fmt.Sprintf("pid %d rx pending", p.ID)] = anys(p.rx.free)
		lists[fmt.Sprintf("pid %d tx pending", p.ID)] = anys(p.tx.free)
	}
	return lists
}

// FreeCount is how many objects the named free list holds ("TxReq",
// "txChunk", "evPost", "rxDeposit", "stub").
func (n *NIC) FreeCount(list string) int { return len(n.freeLists()[list]) }

func anys[T any](s []*T) []any {
	out := make([]any, len(s))
	for i, p := range s {
		out[i] = p
	}
	return out
}

func (n *NIC) processes() []*Process {
	ps := []*Process{}
	if n.generic != nil {
		ps = append(ps, n.generic)
	}
	for _, p := range n.accel {
		ps = append(ps, p)
	}
	return ps
}

// Quiescent checks what must hold of a NIC once its simulation has run dry:
// nothing waits in any queue, no transmit request is reachable from the TX
// list, a flow's unacked list or a pending, every pending ever built is back
// in its pool, and every free list holds each object once, the transmit
// requests marked free.
func (n *NIC) Quiescent() error {
	if n.txBusy || n.txq.len() > 0 || n.handlers.len() > 0 || n.gbnTimers.len() > 0 {
		return fmt.Errorf("work left: tx busy %v, %d transmits, %d handlers, %d timers",
			n.txBusy, n.txq.len(), n.handlers.len(), n.gbnTimers.len())
	}
	if len(n.streams) > 0 || len(n.dead) > 0 {
		return fmt.Errorf("%d receive streams open, %d draining", len(n.streams), len(n.dead))
	}
	for _, q := range [][]*TxReq{n.txq.buf[:cap(n.txq.buf)], n.gbnResend[:cap(n.gbnResend)]} {
		for _, req := range q {
			if req != nil {
				return fmt.Errorf("transmit request %p left in a drained queue's array", req)
			}
		}
	}
	for nid, src := range n.sources {
		if len(src.unacked) > 0 || src.timerArmed {
			return fmt.Errorf("flow to %d: %d unacked, timer armed %v", nid, len(src.unacked), src.timerArmed)
		}
		for _, req := range src.unacked[:cap(src.unacked)] {
			if req != nil {
				return fmt.Errorf("flow to %d: transmit request %p left in the emptied unacked list's array", nid, req)
			}
		}
	}
	for _, p := range n.processes() {
		if p.cmds.len() > 0 || p.posted != 0 {
			return fmt.Errorf("pid %d: %d mailbox commands left", p.ID, p.cmds.len())
		}
		for name, q := range map[string]*pendPool{"rx": &p.rx, "tx": &p.tx} {
			if len(q.free) != q.total-q.fresh {
				return fmt.Errorf("pid %d: %d of the %d %s pendings built are in the pool",
					p.ID, len(q.free), q.total-q.fresh, name)
			}
			for _, pd := range q.free {
				if pd.req != nil || pd.msg != nil || pd.ctx != nil {
					return fmt.Errorf("pid %d: free %s pending %p still refers to its message", p.ID, name, pd)
				}
			}
		}
	}
	for name, objs := range n.freeLists() {
		once := map[any]bool{}
		for _, o := range objs {
			if once[o] {
				return fmt.Errorf("%s %p is on its free list twice", name, o)
			}
			once[o] = true
		}
	}
	for _, req := range n.txrFree {
		if req.state != txFree {
			return fmt.Errorf("transmit request %p on the free list while %v", req, req.state)
		}
	}
	return nil
}

// Conservation is the check that every carrier comes back, once, over two
// waves of traffic on the same NICs: Conserve, when the first wave has run
// dry, requires every NIC Quiescent and notes what is on its free lists;
// Check, when the second has, requires them Quiescent again and everything
// noted still on its list — the second wave took its carriers from those
// lists, so one it failed to return is a hole in them. A list that must have
// been used and is empty (a carrier nothing returns) fails Conserve.
type Conservation struct {
	nics   []*NIC
	before []map[string][]any
}

func Conserve(t testing.TB, nics ...*NIC) *Conservation {
	t.Helper()
	c := &Conservation{nics: nics}
	c.quiescent(t, "first")
	for i, n := range nics {
		lists := n.freeLists()
		c.before = append(c.before, lists)
		if n.Stats.EventsPosted > 0 && len(lists["evPost"]) == 0 {
			t.Errorf("node %d posted %d events and no event carrier came back", i, n.Stats.EventsPosted)
		}
	}
	return c
}

func (c *Conservation) quiescent(t testing.TB, wave string) {
	t.Helper()
	for i, n := range c.nics {
		if err := n.Quiescent(); err != nil {
			t.Errorf("node %d after the %s wave: %v", i, wave, err)
		}
	}
}

func (c *Conservation) Check(t testing.TB) {
	t.Helper()
	c.quiescent(t, "second")
	for i, n := range c.nics {
		now := n.freeLists()
		for name, objs := range c.before[i] {
			free := map[any]bool{}
			for _, o := range now[name] {
				free[o] = true
			}
			for _, o := range objs {
				if !free[o] {
					t.Errorf("node %d: %s %p went out in the second wave and never came back", i, name, o)
				}
			}
		}
	}
}
