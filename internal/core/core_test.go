package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"portals3/internal/sim"
	"portals3/internal/wire"
)

// loopNet is a zero-latency NAL stand-in: it delivers every SendReq
// synchronously to the destination library, moving real bytes. It lets the
// Portals semantics be tested in isolation from the hardware model.
type loopNet struct {
	s    *sim.Sim
	libs map[ProcessID]*Lib
	// failNext marks the next delivery as a CRC failure.
	failNext bool
	// sent records every request for inspection.
	sent []*SendReq
}

func newLoopNet() *loopNet {
	return &loopNet{s: sim.New(), libs: make(map[ProcessID]*Lib)}
}

type loopBackend struct {
	net *loopNet
	lib *Lib // set after NewLib
}

func (b *loopBackend) Distance(nid uint32) int { return 1 }

func (b *loopBackend) Send(req *SendReq) {
	b.net.sent = append(b.net.sent, req)
	b.net.deliver(b.lib, req)
}

func (n *loopNet) addLib(id ProcessID) *Lib {
	be := &loopBackend{net: n}
	l := NewLib(n.s, id, 1000+id.Pid, Limits{}, be)
	be.lib = l
	n.libs[id] = l
	return l
}

// deliver plays the NAL driver role for one message.
func (n *loopNet) deliver(src *Lib, req *SendReq) {
	dst, ok := n.libs[ProcessID{req.Hdr.DstNid, req.Hdr.DstPid}]
	if !ok {
		return // undeliverable: vanish, like a real network drop
	}
	failed := n.failNext
	n.failNext = false
	switch req.Hdr.Type {
	case wire.TypePut:
		op := dst.ReceivePut(&req.Hdr)
		if !op.Drop {
			buf := make([]byte, op.MLen)
			req.Region.ReadAt(req.Off, buf)
			if failed {
				buf[0] ^= 0xFF
			}
			op.Region.WriteAt(op.Off, buf)
			if ack := dst.Delivered(op, !failed); ack != nil {
				n.deliver(dst, ack)
			}
		}
		src.SendDone(req, true)
	case wire.TypeGet:
		op := dst.ReceiveGet(&req.Hdr)
		if !op.Drop {
			n.deliver(dst, op.Reply)
			dst.ReplySent(op)
		}
	case wire.TypeReply:
		op := dst.ReceiveReply(&req.Hdr)
		if !op.Drop {
			buf := make([]byte, op.MLen)
			req.Region.ReadAt(req.Off, buf)
			op.Region.WriteAt(op.Off, buf)
			dst.Delivered(op, !failed)
		}
	case wire.TypeAck:
		dst.ReceiveAck(&req.Hdr)
	}
}

// pair builds two processes on nodes 0 and 1.
func pair(t *testing.T) (*loopNet, *Lib, *Lib) {
	t.Helper()
	n := newLoopNet()
	a := n.addLib(ProcessID{0, 1})
	b := n.addLib(ProcessID{1, 1})
	return n, a, b
}

// postedTypes drains an EQ into a list of event types.
func postedTypes(t *testing.T, l *Lib, eq EQHandle) []EventType {
	t.Helper()
	var out []EventType
	for {
		ev, err := l.EQGet(eq)
		if err == ErrEQEmpty {
			return out
		}
		if err != nil && err != ErrEQDropped {
			t.Fatalf("EQGet: %v", err)
		}
		out = append(out, ev.Type)
		if err == ErrEQDropped && ev.Type == 0 && ev.Sequence == 0 {
			return out
		}
	}
}

// target sets up the standard receive side: an ME matching bits on ptl 4
// with an MD over a fresh buffer. Returns the buffer, eq and md handle.
func target(t *testing.T, l *Lib, size int, bits uint64, opts MDOptions) ([]byte, EQHandle, MDHandle) {
	t.Helper()
	eq, err := l.EQAlloc(64)
	if err != nil {
		t.Fatal(err)
	}
	meh, err := l.MEAttach(4, ProcessID{NidAny, PidAny}, bits, 0, Retain, After)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	mdh, err := l.MDAttach(meh, MDesc{Region: SliceRegion(buf), Threshold: ThresholdInfinite, Options: opts, EQ: eq}, Retain)
	if err != nil {
		t.Fatal(err)
	}
	return buf, eq, mdh
}

// sender binds a free-floating MD over data with an EQ.
func sender(t *testing.T, l *Lib, data []byte) (EQHandle, MDHandle) {
	t.Helper()
	eq, err := l.EQAlloc(64)
	if err != nil {
		t.Fatal(err)
	}
	mdh, err := l.MDBind(MDesc{Region: SliceRegion(data), Threshold: ThresholdInfinite, EQ: eq})
	if err != nil {
		t.Fatal(err)
	}
	return eq, mdh
}

func TestPutMovesBytesAndPostsEvents(t *testing.T) {
	_, a, b := pair(t)
	dst, beq, _ := target(t, b, 64, 0x42, MDOpPut)
	src := []byte("the portals message body")
	aeq, amd := sender(t, a, src)

	if err := a.Put(amd, NoAck, b.ID(), 4, 0x42, 0, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:len(src)], src) {
		t.Errorf("payload mismatch: %q", dst[:len(src)])
	}
	got := postedTypes(t, a, aeq)
	if len(got) != 2 || got[0] != EventSendStart || got[1] != EventSendEnd {
		t.Errorf("initiator events = %v, want [SEND_START SEND_END]", got)
	}
	ev, err := b.EQGet(beq)
	if err != nil || ev.Type != EventPutStart {
		t.Fatalf("first target event %v err %v", ev.Type, err)
	}
	ev, err = b.EQGet(beq)
	if err != nil || ev.Type != EventPutEnd {
		t.Fatalf("second target event %v err %v", ev.Type, err)
	}
	if ev.MLength != len(src) || ev.RLength != len(src) || ev.HdrData != 0xfeed {
		t.Errorf("PUT_END fields: mlen=%d rlen=%d hdr=%#x", ev.MLength, ev.RLength, ev.HdrData)
	}
	if ev.Initiator != a.ID() {
		t.Errorf("initiator = %v", ev.Initiator)
	}
	if a.Status(SRSendCount) != 1 || b.Status(SRRecvCount) != 1 {
		t.Error("status registers not updated")
	}
	if b.Status(SRRecvLength) != uint64(len(src)) {
		t.Errorf("SRRecvLength = %d", b.Status(SRRecvLength))
	}
}

func TestPutWithAck(t *testing.T) {
	_, a, b := pair(t)
	target(t, b, 64, 7, MDOpPut)
	aeq, amd := sender(t, a, make([]byte, 16))
	if err := a.Put(amd, Ack, b.ID(), 4, 7, 0, 0); err != nil {
		t.Fatal(err)
	}
	got := postedTypes(t, a, aeq)
	want := map[EventType]bool{EventSendStart: false, EventSendEnd: false, EventAck: false}
	for _, g := range got {
		want[g] = true
	}
	for ty, seen := range want {
		if !seen {
			t.Errorf("missing initiator event %v (got %v)", ty, got)
		}
	}
}

func TestAckDisableSuppressesAck(t *testing.T) {
	_, a, b := pair(t)
	target(t, b, 64, 7, MDOpPut|MDAckDisable)
	aeq, amd := sender(t, a, make([]byte, 16))
	if err := a.Put(amd, Ack, b.ID(), 4, 7, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, g := range postedTypes(t, a, aeq) {
		if g == EventAck {
			t.Error("ACK event posted despite MDAckDisable")
		}
	}
}

func TestMatchingFirstEntryWins(t *testing.T) {
	_, a, b := pair(t)
	eq, _ := b.EQAlloc(16)
	buf1, buf2 := make([]byte, 32), make([]byte, 32)
	me1, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 5, 0, Retain, After)
	b.MDAttach(me1, MDesc{Region: SliceRegion(buf1), Threshold: ThresholdInfinite, Options: MDOpPut, EQ: eq}, Retain)
	me2, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 5, 0, Retain, After)
	b.MDAttach(me2, MDesc{Region: SliceRegion(buf2), Threshold: ThresholdInfinite, Options: MDOpPut, EQ: eq}, Retain)

	_, amd := sender(t, a, []byte{9, 9, 9})
	a.Put(amd, NoAck, b.ID(), 4, 5, 0, 0)
	if buf1[0] != 9 {
		t.Error("first matching entry did not receive the message")
	}
	if buf2[0] == 9 {
		t.Error("second entry stole the message")
	}
}

func TestIgnoreBits(t *testing.T) {
	_, a, b := pair(t)
	buf, _, _ := func() ([]byte, EQHandle, MDHandle) {
		eq, _ := b.EQAlloc(16)
		meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 0xAB00, 0x00FF, Retain, After)
		buf := make([]byte, 32)
		mdh, _ := b.MDAttach(meh, MDesc{Region: SliceRegion(buf), Threshold: ThresholdInfinite, Options: MDOpPut, EQ: eq}, Retain)
		return buf, eq, mdh
	}()
	_, amd := sender(t, a, []byte{1})
	// Low byte is ignored: 0xAB37 matches 0xAB00/ignore 0x00FF.
	a.Put(amd, NoAck, b.ID(), 4, 0xAB37, 0, 0)
	if buf[0] != 1 {
		t.Error("ignore bits not honored")
	}
	// High bits differ: no match.
	before := b.DropCounts[DropNoMatch]
	a.Put(amd, NoAck, b.ID(), 4, 0xAC37, 0, 0)
	if b.DropCounts[DropNoMatch] != before+1 {
		t.Error("mismatching bits were accepted")
	}
}

func TestSourceMatching(t *testing.T) {
	n := newLoopNet()
	a := n.addLib(ProcessID{0, 1})
	b := n.addLib(ProcessID{1, 1})
	c := n.addLib(ProcessID{2, 1})
	eq, _ := b.EQAlloc(16)
	// Only process a (node 0 pid 1) may match.
	meh, _ := b.MEAttach(4, a.ID(), 1, 0, Retain, After)
	buf := make([]byte, 8)
	b.MDAttach(meh, MDesc{Region: SliceRegion(buf), Threshold: ThresholdInfinite, Options: MDOpPut, EQ: eq}, Retain)

	_, cmd := sender(t, c, []byte{5})
	c.Put(cmd, NoAck, b.ID(), 4, 1, 0, 0)
	if b.DropCounts[DropNoMatch] != 1 {
		t.Error("foreign sender was not rejected by source matching")
	}
	_, amd := sender(t, a, []byte{6})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	if buf[0] != 6 {
		t.Error("authorized sender was rejected")
	}
}

func TestACLDenies(t *testing.T) {
	_, a, b := pair(t)
	target(t, b, 32, 1, MDOpPut)
	// Replace the permissive default with an entry for a different uid.
	if err := b.ACEntry(0, 424242, ProcessID{NidAny, PidAny}, PtlIndexAny); err != nil {
		t.Fatal(err)
	}
	_, amd := sender(t, a, []byte{1})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	if b.DropCounts[DropACDenied] != 1 {
		t.Error("ACL did not deny the mismatched uid")
	}
	// Restore a permissive entry scoped to portal 4 only.
	b.ACEntry(0, UIDAny, ProcessID{NidAny, PidAny}, 4)
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	if b.Status(SRRecvCount) != 1 {
		t.Error("scoped ACL entry did not permit")
	}
}

func TestACLBadIndex(t *testing.T) {
	_, _, b := pair(t)
	if err := b.ACEntry(-1, UIDAny, ProcessID{NidAny, PidAny}, PtlIndexAny); err != ErrAcIndexInvalid {
		t.Errorf("got %v", err)
	}
	if err := b.ACEntry(9999, UIDAny, ProcessID{NidAny, PidAny}, PtlIndexAny); err != ErrAcIndexInvalid {
		t.Errorf("got %v", err)
	}
	if err := b.ACEntry(0, UIDAny, ProcessID{NidAny, PidAny}, 9999); err != ErrPtIndexInvalid {
		t.Errorf("got %v", err)
	}
}

func TestTruncation(t *testing.T) {
	_, a, b := pair(t)
	// 8-byte target, no truncate: 16-byte put drops.
	target(t, b, 8, 1, MDOpPut)
	_, amd := sender(t, a, make([]byte, 16))
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	if b.DropCounts[DropNoFit] != 1 {
		t.Error("oversized put without truncate was not dropped")
	}
	// With truncate: delivered, mlength == 8.
	buf, eq, _ := target(t, b, 8, 2, MDOpPut|MDTruncate)
	src := []byte("0123456789abcdef")
	_, amd2 := sender(t, a, src)
	a.Put(amd2, NoAck, b.ID(), 4, 2, 0, 0)
	if !bytes.Equal(buf, src[:8]) {
		t.Errorf("truncated payload wrong: %q", buf)
	}
	var end Event
	for {
		ev, err := b.EQGet(eq)
		if err != nil {
			t.Fatal("no PUT_END")
		}
		if ev.Type == EventPutEnd {
			end = ev
			break
		}
	}
	if end.MLength != 8 || end.RLength != 16 {
		t.Errorf("mlen=%d rlen=%d, want 8/16", end.MLength, end.RLength)
	}
}

func TestLocallyManagedOffsetAdvances(t *testing.T) {
	_, a, b := pair(t)
	buf, _, _ := target(t, b, 32, 1, MDOpPut)
	_, amd := sender(t, a, []byte("AAAA"))
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	_, amd2 := sender(t, a, []byte("BBBB"))
	a.Put(amd2, NoAck, b.ID(), 4, 1, 0, 0)
	if string(buf[:8]) != "AAAABBBB" {
		t.Errorf("local offset did not advance: %q", buf[:8])
	}
}

func TestRemoteManagedOffset(t *testing.T) {
	_, a, b := pair(t)
	buf, _, _ := target(t, b, 32, 1, MDOpPut|MDManageRemote)
	_, amd := sender(t, a, []byte("XY"))
	a.Put(amd, NoAck, b.ID(), 4, 1, 16, 0)
	if string(buf[16:18]) != "XY" {
		t.Errorf("remote offset ignored: %q", buf[14:20])
	}
	// Same offset again: overwrites, does not advance.
	_, amd2 := sender(t, a, []byte("ZW"))
	a.Put(amd2, NoAck, b.ID(), 4, 1, 16, 0)
	if string(buf[16:18]) != "ZW" {
		t.Errorf("remote offset rewrite failed: %q", buf[16:18])
	}
}

func TestThresholdExhaustionDrops(t *testing.T) {
	_, a, b := pair(t)
	eq, _ := b.EQAlloc(16)
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 1, 0, Retain, After)
	buf := make([]byte, 32)
	b.MDAttach(meh, MDesc{Region: SliceRegion(buf), Threshold: 1, Options: MDOpPut, EQ: eq}, Retain)

	_, amd := sender(t, a, []byte{1})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	_, amd2 := sender(t, a, []byte{2})
	a.Put(amd2, NoAck, b.ID(), 4, 1, 0, 0)
	if b.DropCounts[DropThreshold] != 1 {
		t.Errorf("threshold drops = %d, want 1", b.DropCounts[DropThreshold])
	}
}

func TestAutoUnlinkOnThreshold(t *testing.T) {
	_, a, b := pair(t)
	eq, _ := b.EQAlloc(16)
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 1, 0, UnlinkAuto, After)
	buf := make([]byte, 32)
	b.MDAttach(meh, MDesc{Region: SliceRegion(buf), Threshold: 1, Options: MDOpPut, EQ: eq}, UnlinkAuto)

	_, amd := sender(t, a, []byte{1})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	list, _ := b.MEList(4)
	if len(list) != 0 {
		t.Errorf("match list should be empty after auto unlink, has %d", len(list))
	}
	// The PUT_END event must carry the Unlinked flag.
	var sawUnlinkedEnd bool
	for {
		ev, err := b.EQGet(eq)
		if err != nil {
			break
		}
		if ev.Type == EventPutEnd && ev.Unlinked {
			sawUnlinkedEnd = true
		}
	}
	if !sawUnlinkedEnd {
		t.Error("PUT_END did not carry Unlinked")
	}
}

func TestRetainKeepsEntryLinked(t *testing.T) {
	_, a, b := pair(t)
	eq, _ := b.EQAlloc(16)
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 1, 0, Retain, After)
	buf := make([]byte, 32)
	b.MDAttach(meh, MDesc{Region: SliceRegion(buf), Threshold: 1, Options: MDOpPut, EQ: eq}, Retain)
	_, amd := sender(t, a, []byte{1})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	list, _ := b.MEList(4)
	if len(list) != 1 {
		t.Errorf("Retain descriptor should stay linked, list=%d", len(list))
	}
}

func TestMaxSizeUnlinkRule(t *testing.T) {
	_, a, b := pair(t)
	eq, _ := b.EQAlloc(16)
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 1, 0, UnlinkAuto, After)
	buf := make([]byte, 10)
	b.MDAttach(meh, MDesc{Region: SliceRegion(buf), Threshold: ThresholdInfinite,
		MaxSize: 8, Options: MDOpPut | MDMaxSize, EQ: eq}, UnlinkAuto)
	// A 4-byte put leaves 6 < MaxSize=8: the descriptor must unlink.
	_, amd := sender(t, a, make([]byte, 4))
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	list, _ := b.MEList(4)
	if len(list) != 0 {
		t.Error("max_size rule did not unlink the descriptor")
	}
}

func TestGetMovesBytesBothSidesEvents(t *testing.T) {
	_, a, b := pair(t)
	src := []byte("target-resident data.")
	eqB, _ := b.EQAlloc(16)
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 3, 0, Retain, After)
	b.MDAttach(meh, MDesc{Region: SliceRegion(src), Threshold: ThresholdInfinite, Options: MDOpGet, EQ: eqB}, Retain)

	dst := make([]byte, len(src))
	eqA, amd := sender(t, a, dst)
	if err := a.Get(amd, b.ID(), 4, 3, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Errorf("get returned %q", dst)
	}
	gotA := postedTypes(t, a, eqA)
	if len(gotA) != 2 || gotA[0] != EventReplyStart || gotA[1] != EventReplyEnd {
		t.Errorf("initiator events = %v", gotA)
	}
	gotB := postedTypes(t, b, eqB)
	if len(gotB) != 2 || gotB[0] != EventGetStart || gotB[1] != EventGetEnd {
		t.Errorf("target events = %v", gotB)
	}
}

func TestGetRegionDepositsAtLocalOffset(t *testing.T) {
	_, a, b := pair(t)
	src := []byte("ABCDEFGH")
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 3, 0, Retain, After)
	b.MDAttach(meh, MDesc{Region: SliceRegion(src), Threshold: ThresholdInfinite, Options: MDOpGet | MDManageRemote}, Retain)

	dst := make([]byte, 16)
	_, amd := sender(t, a, dst)
	// Fetch 4 bytes from remote offset 2 into local offset 10.
	if err := a.GetRegion(amd, 10, 4, b.ID(), 4, 3, 2); err != nil {
		t.Fatal(err)
	}
	if string(dst[10:14]) != "CDEF" {
		t.Errorf("GetRegion deposit wrong: %q", dst)
	}
}

func TestGetOnPutOnlyMDDropsWrongOp(t *testing.T) {
	_, a, b := pair(t)
	target(t, b, 16, 3, MDOpPut)
	dst := make([]byte, 8)
	_, amd := sender(t, a, dst)
	a.Get(amd, b.ID(), 4, 3, 0)
	if b.DropCounts[DropWrongOp] != 1 {
		t.Error("get against put-only MD was not rejected")
	}
}

func TestReplyToDeadMDDropped(t *testing.T) {
	_, a, b := pair(t)
	// Forge a reply naming a bogus MD handle.
	hdr := wire.Header{Type: wire.TypeReply, SrcNid: b.ID().Nid, SrcPid: b.ID().Pid,
		DstNid: a.ID().Nid, DstPid: a.ID().Pid, MDHandle: InvalidHandle, Length: 4}
	op := a.ReceiveReply(&hdr)
	if !op.Drop || op.Reason != DropBadHandle {
		t.Errorf("reply to dead MD: drop=%v reason=%v", op.Drop, op.Reason)
	}
}

func TestEQOverflowDropsAndPoisons(t *testing.T) {
	_, a, b := pair(t)
	eq, _ := b.EQAlloc(2)
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 1, 0, Retain, After)
	buf := make([]byte, 64)
	b.MDAttach(meh, MDesc{Region: SliceRegion(buf), Threshold: ThresholdInfinite,
		Options: MDOpPut | MDEventStartDisable, EQ: eq}, Retain)
	for i := 0; i < 4; i++ {
		_, amd := sender(t, a, []byte{byte(i)})
		a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	}
	// Two events fit; two were dropped. First get succeeds, and the
	// dropped state must surface as ErrEQDropped exactly once.
	sawDropped := false
	got := 0
	for {
		_, err := b.EQGet(eq)
		if err == ErrEQEmpty {
			break
		}
		if err == ErrEQDropped {
			sawDropped = true
		} else if err != nil {
			t.Fatal(err)
		}
		got++
	}
	if got != 2 || !sawDropped {
		t.Errorf("got %d events, dropped=%v; want 2 events and a dropped flag", got, sawDropped)
	}
}

func TestEventStartEndDisable(t *testing.T) {
	_, a, b := pair(t)
	_, eq, _ := target(t, b, 16, 1, MDOpPut|MDEventStartDisable)
	_, amd := sender(t, a, []byte{1})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	got := postedTypes(t, b, eq)
	if len(got) != 1 || got[0] != EventPutEnd {
		t.Errorf("events with START disabled: %v", got)
	}
	_, eq2, _ := target(t, b, 16, 2, MDOpPut|MDEventEndDisable)
	a.Put(amd, NoAck, b.ID(), 4, 2, 0, 0)
	got2 := postedTypes(t, b, eq2)
	if len(got2) != 1 || got2[0] != EventPutStart {
		t.Errorf("events with END disabled: %v", got2)
	}
}

func TestMEInsertOrdering(t *testing.T) {
	_, _, b := pair(t)
	m1, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 1, 0, Retain, After)
	m2, _ := b.MEInsert(m1, ProcessID{NidAny, PidAny}, 2, 0, Retain, Before)
	m3, _ := b.MEInsert(m1, ProcessID{NidAny, PidAny}, 3, 0, Retain, After)
	m4, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 4, 0, Retain, Before)
	list, _ := b.MEList(4)
	want := []MEHandle{m4, m2, m1, m3}
	if len(list) != 4 {
		t.Fatalf("list len %d", len(list))
	}
	for i := range want {
		if list[i] != want[i] {
			t.Fatalf("order %v, want %v", list, want)
		}
	}
}

func TestMEUnlinkCascadesToMD(t *testing.T) {
	_, _, b := pair(t)
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 1, 0, Retain, After)
	mdh, _ := b.MDAttach(meh, MDesc{Region: SliceRegion(make([]byte, 8)), Threshold: ThresholdInfinite, Options: MDOpPut}, Retain)
	if err := b.MEUnlink(meh); err != nil {
		t.Fatal(err)
	}
	if err := b.MDUnlink(mdh); err != ErrInvalidHandle {
		t.Errorf("MD should have been destroyed with its ME, got %v", err)
	}
	if err := b.MEUnlink(meh); err != ErrInvalidHandle {
		t.Errorf("double unlink should fail, got %v", err)
	}
}

func TestMDAttachRefusesSecond(t *testing.T) {
	_, _, b := pair(t)
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 1, 0, Retain, After)
	b.MDAttach(meh, MDesc{Region: SliceRegion(make([]byte, 8)), Threshold: ThresholdInfinite}, Retain)
	_, err := b.MDAttach(meh, MDesc{Region: SliceRegion(make([]byte, 8)), Threshold: ThresholdInfinite}, Retain)
	if err != ErrMEInUse {
		t.Errorf("second MDAttach: %v", err)
	}
}

func TestMDUpdateConditional(t *testing.T) {
	_, a, b := pair(t)
	_, eq, mdh := target(t, b, 16, 1, MDOpPut)
	// Non-empty EQ: conditional update must fail.
	_, amd := sender(t, a, []byte{1})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	newDesc := MDesc{Region: SliceRegion(make([]byte, 32)), Threshold: ThresholdInfinite, Options: MDOpPut, EQ: eq}
	if err := b.MDUpdate(mdh, nil, &newDesc, eq); err != ErrMDNoUpdate {
		t.Errorf("conditional update on busy EQ: %v", err)
	}
	// Drain and retry.
	postedTypes(t, b, eq)
	var old MDesc
	if err := b.MDUpdate(mdh, &old, &newDesc, eq); err != nil {
		t.Errorf("conditional update on empty EQ: %v", err)
	}
	if old.Region.Len() != 16 {
		t.Errorf("old desc not returned, len=%d", old.Region.Len())
	}
}

func TestMDIllegalDescriptors(t *testing.T) {
	_, _, b := pair(t)
	if _, err := b.MDBind(MDesc{Threshold: ThresholdInfinite}); err != ErrMDIllegal {
		t.Errorf("nil region: %v", err)
	}
	if _, err := b.MDBind(MDesc{Region: SliceRegion(nil), Threshold: -5}); err != ErrMDIllegal {
		t.Errorf("bad threshold: %v", err)
	}
	if _, err := b.MDBind(MDesc{Region: SliceRegion(nil), Threshold: 1, Options: MDMaxSize}); err != ErrMDIllegal {
		t.Errorf("max_size without value: %v", err)
	}
	if _, err := b.MDBind(MDesc{Region: SliceRegion(nil), Threshold: 1, EQ: EQHandle(12345)}); err != ErrInvalidHandle {
		t.Errorf("bogus EQ: %v", err)
	}
}

func TestStaleHandlesRejected(t *testing.T) {
	_, _, b := pair(t)
	eq, _ := b.EQAlloc(4)
	if err := b.EQFree(eq); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EQGet(eq); err != ErrInvalidHandle {
		t.Errorf("freed EQ: %v", err)
	}
	mdh, _ := b.MDBind(MDesc{Region: SliceRegion(make([]byte, 4)), Threshold: 1})
	b.MDUnlink(mdh)
	if err := b.MDUnlink(mdh); err != ErrInvalidHandle {
		t.Errorf("double MDUnlink: %v", err)
	}
}

func TestPutRegionBounds(t *testing.T) {
	_, a, b := pair(t)
	_, amd := sender(t, a, make([]byte, 8))
	if err := a.PutRegion(amd, 4, 8, NoAck, b.ID(), 4, 1, 0, 0); err != ErrSegv {
		t.Errorf("out of range PutRegion: %v", err)
	}
	if err := a.PutRegion(amd, -1, 2, NoAck, b.ID(), 4, 1, 0, 0); err != ErrSegv {
		t.Errorf("negative offset: %v", err)
	}
	if err := a.Put(amd, NoAck, ProcessID{NidAny, 0}, 4, 1, 0, 0); err != ErrProcessInvalid {
		t.Errorf("wildcard target: %v", err)
	}
}

func TestBadPortalIndexDrops(t *testing.T) {
	_, a, b := pair(t)
	_, amd := sender(t, a, []byte{1})
	hdr := wire.Header{Type: wire.TypePut, SrcNid: a.ID().Nid, SrcPid: a.ID().Pid,
		DstNid: b.ID().Nid, DstPid: b.ID().Pid, PtlIndex: 255, Length: 1, MDHandle: uint32(amd)}
	op := b.ReceivePut(&hdr)
	if !op.Drop || op.Reason != DropNoPtlEntry {
		t.Errorf("bad portal index: drop=%v reason=%v", op.Drop, op.Reason)
	}
}

func TestCRCFailureSurfacesAsNIFail(t *testing.T) {
	n, a, b := pair(t)
	_, eq, _ := target(t, b, 16, 1, MDOpPut|MDEventStartDisable)
	_, amd := sender(t, a, []byte("good"))
	n.failNext = true
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	ev, err := b.EQGet(eq)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.NIFail {
		t.Error("PUT_END after CRC failure must carry NIFail")
	}
	if b.Status(SRCrcErrors) != 1 {
		t.Errorf("SRCrcErrors = %d", b.Status(SRCrcErrors))
	}
}

func TestWalkedCountsEntries(t *testing.T) {
	_, a, b := pair(t)
	for i := 0; i < 5; i++ {
		b.MEAttach(4, ProcessID{NidAny, PidAny}, uint64(100+i), 0, Retain, After)
	}
	buf, _, _ := target(t, b, 8, 999, MDOpPut)
	_ = buf
	hdr := wire.Header{Type: wire.TypePut, SrcNid: a.ID().Nid, SrcPid: a.ID().Pid,
		DstNid: b.ID().Nid, DstPid: b.ID().Pid, PtlIndex: 4, MatchBits: 999, Length: 0}
	op := b.ReceivePut(&hdr)
	if op.Drop {
		t.Fatalf("dropped: %v", op.Reason)
	}
	if op.Walked != 6 {
		t.Errorf("walked %d entries, want 6", op.Walked)
	}
	b.Delivered(op, true)
}

func TestMatchRuleProperty(t *testing.T) {
	// The matching rule must equal the reference predicate:
	// every bit position either ignored or equal.
	f := func(mbits, ibits, hbits uint64) bool {
		e := &me{matchBits: mbits, ignoreBits: ibits, matchID: ProcessID{NidAny, PidAny}}
		got := e.matches(hbits, ProcessID{1, 2})
		want := true
		for bit := 0; bit < 64; bit++ {
			mask := uint64(1) << bit
			if ibits&mask != 0 {
				continue
			}
			if mbits&mask != hbits&mask {
				want = false
				break
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestLocalOffsetStreamProperty(t *testing.T) {
	// Property: any sequence of accepted locally-managed puts deposits
	// back-to-back with no gaps or overlaps, exactly like a stream.
	f := func(sizes []uint8) bool {
		_, a, b := pair(t)
		total := 0
		for _, s := range sizes {
			total += int(s)
		}
		if total == 0 {
			return true
		}
		buf, _, _ := target(t, b, total, 1, MDOpPut)
		expect := make([]byte, 0, total)
		seq := byte(1)
		for _, s := range sizes {
			n := int(s)
			if n == 0 {
				continue
			}
			chunk := bytes.Repeat([]byte{seq}, n)
			expect = append(expect, chunk...)
			seq++
			_, amd := sender(t, a, chunk)
			if err := a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0); err != nil {
				return false
			}
		}
		return bytes.Equal(buf[:len(expect)], expect)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistanceDelegates(t *testing.T) {
	_, a, _ := pair(t)
	if a.Distance(5) != 1 {
		t.Error("NIDist should delegate to the backend")
	}
}

func TestEQFreeWakesWaiters(t *testing.T) {
	n, _, b := pair(t)
	eq, _ := b.EQAlloc(4)
	woke := sim.Never
	n.s.Go("waiter", func(p *sim.Proc) {
		b.Events().Wait(p)
		woke = p.Now()
	})
	n.s.After(sim.Microsecond, func() { b.EQFree(eq) })
	n.s.Run()
	if woke != sim.Microsecond {
		t.Errorf("a process waiting on the library's events woke at %v, want the EQFree at 1us", woke)
	}
}

func TestLimitsEnforced(t *testing.T) {
	s := sim.New()
	be := &loopBackend{net: newLoopNet()}
	l := NewLib(s, ProcessID{0, 1}, 0, Limits{MaxEQs: 1, MaxMEs: 2, MaxMDs: 1, MaxMEList: 2}, be)
	be.lib = l
	if _, err := l.EQAlloc(4); err != nil {
		t.Fatal(err)
	}
	if _, err := l.EQAlloc(4); err != ErrNoSpace {
		t.Errorf("EQ limit: %v", err)
	}
	m1, _ := l.MEAttach(0, ProcessID{NidAny, PidAny}, 0, 0, Retain, After)
	if _, err := l.MEAttach(0, ProcessID{NidAny, PidAny}, 0, 0, Retain, After); err != nil {
		t.Fatal(err)
	}
	if _, err := l.MEAttach(0, ProcessID{NidAny, PidAny}, 0, 0, Retain, After); err != ErrMEListTooLong {
		t.Errorf("ME list limit: %v", err)
	}
	if _, err := l.MDAttach(m1, MDesc{Region: SliceRegion(make([]byte, 1)), Threshold: 1}, Retain); err != nil {
		t.Fatal(err)
	}
	if _, err := l.MDBind(MDesc{Region: SliceRegion(make([]byte, 1)), Threshold: 1}); err != ErrNoSpace {
		t.Errorf("MD limit: %v", err)
	}
}

func TestHandleTableChurnProperty(t *testing.T) {
	// Property: allocate/release churn never confuses handles — a released
	// handle is always invalid, a live one always resolves to its value.
	f := func(ops []bool) bool {
		tab := newTable[int](64)
		live := make(map[uint32]*int)
		var order []uint32
		for i, alloc := range ops {
			if alloc || len(order) == 0 {
				v := new(int)
				*v = i
				h, err := tab.alloc(v)
				if err != nil {
					continue
				}
				live[h] = v
				order = append(order, h)
			} else {
				h := order[0]
				order = order[1:]
				if !tab.release(h) {
					return false
				}
				delete(live, h)
				if _, ok := tab.get(h); ok {
					return false // stale handle resolved
				}
			}
		}
		for h, v := range live {
			got, ok := tab.get(h)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
