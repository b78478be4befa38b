package core

// Conformance scenarios walking Portals 3.3 specification behaviors that
// the main test file does not already pin down: portal index allocation,
// exhausted-entry fall-through, event field and ordering guarantees,
// loopback operation, reply truncation, and randomized structural
// invariants of the match list.

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"portals3/internal/wire"
)

func TestMEAttachAnyClaimsFreshIndices(t *testing.T) {
	_, _, b := pair(t)
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		ptl, meh, err := b.MEAttachAny(ProcessID{NidAny, PidAny}, uint64(i), 0, Retain, After)
		if err != nil {
			t.Fatal(err)
		}
		if seen[ptl] {
			t.Errorf("index %d handed out twice", ptl)
		}
		seen[ptl] = true
		if meh == MEHandle(InvalidHandle) {
			t.Error("invalid handle returned")
		}
		list, _ := b.MEList(ptl)
		if len(list) != 1 {
			t.Errorf("claimed index %d has %d entries", ptl, len(list))
		}
	}
}

func TestMEAttachAnyExhaustsIndices(t *testing.T) {
	s := newLoopNet()
	l := s.addLib(ProcessID{0, 1})
	for {
		_, _, err := l.MEAttachAny(ProcessID{NidAny, PidAny}, 0, 0, Retain, After)
		if err == ErrPtIndexInvalid {
			return // exhausted cleanly
		}
		if err != nil {
			t.Fatalf("unexpected error %v", err)
		}
	}
}

func TestExhaustedEntrySkipsToNext(t *testing.T) {
	// Two entries match the same bits; the first has threshold 1. The
	// second message must fall through to the second entry (inactive
	// descriptors are invisible to matching), not drop.
	_, a, b := pair(t)
	eq, _ := b.EQAlloc(16)
	buf1, buf2 := make([]byte, 32), make([]byte, 32)
	me1, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 5, 0, Retain, After)
	b.MDAttach(me1, MDesc{Region: SliceRegion(buf1), Threshold: 1, Options: MDOpPut, EQ: eq}, Retain)
	me2, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 5, 0, Retain, After)
	b.MDAttach(me2, MDesc{Region: SliceRegion(buf2), Threshold: ThresholdInfinite, Options: MDOpPut, EQ: eq}, Retain)

	for i, want := range []byte{101, 102} {
		_, amd := sender(t, a, []byte{want})
		a.Put(amd, NoAck, b.ID(), 4, 5, 0, 0)
		_ = i
	}
	if buf1[0] != 101 {
		t.Errorf("first message landed at %d, want first entry", buf1[0])
	}
	if buf2[0] != 102 {
		t.Errorf("second message must fall through to the second entry, got %d", buf2[0])
	}
	if b.Status(SRDropCount) != 0 {
		t.Errorf("drops = %d, want 0", b.Status(SRDropCount))
	}
}

func TestLoopbackPutAndGet(t *testing.T) {
	// A process can put to and get from itself; the loopback traverses the
	// full stack (header matching included).
	n := newLoopNet()
	a := n.addLib(ProcessID{0, 1})
	// Remote-managed offsets so the put and the get both address offset 0
	// (a locally managed offset would advance past the put's bytes).
	buf, eq, _ := target(t, a, 32, 9, MDOpPut|MDOpGet|MDManageRemote)
	src := []byte("loopback")
	_, amd := sender(t, a, src)
	if err := a.Put(amd, NoAck, a.ID(), 4, 9, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:len(src)], src) {
		t.Errorf("loopback put: %q", buf[:len(src)])
	}
	types := postedTypes(t, a, eq)
	if len(types) == 0 {
		t.Error("no events from loopback")
	}
	dst := make([]byte, len(src))
	_, gmd := sender(t, a, dst)
	if err := a.Get(gmd, a.ID(), 4, 9, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Errorf("loopback get: %q", dst)
	}
}

func TestEventSequenceAndTimestampsMonotonic(t *testing.T) {
	_, a, b := pair(t)
	_, eq, _ := target(t, b, 1024, 1, MDOpPut|MDManageRemote)
	for i := 0; i < 6; i++ {
		_, amd := sender(t, a, []byte{byte(i)})
		a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	}
	var lastSeq uint64
	for {
		ev, err := b.EQGet(eq)
		if err == ErrEQEmpty {
			break
		}
		if ev.Sequence <= lastSeq {
			t.Fatalf("sequence went backwards: %d after %d", ev.Sequence, lastSeq)
		}
		lastSeq = ev.Sequence
	}
	if lastSeq == 0 {
		t.Fatal("no events")
	}
}

func TestUIDTravelsInEvents(t *testing.T) {
	_, a, b := pair(t)
	_, eq, _ := target(t, b, 64, 1, MDOpPut|MDEventStartDisable)
	_, amd := sender(t, a, []byte{1})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	ev, err := b.EQGet(eq)
	if err != nil {
		t.Fatal(err)
	}
	if ev.UID != a.UID() {
		t.Errorf("event uid = %d, want the initiator's %d", ev.UID, a.UID())
	}
}

func TestReplyTruncationAtInitiator(t *testing.T) {
	_, a, b := pair(t)
	// Target exposes 64 bytes for gets.
	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i)
	}
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 3, 0, Retain, After)
	b.MDAttach(meh, MDesc{Region: SliceRegion(src), Threshold: ThresholdInfinite,
		Options: MDOpGet | MDManageRemote}, Retain)

	// Initiator requests more than its descriptor holds, with truncate.
	dst := make([]byte, 16)
	eq, _ := a.EQAlloc(16)
	gmd, _ := a.MDBind(MDesc{Region: SliceRegion(dst), Threshold: ThresholdInfinite,
		Options: MDTruncate | MDEventStartDisable, EQ: eq})
	// Forge the wire-level interaction: request 64 into a 16-byte md.
	hdr := wire.Header{Type: wire.TypeReply, SrcNid: b.ID().Nid, SrcPid: b.ID().Pid,
		DstNid: a.ID().Nid, DstPid: a.ID().Pid, MDHandle: uint32(gmd), Length: 64}
	op := a.ReceiveReply(&hdr)
	if op.Drop {
		t.Fatalf("reply dropped: %v", op.Reason)
	}
	if op.MLen != 16 {
		t.Errorf("reply mlen = %d, want truncated 16", op.MLen)
	}
	// Without truncate: dropped with NoFit.
	gmd2, _ := a.MDBind(MDesc{Region: SliceRegion(make([]byte, 16)), Threshold: ThresholdInfinite, EQ: eq})
	hdr.MDHandle = uint32(gmd2)
	op2 := a.ReceiveReply(&hdr)
	if !op2.Drop || op2.Reason != DropNoFit {
		t.Errorf("oversized reply without truncate: drop=%v reason=%v", op2.Drop, op2.Reason)
	}
}

func TestUnlinkEventWhenEndEventsDisabled(t *testing.T) {
	_, a, b := pair(t)
	eq, _ := b.EQAlloc(16)
	meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, 1, 0, UnlinkAuto, After)
	b.MDAttach(meh, MDesc{Region: SliceRegion(make([]byte, 8)), Threshold: 1,
		Options: MDOpPut | MDEventStartDisable | MDEventEndDisable, EQ: eq}, UnlinkAuto)
	_, amd := sender(t, a, []byte{1})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	ev, err := b.EQGet(eq)
	if err != nil {
		t.Fatalf("no event: %v", err)
	}
	if ev.Type != EventUnlink {
		t.Errorf("got %v, want UNLINK (the only signal with END events disabled)", ev.Type)
	}
}

func TestSendThresholdLimitsInitiator(t *testing.T) {
	_, a, b := pair(t)
	target(t, b, 64, 1, MDOpPut|MDManageRemote)
	amd, err := a.MDBind(MDesc{Region: SliceRegion(make([]byte, 4)), Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0); err != ErrMDInUse {
		t.Errorf("third send on a threshold-2 descriptor: %v, want ErrMDInUse", err)
	}
}

// TestMatchListStructureProperty drives random attach/insert/unlink
// sequences and checks the doubly linked list against a reference slice.
func TestMatchListStructureProperty(t *testing.T) {
	f := func(seed int64, opsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		n := newLoopNet()
		l := n.addLib(ProcessID{0, 1})
		var ref []MEHandle // expected order
		for _, op := range opsRaw {
			switch {
			case op%4 == 0 || len(ref) == 0: // attach at an end
				pos := Position(op / 4 % 2)
				h, err := l.MEAttach(0, ProcessID{NidAny, PidAny}, uint64(op), 0, Retain, pos)
				if err != nil {
					return false
				}
				if pos == Before {
					ref = append([]MEHandle{h}, ref...)
				} else {
					ref = append(ref, h)
				}
			case op%4 == 1: // insert relative to a random live entry
				i := rng.Intn(len(ref))
				pos := Position(op / 4 % 2)
				h, err := l.MEInsert(ref[i], ProcessID{NidAny, PidAny}, uint64(op), 0, Retain, pos)
				if err != nil {
					return false
				}
				if pos == Before {
					ref = append(ref[:i], append([]MEHandle{h}, ref[i:]...)...)
				} else {
					ref = append(ref[:i+1], append([]MEHandle{h}, ref[i+1:]...)...)
				}
			default: // unlink a random entry
				i := rng.Intn(len(ref))
				if err := l.MEUnlink(ref[i]); err != nil {
					return false
				}
				ref = append(ref[:i], ref[i+1:]...)
			}
			got, _ := l.MEList(0)
			if len(got) != len(ref) {
				return false
			}
			for i := range ref {
				if got[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRandomTrafficInvariants fires random puts/gets at random descriptors
// and checks global invariants: no event is ever lost silently (sum of
// deliveries + drops equals sends), and every delivered byte matches.
func TestRandomTrafficInvariants(t *testing.T) {
	f := func(seed int64, msgsRaw []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		n := newLoopNet()
		a := n.addLib(ProcessID{0, 1})
		b := n.addLib(ProcessID{1, 1})
		eq, _ := b.EQAlloc(4096)
		// Three targets with different bits/sizes/options.
		type tgt struct {
			bits uint64
			buf  []byte
		}
		var tgts []tgt
		for i, size := range []int{16, 64, 256} {
			buf := make([]byte, size)
			meh, _ := b.MEAttach(4, ProcessID{NidAny, PidAny}, uint64(i+1), 0, Retain, After)
			b.MDAttach(meh, MDesc{Region: SliceRegion(buf), Threshold: ThresholdInfinite,
				Options: MDOpPut | MDManageRemote | MDTruncate | MDEventStartDisable, EQ: eq}, Retain)
			tgts = append(tgts, tgt{bits: uint64(i + 1), buf: buf})
		}
		sends := 0
		for _, m := range msgsRaw {
			size := rng.Intn(300) + 1
			bits := uint64(rng.Intn(4)) // bits 0 never matches: a drop case
			data := bytes.Repeat([]byte{m}, size)
			_, amd := sender(t, a, data)
			if a.Put(amd, NoAck, b.ID(), 4, bits, 0, 0) != nil {
				return false
			}
			sends++
		}
		delivered := 0
		for {
			_, err := b.EQGet(eq)
			if err == ErrEQEmpty {
				break
			}
			delivered++
		}
		return uint64(delivered)+b.Status(SRDropCount) == uint64(sends)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestACClearRemovesEntry(t *testing.T) {
	_, a, b := pair(t)
	target(t, b, 16, 1, MDOpPut)
	if err := b.ACClear(0); err != nil {
		t.Fatal(err)
	}
	_, amd := sender(t, a, []byte{1})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	if b.DropCounts[DropACDenied] != 1 {
		t.Error("cleared ACL still permits")
	}
	if err := b.ACClear(-1); err != ErrAcIndexInvalid {
		t.Errorf("bad index: %v", err)
	}
}

func TestMDUserRoundTrip(t *testing.T) {
	_, _, b := pair(t)
	type tag struct{ v int }
	want := &tag{v: 42}
	mdh, _ := b.MDBind(MDesc{Region: SliceRegion(make([]byte, 4)), Threshold: 1, User: want})
	got, ok := b.MDUser(mdh)
	if !ok || got.(*tag) != want {
		t.Error("user pointer lost")
	}
	b.MDUnlink(mdh)
	if _, ok := b.MDUser(mdh); ok {
		t.Error("dead descriptor resolved")
	}
}

func TestMDRegionFollowsTheDescriptor(t *testing.T) {
	_, _, b := pair(t)
	r1, r2 := SliceRegion(make([]byte, 4)), SliceRegion(make([]byte, 8))
	mdh, _ := b.MDBind(MDesc{Region: r1, Threshold: ThresholdInfinite})
	if got, ok := b.MDRegion(mdh); !ok || got.Len() != 4 {
		t.Fatalf("bound region: %v, %v", got, ok)
	}
	if err := b.MDUpdate(mdh, nil, &MDesc{Region: r2, Threshold: ThresholdInfinite}, NoEQ); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.MDRegion(mdh); !ok || got.Len() != 8 {
		t.Errorf("updated region: %v, %v", got, ok)
	}
	b.MDUnlink(mdh)
	if _, ok := b.MDRegion(mdh); ok {
		t.Error("dead descriptor resolved")
	}
	// The slot is reused under a new generation; the old handle stays dead.
	if _, err := b.MDBind(MDesc{Region: r1, Threshold: ThresholdInfinite}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.MDRegion(mdh); ok {
		t.Error("stale handle resolved to the slot's new descriptor")
	}
}

func TestLimitsAndEQPending(t *testing.T) {
	_, a, b := pair(t)
	if b.Limits().MaxPtIndices != DefaultLimits().MaxPtIndices {
		t.Error("limits accessor wrong")
	}
	_, eq, _ := target(t, b, 16, 1, MDOpPut|MDEventStartDisable)
	q, ok := b.EQ(eq)
	if !ok || q.Pending() != 0 {
		t.Fatal("fresh queue not empty")
	}
	_, amd := sender(t, a, []byte{1})
	a.Put(amd, NoAck, b.ID(), 4, 1, 0, 0)
	if q.Pending() != 1 {
		t.Errorf("pending = %d after one delivery", q.Pending())
	}
}

func TestDropReasonStrings(t *testing.T) {
	for r := DropNone; r <= DropCRC; r++ {
		if r.String() == "unknown" {
			t.Errorf("reason %d has no name", r)
		}
	}
	if DropReason(99).String() != "unknown" {
		t.Error("out of range reason should be unknown")
	}
}
