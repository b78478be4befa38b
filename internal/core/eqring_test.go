package core

import (
	"math/rand"
	"testing"

	"portals3/internal/sim"
)

// refRing is the event queue as the specification words it and nothing else:
// one array of the configured depth, allocated whole. checkEQRing holds the
// growable ring to it.
type refRing struct {
	buf     []Event
	head    int
	count   int
	dropped bool
	seq     uint64
	drops   uint64
}

func (r *refRing) post(ev Event) {
	r.seq++
	ev.Sequence = r.seq
	if r.count == len(r.buf) {
		r.dropped = true
		r.drops++
		return
	}
	r.buf[(r.head+r.count)%len(r.buf)] = ev
	r.count++
}

func (r *refRing) get() (Event, error) {
	var ev Event
	err := ErrEQEmpty
	if r.count > 0 {
		ev, err = r.buf[r.head], nil
		r.head = (r.head + 1) % len(r.buf)
		r.count--
	}
	if r.dropped {
		r.dropped = false
		err = ErrEQDropped
	}
	return ev, err
}

// eqRingDepths are the configured depths a program can pick: the degenerate
// ring, a non-power-of-two below the first ring, the first ring exactly, a
// depth the last doubling has to stop short for, and the machine-scale MPI
// depth, three doublings up.
var eqRingDepths = [...]int{1, 5, 64, 100, 512}

// checkEQRing runs one byte-coded program against an EQ and the reference.
// prog[0] picks the depth; every later byte is an operation, by its top two
// bits: 0 posts 1–64 events, 1 posts 1–64 between BeginDefer and EndDefer, 2
// gets 1–64 times, 3 gets once (0xFF: until empty). Every get must return
// the reference's event, Sequence and error; Pending and eqDrops must agree
// after every operation; the ring must never be longer than the depth or
// than twice what the queue has held at once; and a process parked on the
// library's events must wake once per post, dropped ones included, a
// deferred one at EndDefer, and once more at EQFree.
func checkEQRing(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	depth := eqRingDepths[int(prog[0])%len(eqRingDepths)]
	s := sim.New()
	l := NewLib(s, ProcessID{Nid: 0, Pid: 1}, 0, Limits{}, nil)
	h, err := l.EQAlloc(depth)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := l.EQ(h)
	ref := &refRing{buf: make([]Event, depth)}
	var payload uint64
	high := 0
	// The wake-ups of a process parked on the library's events, and the
	// posts that have reached the queue.
	var wakes, raises int
	freed := false
	s.Go("waiter", func(p *sim.Proc) {
		for !freed {
			l.Events().Wait(p)
			wakes++
		}
	})
	s.RunUntil(0)

	post := func(n int) {
		for i := 0; i < n; i++ {
			payload++
			ev := Event{Type: EventPutEnd, HdrData: payload, MatchBits: ^payload}
			q.post(ev)
			ref.post(ev)
		}
	}
	get := func(step int) bool {
		got, gerr := l.EQGet(h)
		want, werr := ref.get()
		if gerr != werr || got.HdrData != want.HdrData || got.MatchBits != want.MatchBits || got.Sequence != want.Sequence {
			t.Fatalf("depth %d, op %d: got event %d seq %d err %v, reference has event %d seq %d err %v",
				depth, step, got.HdrData, got.Sequence, gerr, want.HdrData, want.Sequence, werr)
		}
		return gerr != ErrEQEmpty
	}

	for step, b := range prog[1:] {
		n := int(b&0x3F) + 1
		switch b >> 6 {
		case 0:
			post(n)
			raises += n
		case 1:
			before := q.Pending()
			l.BeginDefer()
			post(n)
			if q.Pending() != before || wakes != raises {
				t.Fatalf("depth %d, op %d: deferred events reached the queue or its waiter before EndDefer", depth, step)
			}
			l.EndDefer()
			raises += n
		case 2:
			for i := 0; i < n; i++ {
				get(step)
			}
		case 3:
			for get(step) && b == 0xFF {
			}
		}
		if q.Pending() != ref.count || l.counters.eqDrops != ref.drops {
			t.Fatalf("depth %d, op %d: pending %d drops %d, reference has %d and %d",
				depth, step, q.Pending(), l.counters.eqDrops, ref.count, ref.drops)
		}
		if wakes != raises {
			t.Fatalf("depth %d, op %d: the library's events waiter woke %d times for %d posts", depth, step, wakes, raises)
		}
		high = max(high, q.Pending())
		if len(q.ring) > depth || len(q.ring) > max(eqFirstRing, 2*high) {
			t.Fatalf("depth %d, op %d: ring of %d slots for a queue that has held %d at once",
				depth, step, len(q.ring), high)
		}
	}
	for get(len(prog)) {
	}
	freed = true
	if l.EQFree(h); wakes != raises+1 {
		t.Fatalf("depth %d: the waiter woke %d times for %d posts and an EQFree", depth, wakes, raises)
	}
}

// FuzzEQRing holds the growable event-queue ring to refRing: FIFO and
// Sequence order across growths (mid-wrap included), the drop at exactly the
// configured depth, ErrEQDropped reported once and then cleared, eqDrops
// equal. The committed corpus under testdata/fuzz/FuzzEQRing names the cases
// that matter; plain `go test` replays it with the random programs below.
func FuzzEQRing(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 60, 400} {
		for d := range eqRingDepths {
			prog := make([]byte, n)
			rng.Read(prog)
			prog[0] = byte(d)
			f.Add(prog)
		}
	}
	f.Fuzz(func(t *testing.T, prog []byte) { checkEQRing(t, prog) })
}
