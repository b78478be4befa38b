package sim

import (
	"slices"
	"testing"
)

// FuzzFIFO runs random programs of FIFO and free-list operations against a
// plain slice. Each input byte is one operation: the top three bits choose
// it (push ×3, pop ×2, insert, at, free-list push or Pop) and the low five
// are its argument. After every step the queue must hold exactly the
// model's entries in order, and every slot of its backing array outside the
// live window must be zero — a popped entry, one left behind by the
// compaction, or one past a rewind must not keep its object alive. The
// free list gets the same check from Pop, which must return nil when empty.
// The committed corpus under testdata/fuzz/FuzzFIFO names the edges it
// reaches (the rewind, the compaction, inserts at the head, an empty free
// list); `go test -fuzz FuzzFIFO` explores further.
func FuzzFIFO(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		var (
			q     FIFO[*int]
			model []*int
			list  []*int
			lm    []*int
			next  int
		)
		fresh := func() *int { next++; v := next; return &v }
		for step, b := range prog {
			op, arg := b>>5, int(b&31)
			switch op {
			case 0, 1, 2:
				v := fresh()
				q.Push(v)
				model = append(model, v)
			case 3, 4:
				if len(model) == 0 {
					continue
				}
				if got := q.Pop(); got != model[0] {
					t.Fatalf("step %d: Pop = %v, want %v", step, got, model[0])
				}
				model = model[1:]
			case 5:
				i := arg % (len(model) + 1)
				vs := make([]*int, arg%3+1)
				for k := range vs {
					vs[k] = fresh()
				}
				q.Insert(i, vs...)
				model = slices.Insert(model, i, vs...)
			case 6:
				if len(model) == 0 {
					continue
				}
				i := arg % len(model)
				if got := *q.At(i); got != model[i] {
					t.Fatalf("step %d: At(%d) = %v, want %v", step, i, got, model[i])
				}
				if q.First() != model[0] {
					t.Fatalf("step %d: First = %v, want %v", step, q.First(), model[0])
				}
			case 7:
				if arg&1 == 1 {
					v := fresh()
					list = append(list, v)
					lm = append(lm, v)
					continue
				}
				var want *int
				if n := len(lm); n > 0 {
					want, lm = lm[n-1], lm[:n-1]
				}
				if got := Pop(&list); got != want {
					t.Fatalf("step %d: Pop(list) = %v, want %v", step, got, want)
				}
				for i, v := range list[len(list):cap(list)] {
					if v != nil {
						t.Fatalf("step %d: free-list slot %d past the end still holds %v", step, len(list)+i, v)
					}
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
			}
			for i, v := range q.buf[:cap(q.buf)] {
				live := i >= q.head && i < len(q.buf)
				if live && v != model[i-q.head] {
					t.Fatalf("step %d: slot %d = %v, want %v", step, i, v, model[i-q.head])
				}
				if !live && v != nil {
					t.Fatalf("step %d: vacated slot %d (head %d, len %d) still holds %v", step, i, q.head, len(q.buf), v)
				}
			}
		}
	})
}
