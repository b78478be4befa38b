package core

import "portals3/internal/sim"

// Handles are compact 32-bit names for library objects, exactly like the
// ptl_handle_*_t types: they travel in wire headers (a reply carries the
// initiator's MD handle) and across the API/library boundary. A handle packs
// a table index and a generation counter so stale handles are detected, the
// way the reference implementation validates handles crossing from user to
// kernel space.

// MEHandle names a match entry.
type MEHandle uint32

// MDHandle names a memory descriptor.
type MDHandle uint32

// EQHandle names an event queue.
type EQHandle uint32

// InvalidHandle is the PTL_INVALID_HANDLE value for any handle type.
const InvalidHandle = 0xFFFFFFFF

// NoEQ marks a memory descriptor with no event queue (PTL_EQ_NONE).
const NoEQ EQHandle = InvalidHandle

// NoMD is the invalid MD handle constant (PTL_MD_NONE).
const NoMD MDHandle = InvalidHandle

const handleGenShift = 20
const handleIdxMask = 1<<handleGenShift - 1

// Slot indices are stored +1 inside handles so that 0 is never a valid
// handle: the zero value of MDesc.EQ then safely means "no event queue".

// table is a slot table with generation counting; the zero value is unusable,
// create with newTable.
type table[T any] struct {
	vals []*T
	gens []uint32
	free []int
	live int
	max  int
}

func newTable[T any](max int) table[T] {
	return table[T]{max: max}
}

// alloc stores v and returns its packed handle. ErrNoSpace when the pool
// limit is reached.
func (t *table[T]) alloc(v *T) (uint32, error) {
	if t.live >= t.max {
		return InvalidHandle, ErrNoSpace
	}
	var idx int
	if len(t.free) > 0 {
		idx = sim.Pop(&t.free)
		t.vals[idx] = v
	} else {
		idx = len(t.vals)
		if idx+1 >= handleIdxMask {
			return InvalidHandle, ErrNoSpace
		}
		t.vals = append(t.vals, v)
		t.gens = append(t.gens, 0)
	}
	t.live++
	return uint32(idx+1) | t.gens[idx]<<handleGenShift, nil
}

// get resolves a handle, reporting false for stale or bogus values.
func (t *table[T]) get(h uint32) (*T, bool) {
	if h == InvalidHandle || h == 0 {
		return nil, false
	}
	idx := int(h&handleIdxMask) - 1
	if idx < 0 || idx >= len(t.vals) || t.vals[idx] == nil || t.gens[idx] != h>>handleGenShift {
		return nil, false
	}
	return t.vals[idx], true
}

// release frees the slot; the generation bump invalidates outstanding
// handles. Releasing a stale handle reports false.
func (t *table[T]) release(h uint32) bool {
	idx := int(h&handleIdxMask) - 1
	if _, ok := t.get(h); !ok {
		return false
	}
	t.vals[idx] = nil
	t.gens[idx] = (t.gens[idx] + 1) & (1<<(32-handleGenShift) - 1)
	t.free = append(t.free, idx)
	t.live--
	return true
}
