package core

import "portals3/internal/sim"

// MDesc is the user-visible memory descriptor definition (ptl_md_t): the
// memory it exposes, what operations it accepts, and how it is consumed.
type MDesc struct {
	// Region is the exposed memory.
	Region Region
	// Threshold is the number of operations the descriptor accepts before
	// becoming inactive; ThresholdInfinite disables counting.
	Threshold int
	// MaxSize participates in the MDMaxSize unlink rule.
	MaxSize int
	// Options is the MDOptions bitmask.
	Options MDOptions
	// EQ receives the descriptor's events; NoEQ for none.
	EQ EQHandle
	// User is an opaque pointer carried through for the application
	// (ptl_md_t user_ptr); upper layers like MPI hang request state on it.
	User interface{}
}

// md is the library-internal memory descriptor state.
type md struct {
	handle MDHandle
	desc   MDesc

	threshold   int // remaining operations; -1 = infinite
	localOffset int // advances per op unless MDManageRemote
	inflight    int // operations started but not yet completed
	exhausted   bool
	dead        bool

	me     *me // attached match entry, nil for a free-floating descriptor
	unlink Unlink
}

// validateMDesc rejects malformed descriptors.
func (l *Lib) validateMDesc(d *MDesc) error {
	if d.Region == nil {
		return ErrMDIllegal
	}
	if d.Threshold < ThresholdInfinite {
		return ErrMDIllegal
	}
	if d.Options&MDMaxSize != 0 && d.MaxSize <= 0 {
		return ErrMDIllegal
	}
	if d.EQ != NoEQ && d.EQ != 0 {
		if _, ok := l.eqs.get(uint32(d.EQ)); !ok {
			return ErrInvalidHandle
		}
	}
	return nil
}

func (l *Lib) newMD(d MDesc, unlink Unlink) (*md, error) {
	if err := l.validateMDesc(&d); err != nil {
		return nil, err
	}
	m := sim.Pop(&l.mdFree)
	if m != nil {
		*m = md{desc: d, threshold: d.Threshold, unlink: unlink}
	} else {
		m = &md{desc: d, threshold: d.Threshold, unlink: unlink}
	}
	// A zero threshold means the descriptor starts inactive.
	m.exhausted = d.Threshold == 0
	h, err := l.mds.alloc(m)
	if err != nil {
		return nil, err
	}
	m.handle = MDHandle(h)
	return m, nil
}

// MDAttach attaches a memory descriptor to a match entry (PtlMDAttach).
// The entry must not already have one.
func (l *Lib) MDAttach(meh MEHandle, d MDesc, unlink Unlink) (MDHandle, error) {
	e, ok := l.mes.get(uint32(meh))
	if !ok || e.unlinked {
		return NoMD, ErrInvalidHandle
	}
	if e.md != nil {
		return NoMD, ErrMEInUse
	}
	m, err := l.newMD(d, unlink)
	if err != nil {
		return NoMD, err
	}
	m.me = e
	e.md = m
	return m.handle, nil
}

// MDBind creates a free-floating memory descriptor (PtlMDBind), the kind
// initiators use with Put and Get. Free-floating descriptors are always
// explicitly unlinked (PTL_UNLINK is illegal for them in 3.3; we accept
// Retain only).
func (l *Lib) MDBind(d MDesc) (MDHandle, error) {
	m, err := l.newMD(d, Retain)
	if err != nil {
		return NoMD, err
	}
	return m.handle, nil
}

// MDUnlink destroys a memory descriptor (PtlMDUnlink). Fails with
// ErrMDInUse while operations are in flight.
func (l *Lib) MDUnlink(h MDHandle) error {
	m, ok := l.mds.get(uint32(h))
	if !ok || m.dead {
		return ErrInvalidHandle
	}
	if m.inflight > 0 {
		return ErrMDInUse
	}
	l.destroyMD(m)
	return nil
}

// destroyMD detaches and releases the descriptor. The struct joins the free
// list but keeps its fields until reused — completion paths that unlink via
// maybeAutoUnlink still read desc and handle to post their final events, and
// no allocation can intervene before they finish.
func (l *Lib) destroyMD(m *md) {
	if m.dead {
		return
	}
	m.dead = true
	if m.me != nil {
		m.me.md = nil
		m.me = nil
	}
	l.mds.release(uint32(m.handle))
	l.mdFree = append(l.mdFree, m)
}

// MDUpdate atomically replaces a descriptor's definition (PtlMDUpdate).
// old, when non-nil, receives the current definition. new, when non-nil, is
// applied only if testEQ is empty (pass NoEQ for unconditional update); the
// conditional failing returns ErrMDNoUpdate. A descriptor with operations
// in flight cannot be updated.
func (l *Lib) MDUpdate(h MDHandle, old, newDesc *MDesc, testEQ EQHandle) error {
	m, ok := l.mds.get(uint32(h))
	if !ok || m.dead {
		return ErrInvalidHandle
	}
	if old != nil {
		*old = m.desc
	}
	if newDesc == nil {
		return nil
	}
	if m.inflight > 0 {
		return ErrMDInUse
	}
	if testEQ != NoEQ {
		q, ok := l.eqs.get(uint32(testEQ))
		if !ok {
			return ErrInvalidHandle
		}
		if q.count > 0 {
			return ErrMDNoUpdate
		}
	}
	if err := l.validateMDesc(newDesc); err != nil {
		return err
	}
	m.desc = *newDesc
	m.threshold = newDesc.Threshold
	m.localOffset = 0
	m.exhausted = false
	return nil
}

// MDUser returns the opaque user pointer stored in the descriptor, used by
// upper layers to recover per-request state from events.
func (l *Lib) MDUser(h MDHandle) (interface{}, bool) {
	m, ok := l.mds.get(uint32(h))
	if !ok || m.dead {
		return nil, false
	}
	return m.desc.User, true
}

// MDRegion returns the memory the descriptor exposes, the one record of it
// the library keeps; the API reads it to charge the transmit set-up.
func (l *Lib) MDRegion(h MDHandle) (Region, bool) {
	m, ok := l.mds.get(uint32(h))
	if !ok || m.dead {
		return nil, false
	}
	return m.desc.Region, true
}

// consume decrements the threshold for one accepted operation and reports
// whether the descriptor is now exhausted.
func (m *md) consume() {
	if m.threshold != ThresholdInfinite {
		m.threshold--
		if m.threshold <= 0 {
			m.exhausted = true
		}
	}
}

// active reports whether the descriptor can accept another operation.
func (m *md) active() bool {
	return !m.dead && !m.exhausted
}

// avail returns the bytes remaining past the given offset.
func (m *md) avail(off int) int {
	n := m.desc.Region.Len() - off
	if n < 0 {
		return 0
	}
	return n
}

// maybeAutoUnlink applies the threshold and max_size unlink rules after an
// operation completes. It returns true (and posts nothing itself) when the
// descriptor was unlinked; the caller posts the unlink event since it knows
// the event context.
func (l *Lib) maybeAutoUnlink(m *md) bool {
	if m.dead || m.inflight > 0 {
		return false
	}
	exhaustedBySize := m.desc.Options&MDMaxSize != 0 && m.avail(m.localOffset) < m.desc.MaxSize
	if !m.exhausted && !exhaustedBySize {
		return false
	}
	if m.unlink != UnlinkAuto {
		return false
	}
	e := m.me
	l.destroyMD(m)
	if e != nil && e.unlink == UnlinkAuto {
		l.removeME(e)
	}
	return true
}
