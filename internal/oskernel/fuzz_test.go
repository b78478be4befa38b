package oskernel

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzRegion runs random programs of WriteAt and ReadAt against a flat
// []byte on either kind of region (linux picks the paged one; size is taken
// modulo three pages and a bit, so accesses straddle pages). Each operation
// is six bytes: kind, offset (2), length (2) and fill. The kind's low bits
// pick write or read and bit 2 shortens the length to at most 8; offsets run
// from -2 to past the end, lengths to past it too, empty ones included. A
// fill of 0 writes zeros, one with the top bit set writes zeros but for the
// last byte (so the zero test must look to the end), and any other writes
// fill·(i+1), which wraps through zero now and then. After every step:
//   - reads return the model's bytes;
//   - an access panics, with the same words, exactly when it is out of
//     range, and as a region nobody has written panics, backed or not;
//   - the region is backed exactly where a non-zero byte has ever been
//     written — the whole block on Catamount, page by page on Linux.
//
// The committed corpus under testdata/fuzz/FuzzRegion names the edges it
// reaches; `go test -fuzz FuzzRegion` explores further.
func FuzzRegion(f *testing.F) {
	_, cat, lin := kernels(f)
	f.Fuzz(func(t *testing.T, linux bool, size uint16, prog []byte) {
		k := cat
		if linux {
			k = lin
		}
		const page = 4096
		n := int(size) % (3*page + 3)
		r := k.NewRegion(n)
		model := make([]byte, n)
		dirty := make([]bool, (n+page-1)/page) // a non-zero byte was written into page i
		for step := 0; len(prog) >= 6; step, prog = step+1, prog[6:] {
			kind, fill := prog[0], prog[5]
			off := int(binary.LittleEndian.Uint16(prog[1:]))%(n+5) - 2
			ln := int(binary.LittleEndian.Uint16(prog[3:])) % (n + 3)
			if kind&4 != 0 {
				ln %= 9
			}
			inRange := off >= 0 && off+ln <= n
			if kind%3 == 2 {
				got := bytes.Repeat([]byte{0xA5}, ln)
				access := func(r Region) { r.ReadAt(off, got) }
				p := panicOf(func() { access(r) })
				if p == nil && inRange && !bytes.Equal(got, model[off:off+ln]) {
					t.Fatalf("step %d: read [%d, %d) = %v, want %v", step, off, off+ln, got, model[off:off+ln])
				}
				checkPanic(t, step, p, inRange, k, n, access)
			} else {
				data := make([]byte, ln)
				for i := range data {
					switch {
					case fill == 0:
					case fill&0x80 != 0:
						if i == ln-1 {
							data[i] = fill
						}
					default:
						data[i] = fill * byte(i+1)
					}
				}
				access := func(r Region) { r.WriteAt(off, data) }
				p := panicOf(func() { access(r) })
				checkPanic(t, step, p, inRange, k, n, access)
				if p == nil {
					copy(model[off:], data)
					for i, b := range data {
						if b != 0 {
							dirty[(off+i)/page] = true
						}
					}
				}
			}
			checkBacking(t, step, r, dirty)
		}
		whole := make([]byte, n)
		r.ReadAt(0, whole)
		if !bytes.Equal(whole, model) {
			t.Fatalf("final contents differ from flat memory")
		}
	})
}

// checkPanic asserts that an access panicked (p) exactly when it was out of
// range, and with the same words as on a region of n bytes nobody has
// written.
func checkPanic(t *testing.T, step int, p interface{}, inRange bool, k *Kernel, n int, access func(Region)) {
	t.Helper()
	if (p == nil) != inRange {
		t.Fatalf("step %d: panicked with %v, in range is %v", step, p, inRange)
	}
	if fresh := panicOf(func() { access(k.NewRegion(n)) }); fresh != p {
		t.Fatalf("step %d: panicked with %v, an unwritten region with %v", step, p, fresh)
	}
}

// checkBacking asserts that r is backed exactly where dirty says a non-zero
// byte has been written.
func checkBacking(t *testing.T, step int, r Region, dirty []bool) {
	t.Helper()
	switch r := r.(type) {
	case *contigRegion:
		want := false
		for _, d := range dirty {
			want = want || d
		}
		if (r.mem != nil) != want {
			t.Fatalf("step %d: block backed = %v, want %v", step, r.mem != nil, want)
		}
	case *pagedRegion:
		some := false
		for i, d := range dirty {
			some = some || d
			if got := r.pages != nil && r.pages[i] != nil; got != d {
				t.Fatalf("step %d: page %d backed = %v, want %v", step, i, got, d)
			}
		}
		if (r.pages != nil) != some {
			t.Fatalf("step %d: page list allocated = %v, want %v", step, r.pages != nil, some)
		}
	}
}
