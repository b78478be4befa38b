package flightrec

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// lyingDump is a 210-byte file: a valid header and one node whose event
// count claims 2^26 events, followed by two bytes.
func lyingDump() []byte {
	file := (&Dump{Nodes: []NodeDump{{}}}).Bytes()
	binary.LittleEndian.PutUint64(file[len(file)-8:], 1<<26)
	return append(file, 0, 0)
}

// TestDecodeDoesNotTrustCounts: the counts in a file are claims. Decode
// used to make() what they announced — 2 GB for this file — and loop over
// it after EOF; it must cost what the file contains. The memory limit turns
// a regression into a slow failing test instead of a dead sandbox.
func TestDecodeDoesNotTrustCounts(t *testing.T) {
	file := lyingDump()
	if len(file) != 210 {
		t.Fatalf("the regression file is %d bytes, want 210", len(file))
	}
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(256 << 20))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	d, err := Decode(bytes.NewReader(file))
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a file missing 2^26 events decoded: %+v", d)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("decoding 210 bytes allocated %d bytes", alloc)
	}
	if took > time.Second {
		t.Errorf("decoding 210 bytes took %v", took)
	}
}

// TestDecodeTruncatedAtEveryOffset: every proper prefix of a dump is an
// error — never a panic, never a short dump passed off as whole.
func TestDecodeTruncatedAtEveryOffset(t *testing.T) {
	full := testDump().Bytes()
	for n := 0; n < len(full); n++ {
		if d, err := Decode(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("prefix of %d of %d bytes decoded: %+v", n, len(full), d)
		}
	}
	if _, err := Decode(bytes.NewReader(full)); err != nil {
		t.Fatalf("the whole dump: %v", err)
	}
}

// FuzzDecodeDump: arbitrary bytes never panic the reader, a dump that
// decodes holds no more than the bytes supplied, and whatever decodes
// round-trips through Bytes exactly. The seed corpus under testdata/fuzz
// is replayed by every plain `go test`.
func FuzzDecodeDump(f *testing.F) {
	full := testDump().Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(lyingDump())
	f.Add([]byte("NOTADUMP........"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// 48 bytes of magic and header besides the two strings, 160 per
		// node, 32 per event.
		need := 48 + len(d.Reason) + len(d.Trigger)
		for _, nd := range d.Nodes {
			need += 160 + 32*len(nd.Events)
		}
		if need > len(data) {
			t.Fatalf("%d input bytes decoded to a dump that encodes in at least %d", len(data), need)
		}
		enc := d.Bytes()
		again, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decoding an encoded dump: %v", err)
		}
		if !reflect.DeepEqual(d, again) || !bytes.Equal(again.Bytes(), enc) {
			t.Fatalf("Decode(d.Bytes()) != d:\n  d: %+v\nagain: %+v", d, again)
		}
	})
}
