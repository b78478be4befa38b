package flightrec

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
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

// corpusSeed reads one committed FuzzDecodeDump seed's bytes.
func corpusSeed(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeDump", name))
	if err != nil {
		t.Fatal(err)
	}
	const head, tail = "go test fuzz v1\n[]byte(", ")\n"
	s := string(b)
	if !strings.HasPrefix(s, head) || !strings.HasSuffix(s, tail) {
		t.Fatalf("%s is not a one-[]byte corpus file", name)
	}
	q, err := strconv.Unquote(s[len(head) : len(s)-len(tail)])
	if err != nil {
		t.Fatal(err)
	}
	return []byte(q)
}

// TestParentFormatDumpReadsUnchanged: a dump written before the sub-kind
// existed decodes to the events it held — no sub-kind, no trace kind — and
// re-encodes to the same bytes.
func TestParentFormatDumpReadsUnchanged(t *testing.T) {
	file := corpusSeed(t, "two-node-stall-dump")
	d, err := Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, nd := range d.Nodes {
		for _, e := range nd.Events {
			n++
			if e.Sub != 0 || e.Kind.trace() || e.Kind >= kindCount {
				t.Errorf("node %d: %+v is not an event the old format held", nd.Node, e)
			}
		}
	}
	if n == 0 {
		t.Fatal("the stall dump holds no events")
	}
	if !bytes.Equal(d.Bytes(), file) {
		t.Error("re-encoding the stall dump changed its bytes")
	}
}

// TestTraceKindSeedKeepsItsSubKinds: the seed carrying every trace kind
// decodes them with their sub-kinds.
func TestTraceKindSeedKeepsItsSubKinds(t *testing.T) {
	d, err := Decode(bytes.NewReader(corpusSeed(t, "every-trace-kind")))
	if err != nil {
		t.Fatal(err)
	}
	kinds, subs := map[Kind]bool{}, 0
	for _, nd := range d.Nodes {
		for _, e := range nd.Events {
			kinds[e.Kind] = true
			if e.Sub != 0 {
				subs++
			}
		}
	}
	for k := KWireTx; k < kindCount; k++ {
		if !kinds[k] {
			t.Errorf("the seed holds no %v", k)
		}
	}
	if subs == 0 {
		t.Error("the seed holds no sub-kind")
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
