package main

// CPU-profile attribution: decode the gzip-compressed profile.proto that
// runtime/pprof writes (only the four fields needed: samples, locations,
// functions, strings) and charge every sample to a layer.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the packages under portals3/internal that get a share of
// their own; samples whose stacks touch none of them go to gc, sched or
// other.
var cpuLayers = []string{"sim", "fabric", "fw", "nal", "core", "mpi", "machine",
	"oskernel", "seastar", "wire", "telemetry", "experiments"}

const internalPrefix = "portals3/internal/"

// pbField is one decoded protobuf field: a varint value or a byte string.
type pbField struct {
	num   int
	val   uint64
	bytes []byte
}

// pbFields splits a protobuf message into its top-level fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("profile: bad varint")
			}
			f.val, b = v, b[n:]
		case 1: // 64-bit
			if len(b) < 8 {
				return nil, fmt.Errorf("profile: short fixed64")
			}
			f.val, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("profile: bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // 32-bit
			if len(b) < 4 {
				return nil, fmt.Errorf("profile: short fixed32")
			}
			f.val, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbUints reads a repeated integer field that may be packed or not.
func pbUints(dst []uint64, f pbField) []uint64 {
	if f.bytes == nil {
		return append(dst, f.val)
	}
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst
}

// cpuShares returns cpu.<layer>_share for every layer, cpu.gc_share,
// cpu.sched_share and cpu.other_share; they sum to 1. A sample is charged
// to the innermost portals3/internal/<pkg> frame on its stack; a stack with
// none is the collector's, the scheduler's, or other.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> name string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type sample struct {
		locs  []uint64
		count uint64
	}
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 2: // Sample: location_id=1 (leaf first), value=2
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s sample
			var vals []uint64
			for _, sf := range fs {
				switch sf.num {
				case 1:
					s.locs = pbUints(s.locs, sf)
				case 2:
					vals = pbUints(vals, sf)
				}
			}
			if len(vals) > 0 {
				s.count = vals[0]
			}
			samples = append(samples, s)
		case 4: // Location: id=1, line=4 {function_id=1}
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.num {
				case 1:
					id = lf.val
				case 4:
					line, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, x := range line {
						if x.num == 1 {
							fns = append(fns, x.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function: id=1, name=2
			fs, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.num {
				case 1:
					id = ff.val
				case 2:
					name = ff.val
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
	}

	counts := map[string]uint64{}
	var total uint64
	for _, s := range samples {
		counts[classify(s.locs, locFuncs, funcName, strs)] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for _, l := range append(append([]string(nil), cpuLayers...), "gc", "sched", "other") {
		out["cpu."+l+"_share"] = 0
		if total > 0 {
			out["cpu."+l+"_share"] = float64(counts[l]) / float64(total)
		}
	}
	return out, nil
}

// classify names the layer one stack is charged to.
func classify(locs []uint64, locFuncs map[uint64][]uint64, funcName map[uint64]uint64, strs []string) string {
	gc, sched := false, false
	for _, loc := range locs {
		for _, fn := range locFuncs[loc] {
			idx := funcName[fn]
			if idx >= uint64(len(strs)) {
				continue
			}
			name := strs[idx]
			if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
				pkg := rest
				if i := strings.IndexAny(rest, "./"); i >= 0 {
					pkg = rest[:i]
				}
				for _, l := range cpuLayers {
					if l == pkg {
						return l
					}
				}
				return "other"
			}
			switch {
			case strings.HasPrefix(name, "runtime.gc") || strings.HasPrefix(name, "runtime.bgsweep") ||
				strings.HasPrefix(name, "runtime.bgscavenge") || strings.Contains(name, "scanobject"):
				gc = true
			case name == "runtime.schedule" || name == "runtime.findRunnable" || name == "runtime.mcall" ||
				name == "runtime.park_m" || name == "runtime.goexit0" || name == "runtime.mstart":
				sched = true
			}
		}
	}
	switch {
	case gc:
		return "gc"
	case sched:
		return "sched"
	}
	return "other"
}
