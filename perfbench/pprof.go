package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the gzipped protobuf profiles runtime/pprof writes and
// buckets their samples into the simulator's layers. A sample whose leaf
// frame is the Go collector or allocator counts as "gc"; any other sample
// counts for the innermost frame that belongs to a bucketed package, so
// library code (encoding/json, sort, memmove) is charged to the layer that
// called it. Only the few profile.proto fields that bucketing needs are
// decoded; everything else is skipped.

// layerBuckets lists the host-time buckets in report order.
var layerBuckets = []string{"sim", "cache", "directory", "arbiter", "bulk", "check", "service", "gc", "other"}

// bucketPackages maps a package path to its bucket. Packages absent here
// fall into "other", except the Go runtime, which bucketOf splits.
var bucketPackages = map[string]string{
	"bulksc/internal/sim":             "sim",
	"bulksc/internal/cache":           "cache",
	"bulksc/internal/directory":       "directory",
	"bulksc/internal/sharerset":       "directory",
	"bulksc/internal/arbiter":         "arbiter",
	"bulksc/internal/proc":            "bulk",
	"bulksc/internal/bdm":             "bulk",
	"bulksc/internal/sig":             "bulk",
	"bulksc/internal/chunk":           "bulk",
	"bulksc/internal/lineset":         "bulk",
	"bulksc/internal/sccheck":         "check",
	"bulksc/internal/history":         "check",
	"bulksc/internal/history/gk":      "check",
	"bulksc/internal/history/explore": "check",
	"bulksc/internal/sweepsrv":        "service",
	"net":                             "service",
}

// gcRuntimeMarkers are substrings of runtime function names that belong to
// the garbage collector or the allocator.
var gcRuntimeMarkers = []string{
	"gc", "GC", "malloc", "mcache", "mcentral", "mheap", "mspan", "scanobject",
	"scanblock", "scanstack", "greyobject", "markroot", "markBits", "sweep",
	"scavenge", "pageAlloc", "heapBits", "typePointers", "findObject", "wbBuf",
	"Barrier", "newobject", "makeslice", "makemap", "growslice", "nextFreeFast",
	"memclrNoHeapPointers", "spanOf",
}

// funcPackage returns the import path of a symbol as the Go runtime names
// it, e.g. "bulksc/internal/sim" for "bulksc/internal/sim.(*Engine).Run".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// isGC reports whether a function belongs to the Go collector or allocator.
func isGC(name string) bool {
	if funcPackage(name) != "runtime" {
		return false
	}
	for _, m := range gcRuntimeMarkers {
		if strings.Contains(name, m) {
			return true
		}
	}
	return false
}

// packageBucket returns the bucket of a function's package, or "".
func packageBucket(name string) string {
	pkg := funcPackage(name)
	if b, ok := bucketPackages[pkg]; ok {
		return b
	}
	if strings.HasPrefix(pkg, "net/http") {
		return "service"
	}
	return ""
}

// bucketOf returns the host-time bucket of a call stack, leaf first.
func bucketOf(stack []string) string {
	if len(stack) > 0 && isGC(stack[0]) {
		return "gc"
	}
	for _, f := range stack {
		if b := packageBucket(f); b != "" {
			return b
		}
	}
	return "other"
}

// profSample is one decoded profile sample: its call stack, leaf first,
// and its values.
type profSample struct {
	stack  []string
	values []int64
}

// decodeProfile parses a gzipped profile.proto message.
func decodeProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName  = map[uint64]int64{}    // function id → string index
		strs      []string
		decodeErr error
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) {
		switch {
		case num == 2 && wire == 2: // Sample
			var s rawSample
			decodeErr = errors.Join(decodeErr, fields(b, func(n, w int, v uint64, b []byte) {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b, &decodeErr)
				case 2:
					for _, u := range appendVarints(nil, w, v, b, &decodeErr) {
						s.values = append(s.values, int64(u))
					}
				}
			}))
			samples = append(samples, s)
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			decodeErr = errors.Join(decodeErr, fields(b, func(n, w int, v uint64, b []byte) {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2: // Line; inlined callees come first
					decodeErr = errors.Join(decodeErr, fields(b, func(n, w int, v uint64, _ []byte) {
						if n == 1 && w == 0 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			decodeErr = errors.Join(decodeErr, fields(b, func(n, w int, v uint64, _ []byte) {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
			}))
			funcName[id] = name
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, decodeErr); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := "?"
				if idx, ok := funcName[fn]; ok && idx >= 0 && int(idx) < len(strs) {
					name = strs[idx]
				}
				stack = append(stack, name)
			}
		}
		out = append(out, profSample{stack: stack, values: s.values})
	}
	return out, nil
}

// bucketSamples sums value index vi of every sample per bucket.
func bucketSamples(samples []profSample, vi int) (byBucket map[string]int64, total int64) {
	byBucket = make(map[string]int64, len(layerBuckets))
	for _, s := range samples {
		if vi >= len(s.values) {
			continue
		}
		byBucket[bucketOf(s.stack)] += s.values[vi]
		total += s.values[vi]
	}
	return byBucket, total
}

// appendVarints appends a repeated varint field given either unpacked
// (wire type 0) or packed (wire type 2); runtime/pprof writes both forms.
func appendVarints(dst []uint64, wire int, v uint64, b []byte, errp *error) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			*errp = errors.Join(*errp, errors.New("bad packed varint"))
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// fields walks the top-level fields of a protobuf message, calling fn with
// each field's number, wire type, and its varint value or byte payload.
func fields(msg []byte, fn func(num, wire int, v uint64, b []byte)) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			fn(num, wire, v, nil)
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			fn(num, wire, 0, msg[n:n+int(l)])
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
