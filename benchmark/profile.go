package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profSample is one CPU-profile sample: its call stack as function
// names, innermost first with inlined frames expanded, and its value in
// the profile's last sample type (CPU nanoseconds for a Go CPU profile).
type profSample struct {
	stack []string
	value int64
}

// readProfile decodes the parts of a gzipped pprof profile.proto the
// bucketing needs. The module has no dependencies, so the wire format is
// read by hand: only varint and length-delimited fields occur in the
// messages touched here.
func readProfile(path string) ([]profSample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string index
		strs      []string
	)
	err = protoFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// protoFields calls fn for every field of one protobuf message: v holds
// a varint field's value, b a length-delimited field's bytes. Fixed-
// width fields are skipped.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errTruncated
			}
			msg = msg[w:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: packed
// contains them when the field was length-delimited, else v is the one
// value.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// layerPackages maps repo package paths to layer names, longest prefix
// first. Packages that serve one layer only are folded into it.
var layerPackages = []struct{ prefix, layer string }{
	{"repro/internal/netem/trace", "trace"},
	{"repro/internal/netem", "netem"},
	{"repro/internal/httpx", "httpx"},
	{"repro/internal/handshake", "httpx"},
	{"repro/internal/origin", "origin"},
	{"repro/internal/videostore", "videostore"},
	{"repro/internal/edge", "edge"},
	{"repro/internal/core", "core"},
	{"repro/internal/stats", "stats"},
	{"repro/internal/fleet", "fleet"},
	{"repro", "testbed"},
	{"main", "harness"},
}

// bucket attributes one sample to a cpu-share metric: the innermost
// frame in a repo package decides which layer's. Closures that
// trace.Lognormal or trace.RandomWalk return are named after the
// root-package function their constructor was inlined into
// (repro.(*Testbed).makeInterface.func1.Lognormal.2), so those count as
// trace. A stack with no repo frame is runtime work on its own
// goroutine: garbage collection if any frame belongs to the collector,
// scheduling and everything else otherwise.
func bucket(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		for _, lp := range layerPackages {
			if pkg != lp.prefix && !strings.HasPrefix(pkg, lp.prefix+"/") {
				continue
			}
			if lp.layer == "testbed" && (strings.Contains(fn, ".Lognormal.") || strings.Contains(fn, ".RandomWalk.")) {
				return "trace.cpu_share"
			}
			return lp.layer + ".cpu_share"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.(*gcWork)") ||
			fn == "runtime.scanobject" || fn == "runtime.markroot" {
			return "runtime.gc_share"
		}
	}
	return "runtime.sched_share"
}

// funcPackage returns the package path of a Go symbol name: everything
// before the first dot after the last slash, type arguments ignored.
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares buckets a profile's samples and returns, by metric name,
// each bucket's share of the total sampled CPU time.
func cpuShares(samples []profSample) map[string]float64 {
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		shares[bucket(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares
}
