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

// layers maps the program's package paths to the layer names the
// per-layer CPU shares use. Other chiaroscuro packages (randx, dp,
// timeseries, ...) are helpers, not layers: like math/big, their
// samples go to the nearest enclosing layer frame.
var layers = map[string]string{
	"chiaroscuro":                              "chiaroscuro",
	"chiaroscuro/internal/homenc":              "homenc",
	"chiaroscuro/internal/homenc/damgardjurik": "damgardjurik",
	"chiaroscuro/internal/homenc/plain":        "plain",
	"chiaroscuro/internal/eesum":               "eesum",
	"chiaroscuro/internal/core":                "core",
	"chiaroscuro/internal/sim":                 "sim",
	"chiaroscuro/internal/node":                "node",
	"chiaroscuro/internal/mux":                 "mux",
	"chiaroscuro/internal/wireproto":           "wireproto",
	"chiaroscuro/internal/kmeans":              "kmeans",
	"chiaroscuro/internal/dpkmeans":            "dpkmeans",
	"chiaroscuro/internal/parallel":            "parallel",
}

// The buckets outside the program's layers.
const (
	bucketNetSyscall   = "net_syscall"
	bucketRuntimeGC    = "runtime_gc"
	bucketRuntimeSched = "runtime_sched"
	bucketOther        = "other"
)

// cpuBuckets lists every bucket name in report order.
func cpuBuckets() []string {
	names := []string{
		"chiaroscuro", "homenc", "damgardjurik", "plain", "eesum", "core", "sim",
		"node", "mux", "wireproto", "kmeans", "dpkmeans", "parallel",
	}
	return append(names, bucketNetSyscall, bucketRuntimeGC, bucketRuntimeSched, bucketOther)
}

// gcFrames are the runtime's garbage-collector worker and assist entry
// points; a sample with one of them on its stack is GC work.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
}

// netPackages hold the leaves of samples spent in network I/O and
// system calls (internal/runtime/syscall is where syscall's calls enter
// the kernel).
var netPackages = map[string]bool{
	"syscall": true, "internal/runtime/syscall": true, "internal/poll": true, "net": true,
}

// funcPackage returns the import path of a symbol name such as
// "math/big.nat.expNN" or "chiaroscuro/internal/node.(*Node).Run".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// bucket assigns one sample's stack (leaf first) to a bucket:
// runtime_gc when a GC worker or assist frame is on the stack, else
// net_syscall when the leaf is in syscall, internal/poll or net, else
// the innermost program layer on the stack, else runtime_sched when
// every frame is the runtime's own, else other. Frames of the
// benchmark itself (its Scheme decorator and event recorder) count as
// other.
func bucket(stack []string) string {
	for _, fn := range stack {
		for _, gc := range gcFrames {
			if strings.HasPrefix(fn, gc) {
				return bucketRuntimeGC
			}
		}
	}
	if len(stack) > 0 && netPackages[funcPackage(stack[0])] {
		return bucketNetSyscall
	}
	runtimeOnly := true
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if l, ok := layers[pkg]; ok {
			return l
		}
		if pkg == "chiaroscuro/perfbench" {
			return bucketOther
		}
		if pkg != "runtime" && !strings.HasPrefix(pkg, "internal/runtime/") && !strings.HasPrefix(pkg, "runtime/internal/") {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return bucketRuntimeSched
	}
	return bucketOther
}

// cpuShares parses a gzipped pprof CPU profile and returns each
// bucket's share of the samples (every bucket present, zero when
// empty) and the sample count.
func cpuShares(gz []byte) (map[string]float64, int64, error) {
	stacks, counts, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets() {
		shares[b] = 0
	}
	var total int64
	for i, st := range stacks {
		shares[bucket(st)] += float64(counts[i])
		total += counts[i]
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= float64(total)
		}
	}
	return shares, total, nil
}

// parseProfile decodes the fields of a pprof profile.proto this
// benchmark needs: each sample's stack as function names (leaf first,
// inlined frames expanded) and its first value, the sample count.
func parseProfile(gz []byte) (stacks [][]string, counts []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // Sample.location_id
					ids, err := uvarints(wire, v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // Sample.value
					vals, err := uvarints(wire, v, b)
					if first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Profile.function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	for _, s := range samples {
		var st []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && i < int64(len(strs)) {
					st = append(st, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
		counts = append(counts, s.count)
	}
	return stacks, counts, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the top-level fields of a protobuf message, passing
// varint values as v and length-delimited payloads as b.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// uvarints returns a repeated integer field's values, whether encoded
// as one varint (wire type 0) or packed (wire type 2).
func uvarints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
