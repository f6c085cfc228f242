package main

// A minimal reader for the CPU profiles runtime/pprof writes: gzip
// around a profile.proto message, walked field by field. It keeps only
// what folding self time by package needs: each sample's leaf location
// and value, each location's innermost function, and the string table.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// pbField is one decoded protobuf field: a varint/fixed value or a
// length-delimited byte slice.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// pbWalk calls fn for each top-level field of a protobuf message.
func pbWalk(msg []byte, fn func(pbField) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			f.v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("pprof: bad length")
			}
			f.b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			f.v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// uints returns a repeated integer field's values, packed or not.
func (f pbField) uints() ([]uint64, error) {
	if f.wire != 2 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// foldProfile adds each sample's last value (CPU nanoseconds) to the
// bucket of its leaf function's package.
func foldProfile(gz []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = make(map[uint64]uint64) // location id -> innermost function id
		funcName = make(map[uint64]int64)  // function id -> string index
		strs     []string
	)
	err = pbWalk(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s sample
			err := pbWalk(f.b, func(g pbField) error {
				vs, err := g.uints()
				if err != nil {
					return err
				}
				switch {
				case g.num == 1 && s.leaf == 0 && len(vs) > 0:
					s.leaf = vs[0]
				case g.num == 2 && len(vs) > 0:
					s.value = int64(vs[len(vs)-1])
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := pbWalk(f.b, func(g pbField) error {
				switch {
				case g.num == 1:
					id = g.v
				case g.num == 4 && fn == 0: // first Line = innermost frame
					return pbWalk(g.b, func(h pbField) error {
						if h.num == 1 {
							fn = h.v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbWalk(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = int64(g.v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.leaf]]; idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		into[bucketOf(funcPackage(name))] += float64(s.value)
	}
	return nil
}

// funcPackage extracts the import path from a Go symbol name such as
// "viprof/internal/cpu.(*Core).Exec" or "runtime.mallocgc".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// bucketPrefixes maps import paths to pprof buckets; the first prefix
// that matches wins, so subpackages precede their parents.
var bucketPrefixes = []struct{ prefix, bucket string }{
	{"viprof/internal/jvm/jit", "jit"},
	{"viprof/internal/jvm/aos", "jit"},
	{"viprof/internal/jvm/gc", "gc"},
	{"viprof/internal/jvm", "jvm"},
	{"viprof/internal/cpu", "cpu"},
	{"viprof/internal/cache", "cache"},
	{"viprof/internal/hpc", "hpc"},
	{"viprof/internal/kernel", "kernel"},
	{"viprof/internal/oprofile", "oprofile"},
	{"viprof/internal/core", "core"},
	{"viprof/internal/fleet", "fleet"},
	{"viprof/internal/record", "record"},
	{"viprof/internal/image", "image"},
	{"viprof/internal/addr", "addr"},
	{"viprof/internal/workload", "workload"},
	// The harness code on the benchmark's path is the X-server noise
	// process, which is workload input.
	{"viprof/internal/harness", "workload"},
	{"runtime", "goruntime"},
	{"internal/runtime", "goruntime"},
}

func bucketOf(pkg string) string {
	// The root package's only code on the benchmark's path is
	// FleetView's windowed render.
	if pkg == "viprof" {
		return "fleet"
	}
	for _, bp := range bucketPrefixes {
		if pkg == bp.prefix || strings.HasPrefix(pkg, bp.prefix+"/") {
			return bp.bucket
		}
	}
	return "other"
}

// shares converts folded bucket totals to percentages of their sum.
func shares(folded map[string]float64) map[string]float64 {
	var total float64
	for _, v := range folded {
		total += v
	}
	out := make(map[string]float64, len(layerBuckets))
	for _, b := range layerBuckets {
		if total > 0 {
			out[b] = 100 * folded[b] / total
		} else {
			out[b] = 0
		}
	}
	return out
}
