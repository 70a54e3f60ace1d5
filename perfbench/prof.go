package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profLayers maps each layer's package path to its prof.* metric.
var profLayers = map[string]string{
	"extsched/internal/sim":        "prof.sim",
	"extsched/internal/cpusched":   "prof.cpusched",
	"extsched/internal/disk":       "prof.disk",
	"extsched/internal/lockmgr":    "prof.lockmgr",
	"extsched/internal/bufferpool": "prof.bufferpool",
	"extsched/internal/dbms":       "prof.dbms",
	"extsched/internal/core":       "prof.core",
	"extsched/internal/dbfe":       "prof.dbfe",
	"extsched/internal/cluster":    "prof.cluster",
	"extsched/internal/runner":     "prof.runner",
	"extsched/internal/workload":   "prof.workload",
	"extsched/gate":                "prof.gate",
	"net/http":                     "prof.net_http",
}

// profGC is the metric for time spent allocating or collecting memory.
const profGC = "prof.gc"

// profShares reads a CPU profile written by runtime/pprof and returns
// each layer's share of all sampled CPU time. A sample whose stack is
// allocating or collecting memory counts toward prof.gc; any other
// counts toward the innermost frame (inlined frames included) that
// belongs to a layer, so runtime and standard-library code such as map
// lookups is charged to the layer that called it. Every prof.* metric
// is present, zero when its layer never ran. It also returns the number
// of samples.
func profShares(path string) (map[string]float64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, 0, fmt.Errorf("read profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("read profile %s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, fmt.Errorf("parse profile %s: %w", path, err)
	}
	shares := map[string]float64{profGC: 0}
	for _, m := range profLayers {
		shares[m] = 0
	}
	var total float64
	var n int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n += s.values[0] // sample count; the last value is CPU nanoseconds
		v := float64(s.values[len(s.values)-1])
		total += v
		if m := layerOf(p.stack(s.locs)); m != "" {
			shares[m] += v
		}
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, n, nil
}

// layerOf returns the prof.* metric a stack (leaf first) counts toward,
// or "" when no layer is on it.
func layerOf(stack []string) string {
	if inGC(stack) {
		return profGC
	}
	for _, fn := range stack {
		if m, ok := profLayers[pkgOf(fn)]; ok {
			return m
		}
	}
	return ""
}

// inGC reports whether a stack is allocating or collecting memory.
func inGC(stack []string) bool {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), fn == "runtime.mallocgc",
			fn == "runtime.bgsweep", fn == "runtime.bgscavenge", fn == "runtime.markroot":
			return true
		}
	}
	return false
}

// pkgOf returns the package path of a symbol such as
// "extsched/internal/sim.(*Engine).Step".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of the pprof protobuf message profShares needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> string table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// stack returns the function names of a sample, leaf first, with
// inlined frames expanded innermost first.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			if i := p.functions[fid]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

var errTruncated = errors.New("truncated protobuf")

// parseProfile decodes the fields of perftools.profiles.Profile that
// profile holds: sample (2), location (4), function (5) and
// string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(msg, func(num int, v uint64, m []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, m)
				case 2:
					for _, x := range appendVarints(nil, v, m) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := eachField(msg, func(num int, v uint64, m []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(m, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fids
			return err
		case 5:
			var id uint64
			name := int64(-1)
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field's values: one varint
// (msg nil) or a packed run of them.
func appendVarints(dst []uint64, v uint64, msg []byte) []uint64 {
	if msg == nil {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := varint(msg)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (nil for varints). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := varint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning 0 bytes read on error.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
