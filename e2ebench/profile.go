package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// timedLabel marks profile samples taken inside a call the benchmark
// times itself, so trace.coverage counts that time once.
const timedLabel = "e2ebench-timed"

// layerOf maps a repository package to the layer its CPU time counts
// toward. Packages mapped to "" are helpers without a layer of their
// own (value types, the worker pool, the trace recorder): their time
// goes to the nearest caller that has one, so fmt and units.String
// called by scenario.CacheKey count as scenario. A package missing
// from the map, such as the benchmark itself, is "other".
var layerOf = map[string]string{
	"exp": "exp", "campaign": "campaign", "runcache": "runcache", "scenario": "scenario",
	"lockstep": "lockstep", "simrng": "simrng", "sim": "sim", "tcp": "tcp", "mptcp": "mptcp",
	"ptcp": "ptcp", "energy": "energy", "core": "core", "eib": "core", "forecast": "core",
	"link": "link", "phy": "link", "stats": "stats", "report": "report",
	"units": "", "workload": "", "runner": "", "trace": "",
}

const modulePrefix = "repro/internal/"

// layerOfStack attributes one sample. frames run from the innermost
// function outward. A sample with no repository frame at all (GC,
// scheduler, the HTTP transport's own goroutines) is "runtime".
func layerOfStack(frames []string) string {
	sawRepro := false
	for _, fn := range frames {
		if !strings.HasPrefix(fn, "repro/") {
			continue
		}
		sawRepro = true
		pkg, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		layer, known := layerOf[pkg]
		if !known {
			return "other"
		}
		if layer != "" {
			return layer
		}
	}
	if sawRepro {
		return "other"
	}
	return "runtime"
}

// attribute sums a CPU profile's sample time per layer, in ns, and
// returns the seconds of samples taken outside timed calls.
func attribute(gz []byte) (perLayer map[string]float64, unlabelled float64, err error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, fmt.Errorf("reading CPU profile: %w", err)
	}
	perLayer = map[string]float64{}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			frames = append(frames, p.locFuncs[loc]...)
		}
		perLayer[layerOfStack(frames)] += float64(s.ns)
		if !s.timed {
			unlabelled += float64(s.ns) / 1e9
		}
	}
	return perLayer, unlabelled, nil
}

// profile is the part of a pprof profile attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type sample struct {
	locs  []uint64 // innermost first
	ns    int64
	timed bool
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes.
// Field numbers follow github.com/google/pprof/proto/profile.proto.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		strs    []string
		samples []rawSample
		locLine = map[uint64][]uint64{} // location → function ids
		funcs   = map[uint64]int64{}    // function id → name index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var kv [2]int64
					err := fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fnIDs []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line, innermost inlined call first
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fnIDs = append(fnIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			locLine[id] = fnIDs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	for id, fnIDs := range locLine {
		for _, f := range fnIDs {
			p.locFuncs[id] = append(p.locFuncs[id], str(funcs[f]))
		}
	}
	for _, rs := range samples {
		if len(rs.values) < 2 {
			return nil, errors.New("sample without a cpu value")
		}
		s := sample{locs: rs.locs, ns: rs.values[1]}
		for _, kv := range rs.labels {
			s.timed = s.timed || str(kv[0]) == timedLabel
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := varint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, given either one
// unpacked value (b == nil) or a packed run.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

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
