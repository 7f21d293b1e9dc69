package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The workload-separation check needs each layer's share of host time
// inside calls the benchmark cannot split from outside (scenario.Run, the
// server's request path). A CPU profile of the traced phase gives it: each
// sample is charged to the innermost frame that belongs to a package of this
// repository, so runtime work (memclr, malloc, GC assists) counts toward the
// layer that caused it. Samples with no such frame count as "runtime".

// cpuProfile records a CPU profile until stop is called.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and adds each layer's sampled CPU time to weights.
func (p *cpuProfile) stop(weights map[string]int64) error {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	return layerWeights(raw, weights)
}

// shares turns per-layer sampled time into fractions of the total.
func shares(weights map[string]int64) map[string]float64 {
	var total int64
	for _, w := range weights {
		total += w
	}
	out := map[string]float64{}
	for l, w := range weights {
		out[l] = float64(w) / float64(total)
	}
	return out
}

const modulePrefix = "dmt/internal/"

// layerOfFunc maps a symbol to its layer: the package path below
// dmt/internal ("pagetable", "baseline/ecpt"), "bench" for this program's
// own code, or "" for anything else.
func layerOfFunc(name string) string {
	if strings.HasPrefix(name, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(name, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '.'); i > 0 {
		return rest[:i]
	}
	return rest
}

// layerWeights decodes an uncompressed profile.proto message and adds the
// sampled time of each layer to byLayer.
func layerWeights(raw []byte, byLayer map[string]int64) error {
	var (
		samples [][]uint64 // location ids, leaf first
		weights []int64
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err := eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&locs, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			w := int64(1)
			if len(vals) > 0 {
				w = vals[len(vals)-1] // CPU profiles: [samples, nanoseconds]
			}
			samples = append(samples, locs)
			weights = append(weights, w)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
			locFns[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("decoding CPU profile: %w", err)
	}
	for i, locs := range samples {
		layer := "runtime"
	find:
		for _, l := range locs {
			for _, f := range locFns[l] {
				idx := fnName[f]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if got := layerOfFunc(strs[idx]); got != "" {
					layer = got
					break find
				}
			}
		}
		byLayer[layer] += weights[i]
	}
	return nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, handing varints as v
// and length-delimited fields as b.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either as one varint
// or as a packed run.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
