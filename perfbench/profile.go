package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
)

// layers are the repo packages on the training-iteration path, plus
// "runtime" for samples with no layer frame (GC, scheduler, syscalls
// outside any layer, and the benchmark's own code).
var layers = []string{"sim", "network", "engine", "core", "ps", "netps", "netar", "compress", "runner", "runtime"}

const repoPrefix = "bytescheduler/internal/"

// layerOf charges a stack, innermost function first, to the innermost
// frame whose package is a layer. Frames of the repo's helper packages
// (plugin, tensor, model, metrics, trace, stats) are passed over, so their
// cost lands on the layer that called them; a mallocgc or syscall under
// netps.encode counts to netps.
func layerOf(funcs []string) string {
	for _, fn := range funcs {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
	}
	return "runtime"
}

// cpuByLayer decodes a gzipped pprof CPU profile and returns CPU
// nanoseconds per layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	nanos := -1
	for i, st := range p.sampleTypes {
		if p.str(st[0]) == "cpu" && p.str(st[1]) == "nanoseconds" {
			nanos = i
		}
	}
	if nanos < 0 {
		return nil, errors.New("cpu profile: no cpu/nanoseconds sample type")
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		if nanos >= len(s.values) {
			return nil, errors.New("cpu profile: short sample")
		}
		var funcs []string
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				funcs = append(funcs, p.str(p.functions[fn]))
			}
		}
		out[layerOf(funcs)] += int64(s.values[nanos])
	}
	return out, nil
}

// allocs is the raw (sampled) allocation count of one profile stack.
type allocs struct{ bytes, objects int64 }

// memProfile returns the runtime's sampled allocations keyed by the
// innermost 32 frames of their stack. The profile is published at the end
// of a GC cycle, so callers run the collector first.
func memProfile() map[[32]uintptr]allocs {
	recs := make([]runtime.MemProfileRecord, 1024)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			out := make(map[[32]uintptr]allocs, n)
			for _, r := range recs[:n] {
				a := out[r.Stack0]
				a.bytes += r.AllocBytes
				a.objects += r.AllocObjects
				out[r.Stack0] = a
			}
			return out
		}
		recs = make([]runtime.MemProfileRecord, n+n/4+64)
	}
}

// allocByLayer returns the bytes allocated per layer between two memProfile
// snapshots, unsampled the way pprof scales heap samples taken at the
// given runtime.MemProfileRate.
func allocByLayer(before, after map[[32]uintptr]allocs, rate int) map[string]float64 {
	out := map[string]float64{}
	for stack, a := range after {
		b := before[stack]
		count, size := a.objects-b.objects, a.bytes-b.bytes
		if count <= 0 || size <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(size)/float64(count)/float64(rate)))
		}
		pcs := stack[:]
		if i := slices.Index(pcs, 0); i >= 0 {
			pcs = pcs[:i]
		}
		var funcs []string
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		out[layerOf(funcs)] += float64(size) * scale
	}
	return out
}

// profile is the part of a pprof profile (profile.proto) that per-layer
// attribution needs.
type profile struct {
	sampleTypes [][2]uint64 // (type, unit) string indices
	samples     []pbSample
	locations   map[uint64][]uint64 // location id → function ids, innermost inlined first
	functions   map[uint64]uint64   // function id → name string index
	strings     []string
}

type pbSample struct {
	locations []uint64 // leaf first
	values    []uint64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

// decodeProfile reads the fields of an uncompressed profile.proto message
// that cpuByLayer uses and skips the rest.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var st [2]uint64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = v
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case 2: // sample
			var s pbSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return appendRepeated(&s.locations, v, d)
				case 2:
					return appendRepeated(&s.values, v, d)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendRepeated appends a repeated varint field in either encoding:
// packed (data set) or one value per field (v).
func appendRepeated(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField calls fn for every field of a protobuf message: varints and
// fixed-width values arrive in v, length-delimited fields in data
// (non-nil, possibly empty).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("short fixed field")
			}
			for i := w - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errors.New("bad length")
			}
			data = b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
