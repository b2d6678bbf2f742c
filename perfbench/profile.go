package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// The CPU profile written by runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The benchmark reads only
// the fields it needs with a small wire-format reader, so it depends on
// nothing outside the standard library.

// Field numbers of profile.proto used below.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// profSampleRec is one sample: its call stack, leaf first, and its values
// (for a CPU profile: sample count, then CPU nanoseconds).
type profSampleRec struct {
	locs   []uint64
	values []int64
}

// cpuProfile is the decoded subset of a profile.
type cpuProfile struct {
	samples []profSampleRec
	// locFuncs maps a location id to its function names, innermost
	// inlined function first, as profile.proto orders Location.line.
	locFuncs map[uint64][]string
}

// parseProfile decodes a (possibly gzipped) pprof profile.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		locLines  = map[uint64][]uint64{} // location id -> function ids
		funcNames = map[uint64]int64{}    // function id -> string index
		p         = &cpuProfile{locFuncs: map[uint64][]string{}}
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s profSampleRec
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return appendPacked(&s.locs, v, b)
				case sampleValue:
					var vals []uint64
					if err := appendPacked(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for loc, funcs := range locLines {
		names := make([]string, len(funcs))
		for i, f := range funcs {
			if idx := funcNames[f]; idx >= 0 && idx < int64(len(strs)) {
				names[i] = strs[idx]
			}
		}
		p.locFuncs[loc] = names
	}
	return p, nil
}

var errWire = errors.New("profile: malformed protocol buffer")

// eachField calls fn for every field of one message: v carries varint and
// fixed-width values, b the payload of length-delimited fields.
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errWire
		}
		data = data[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var b []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errWire
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errWire
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 5:
			if len(data) < 4 {
				return errWire
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || l > uint64(len(data)-n) {
				return errWire
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		default:
			return errWire
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated scalar field, packed (b != nil) or not.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errWire
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// repoModule is the module path of the simulator.
const repoModule = "fastsim"

// layerOf maps a repository package path to the layer it is reported
// under. Direct execution steps each instruction through the emulator's
// functional model, so emulator samples are direct-execution time.
func layerOf(pkg string) string {
	switch name := strings.TrimPrefix(pkg, repoModule+"/internal/"); name {
	case "memo", "uarch", "direct", "cachesim", "bpred", "core", "isa", "program", "snapshot", "server", "obs":
		return name
	case "emulator":
		return "direct"
	}
	if pkg == repoModule+"/perfbench" {
		return "bench"
	}
	return "other"
}

// layers lists every layer a share is reported for, in report order:
// the simulator's packages, the benchmark's own code (bench), other
// repository packages (other), and samples with no repository frame at
// all (runtime: the Go runtime, GC and the standard library).
var layers = []string{"memo", "uarch", "direct", "cachesim", "bpred", "core", "isa", "program", "snapshot", "server", "obs", "bench", "other", "runtime"}

// funcPackage returns the package path of a symbol name such as
// "fastsim/internal/memo.(*Engine).run".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

func isRepoPackage(pkg string) bool {
	return pkg == repoModule || strings.HasPrefix(pkg, repoModule+"/")
}

// attribution is a profile's split of samples by layer.
type attribution struct {
	samples int64            // total samples
	cpuNs   int64            // total sampled CPU time
	byLayer map[string]int64 // samples per layer
}

// attribute credits each sample to the leaf-most frame in a repository
// package, so map, allocation and syscall frames count toward the repo
// function that called them. Samples with no repository frame go to
// "runtime".
func attribute(p *cpuProfile) attribution {
	a := attribution{byLayer: map[string]int64{}}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		a.samples += n
		if len(s.values) > 1 {
			a.cpuNs += s.values[1]
		}
		a.byLayer[sampleLayer(p, s.locs)] += n
	}
	return a
}

func sampleLayer(p *cpuProfile, locs []uint64) string {
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			if pkg := funcPackage(fn); isRepoPackage(pkg) {
				return layerOf(pkg)
			}
		}
	}
	return "runtime"
}

// share returns a layer's share of samples and its binomial sampling
// error sqrt(p(1-p)/n).
func (a attribution) share(layer string) (p, se float64) {
	if a.samples == 0 {
		return 0, 0
	}
	p = float64(a.byLayer[layer]) / float64(a.samples)
	return p, math.Sqrt(p * (1 - p) / float64(a.samples))
}
