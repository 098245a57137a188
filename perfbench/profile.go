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

// layers are the buckets of the CPU layer budget, in report order. Every
// profile sample lands in exactly one, so the shares sum to 1.
var layers = []string{"sim", "netsim", "core", "serve", "workload", "wire", "udpnet", "runtime", "other"}

// layerOf maps a function's package to its layer. topology is the fat-tree
// model netsim routes over, so it counts as netsim.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "onepipe/internal/sim":
		return "sim"
	case pkg == "onepipe/internal/netsim", pkg == "onepipe/internal/topology":
		return "netsim"
	case pkg == "onepipe/internal/core":
		return "core"
	case pkg == "onepipe/internal/serve":
		return "serve"
	case pkg == "onepipe/internal/workload":
		return "workload"
	case pkg == "onepipe/internal/wire":
		return "wire"
	case pkg == "onepipe/internal/udpnet":
		return "udpnet"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// packageOf extracts the import path from a symbol name such as
// "onepipe/internal/sim.(*Engine).pop".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isSyscall(fn string) bool {
	pkg := packageOf(fn)
	return pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/syscall/unix"
}

// budget is CPU profile time bucketed by layer on flat (leaf) time.
type budget struct {
	samples int64 // profiling ticks
	ns      map[string]int64
	total   int64
	// syscall is the time of samples with a syscall frame anywhere on the
	// stack.
	syscall int64
}

func (b *budget) add(o budget) {
	if b.ns == nil {
		b.ns = map[string]int64{}
	}
	b.samples += o.samples
	b.total += o.total
	b.syscall += o.syscall
	for k, v := range o.ns {
		b.ns[k] += v
	}
}

// share returns the layer's share of profiled CPU time; the shares of all
// layers sum to 1.
func (b budget) share(layer string) float64 { return ratio(float64(b.ns[layer]), float64(b.total)) }

// layerBudget parses a gzipped pprof CPU profile as runtime/pprof writes
// it. Only the fields needed for flat attribution are decoded: samples,
// locations, functions and the string table.
func layerBudget(gz []byte) (budget, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return budget{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return budget{}, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return budget{}, err
	}
	name := func(fid uint64) string {
		if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	b := budget{ns: map[string]int64{}}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		b.samples += s.vals[0]     // profiling ticks
		w := s.vals[len(s.vals)-1] // cpu nanoseconds
		b.total += w
		leaf := "other"
		if len(s.locs) > 0 {
			if fns := locFns[s.locs[0]]; len(fns) > 0 {
				leaf = layerOf(name(fns[0]))
			}
		}
		b.ns[leaf] += w
	stack:
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if isSyscall(name(f)) {
					b.syscall += w
					break stack
				}
			}
		}
	}
	return b, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
		default:
			return errBadProfile
		}
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
