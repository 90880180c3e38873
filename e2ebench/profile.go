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

// This file reads the gzipped profile.proto files runtime/pprof writes
// (the format `go tool pprof` reads) with the standard library alone, and
// attributes each sample to a layer of the repository.

// profile is the subset of profile.proto attribution needs.
type profile struct {
	sampleUnits []string            // unit of each sample value
	samples     []sample            // location ids leaf first, values
	locations   map[uint64][]string // location id -> function names, innermost inlined first
}

type sample struct {
	locations []uint64
	values    []int64
}

// parseProfile decodes a gzipped (or raw) profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}
	var (
		strs      []string
		unitIdx   []int64
		funcNames = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
		p         = &profile{locations: map[uint64][]string{}}
	)
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 2 {
					unitIdx = append(unitIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locations, w, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) (string, error) {
		if i < 0 || i >= int64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}
	for _, i := range unitIdx {
		u, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleUnits = append(p.sampleUnits, u)
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for k, fid := range fns {
			n, err := str(funcNames[fid])
			if err != nil {
				return nil, err
			}
			names[k] = n
		}
		p.locations[id] = names
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: v holds a
// varint or fixed value, b the bytes of a length-delimited one.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may be packed.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

const (
	repoPrefix    = "deisago/internal/"
	runtimeBucket = "go_runtime"
)

// layerOf returns the repository layer a function belongs to, or "" for
// functions outside deisago/internal (the runtime, the standard library,
// the benchmark itself).
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute sums the profile's nanosecond value per layer. Each sample
// goes to the innermost deisago/internal/<layer> frame on its stack, so
// runtime and GC frames fold into the layer that called them; samples
// with no repository frame go to go_runtime.
func (p *profile) attribute() (map[string]float64, error) {
	vi := -1
	for i, u := range p.sampleUnits {
		if u == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no nanoseconds value (units %v)", p.sampleUnits)
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample with too few values")
		}
		out[p.layerOfStack(s.locations)] += float64(s.values[vi])
	}
	return out, nil
}

func (p *profile) layerOfStack(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			if l := layerOf(fn); l != "" {
				return l
			}
		}
	}
	return runtimeBucket
}
