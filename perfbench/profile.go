package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// CPU attribution from outside the program: the traced run records a
// runtime/pprof CPU profile over its measured phase (sweep children record
// their own), and this file decodes the profile's protobuf directly — the
// standard library writes the format but ships no reader.
//
// A sample is charged to the innermost internal/ package on its stack, so
// standard-library work a layer calls (JSON, hashing, allocation) counts
// as that layer's. Samples under the runtime's garbage collector go to
// "gc", samples with no internal/ frame (HTTP plumbing, the benchmark's
// own client) to "other".

const internalPrefix = "github.com/embodiedai/create/internal/"

// gcFrames mark a sample as garbage-collector work wherever they appear
// on its stack (background marking, sweeping and mutator assists).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot",
}

// attributeProfile adds the profile's CPU seconds to into, keyed by layer.
func attributeProfile(path string, into map[string]float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := decodeProfile(data)
	if err != nil {
		return fmt.Errorf("profile %s: %w", path, err)
	}
	for _, s := range p.samples {
		into[p.layerOf(s.locs)] += float64(s.nanos) / 1e9
	}
	return nil
}

type pprofSample struct {
	locs  []uint64
	nanos int64
}

type pprofProfile struct {
	samples []pprofSample
	locFns  map[uint64][]uint64 // location ID -> function IDs, innermost first
	fnName  map[uint64]int64    // function ID -> string table index
	strs    []string
}

func (p *pprofProfile) layerOf(locs []uint64) string {
	inner := ""
	for _, l := range locs {
		for _, fn := range p.locFns[l] {
			name := p.str(p.fnName[fn])
			for _, g := range gcFrames {
				if strings.HasPrefix(name, g) {
					return "gc"
				}
			}
			if inner == "" && strings.HasPrefix(name, internalPrefix) {
				pkg := strings.TrimPrefix(name, internalPrefix)
				if i := strings.IndexAny(pkg, "./"); i >= 0 {
					pkg = pkg[:i]
				}
				inner = pkg
			}
		}
	}
	if inner == "" {
		return "other"
	}
	return inner
}

func (p *pprofProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// Field numbers of profile.proto used here.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFns: map[uint64][]uint64{}, fnName: map[uint64]int64{}}
	err := walkFields(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case profSample:
			var s pprofSample
			var values []uint64
			err := walkFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case sampleLocation:
					return appendRepeated(&s.locs, v, m)
				case sampleValue:
					return appendRepeated(&values, v, m)
				}
				return nil
			})
			if err != nil {
				return err
			}
			// CPU profiles carry [samples, nanoseconds]; the last is time.
			if len(values) > 0 {
				s.nanos = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			err := walkFields(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return walkFields(m, func(lf int, lv uint64, _ []byte) error {
						if lf == lineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFns[id] = fns
		case profFunction:
			var id uint64
			var name int64
			err := walkFields(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.fnName[id] = name
		case profStrings:
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

// appendRepeated handles both encodings of a repeated integer field: one
// varint per occurrence, or a packed length-delimited run.
func appendRepeated(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// walkFields calls fn for each field of a protobuf message: varints pass
// their value, length-delimited fields their bytes (non-nil, possibly
// empty). Fixed-width fields are skipped.
func walkFields(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field tag")
		}
		b = b[n:]
		field, wire := int(tag>>3), tag&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			msg := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}
