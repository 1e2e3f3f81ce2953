package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file reads the pprof profiles runtime/pprof writes (CPU and
// allocation profiles alike) without the pprof tool: a gzip stream
// holding one profile.proto message, of which only sample types,
// samples, locations, functions and the string table are needed.

// profile is a decoded pprof profile, reduced to what attribution uses.
type profile struct {
	sampleTypes []string
	samples     []sample
}

// sample is one stack, innermost frame first, with its values in
// sampleTypes order.
type sample struct {
	stack  []frame
	values []int64
}

// valueIndex finds the sample value named typ ("cpu", "alloc_objects").
func (p *profile) valueIndex(typ string) (int, error) {
	for i, t := range p.sampleTypes {
		if t == typ {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q samples (have %v)", typ, p.sampleTypes)
}

// profile.proto field numbers used below.
const (
	fieldProfileSampleType = 1
	fieldProfileSample     = 2
	fieldProfileLocation   = 4
	fieldProfileFunction   = 5
	fieldProfileString     = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
	fieldFunctionFile = 4

	fieldValueTypeType = 1
)

var errTruncated = errors.New("truncated protobuf message")

// parseProfile decodes a gzipped or plain profile.proto message.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs    []string
		types   []uint64 // string index of each sample type
		samples []rawSample
		locs    = make(map[uint64][]uint64)  // location id -> function ids, innermost first
		funcs   = make(map[uint64][2]uint64) // function id -> (name, file) string indexes
	)
	d := decoder{b: data}
	for !d.done() {
		field, wire := d.key()
		switch {
		case field == fieldProfileSampleType && wire == 2:
			m := decoder{b: d.bytes()}
			var typ uint64
			for !m.done() {
				if f, w := m.key(); f == fieldValueTypeType && w == 0 {
					typ = m.varint()
				} else {
					m.skip(w)
				}
			}
			types = append(types, typ)
			d.absorb(&m)
		case field == fieldProfileSample && wire == 2:
			m := decoder{b: d.bytes()}
			var s rawSample
			for !m.done() {
				switch f, w := m.key(); f {
				case fieldSampleLocation:
					s.locs = m.uints(w, s.locs)
				case fieldSampleValue:
					s.values = m.uints(w, s.values)
				default:
					m.skip(w)
				}
			}
			samples = append(samples, s)
			d.absorb(&m)
		case field == fieldProfileLocation && wire == 2:
			m := decoder{b: d.bytes()}
			var id uint64
			var fns []uint64
			for !m.done() {
				switch f, w := m.key(); {
				case f == fieldLocationID && w == 0:
					id = m.varint()
				case f == fieldLocationLine && w == 2:
					line := decoder{b: m.bytes()}
					for !line.done() {
						if lf, lw := line.key(); lf == fieldLineFunction && lw == 0 {
							fns = append(fns, line.varint())
						} else {
							line.skip(lw)
						}
					}
					m.absorb(&line)
				default:
					m.skip(w)
				}
			}
			locs[id] = fns
			d.absorb(&m)
		case field == fieldProfileFunction && wire == 2:
			m := decoder{b: d.bytes()}
			var id uint64
			var nameFile [2]uint64
			for !m.done() {
				switch f, w := m.key(); {
				case f == fieldFunctionID && w == 0:
					id = m.varint()
				case f == fieldFunctionName && w == 0:
					nameFile[0] = m.varint()
				case f == fieldFunctionFile && w == 0:
					nameFile[1] = m.varint()
				default:
					m.skip(w)
				}
			}
			funcs[id] = nameFile
			d.absorb(&m)
		case field == fieldProfileString && wire == 2:
			strs = append(strs, string(d.bytes()))
		default:
			d.skip(wire)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("profile: %w", d.err)
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of %d", i, len(strs))
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, t := range types {
		s, err := str(t)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	stacks := make(map[uint64][]frame, len(locs))
	for id, fns := range locs {
		for _, fid := range fns {
			nf, ok := funcs[fid]
			if !ok {
				return nil, fmt.Errorf("profile: location %d names unknown function %d", id, fid)
			}
			name, err := str(nf[0])
			if err != nil {
				return nil, err
			}
			file, err := str(nf[1])
			if err != nil {
				return nil, err
			}
			stacks[id] = append(stacks[id], frame{fn: name, file: file})
		}
	}
	for _, rs := range samples {
		if len(rs.values) != len(p.sampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(rs.values), len(p.sampleTypes))
		}
		s := sample{values: make([]int64, len(rs.values))}
		for i, v := range rs.values {
			s.values[i] = int64(v)
		}
		for _, l := range rs.locs {
			fs, ok := stacks[l]
			if !ok {
				return nil, fmt.Errorf("profile: sample names unknown location %d", l)
			}
			s.stack = append(s.stack, fs...)
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// decoder walks one protobuf message; the first malformed field sets err
// and stops it.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) done() bool { return len(d.b) == 0 || d.err != nil }

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errTruncated
	}
	d.b = nil
}

// absorb carries a sub-message decoder's error into d.
func (d *decoder) absorb(sub *decoder) {
	if sub.err != nil {
		d.err = sub.err
		d.b = nil
	}
}

func (d *decoder) varint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// key reads a field key: the field number and the wire type.
func (d *decoder) key() (field, wire int) {
	k := d.varint()
	return int(k >> 3), int(k & 7)
}

// bytes reads a length-delimited field.
func (d *decoder) bytes() []byte {
	n := d.varint()
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

func (d *decoder) advance(n int) {
	if n > len(d.b) {
		d.fail()
		return
	}
	d.b = d.b[n:]
}

// skip discards a field of the given wire type.
func (d *decoder) skip(wire int) {
	switch wire {
	case 0:
		d.varint()
	case 1:
		d.advance(8)
	case 2:
		d.bytes()
	case 5:
		d.advance(4)
	default:
		d.fail()
	}
}

// uints appends a repeated varint field, packed (wire type 2) or not.
func (d *decoder) uints(wire int, dst []uint64) []uint64 {
	switch wire {
	case 0:
		return append(dst, d.varint())
	case 2:
		m := decoder{b: d.bytes()}
		for !m.done() {
			dst = append(dst, m.varint())
		}
		d.absorb(&m)
	default:
		d.fail()
	}
	return dst
}
