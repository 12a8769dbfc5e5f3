package codec

import (
	"encoding/binary"
	"math"
	"sort"
	"unsafe"

	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// A DecodeProgram decodes the bus records of one schema, with one set of
// columns read, straight into typed vectors: the decode-side counterpart of
// the closures the planner fuses (Tungsten's whole-stage code generation in
// the paper). It is compiled once, with one step per column, and run over a
// whole run of records in one call.
//
// The run is decoded column by column, a span of up to spanLen records at a
// time: each step is one tight loop over the span with a cursor per record,
// so its switch is paid once a span and the loads of neighbouring records
// overlap. A record takes a step when its one-byte arity matches and its
// cell carries the tag the step expects: a read column's own tag, and an
// unread int64 or string column's too. A read int64 is one word load, an
// unread int64 is stepped over by its stop bit and an unread string by its
// one-byte length; an unread column of another kind is stepped over whatever
// its tag, as the general decoder steps over it.
//
// A record that cannot take a step ends its span: a NULL, a cell whose type
// drifts, a 9- or 10-byte varint, a string of 128 bytes or more, a malformed
// cell, a record too near the end of the run's bytes. The records ahead of it
// finish the remaining steps, and it goes alone to DecodeRowToBatchShared,
// the general decoder, which keeps its answers. A record that takes every
// step lands exactly as the general decoder would land it, so the program
// only decides how fast a record decodes, never what it decodes to.
type DecodeProgram struct {
	fast  bool // false when no record can take the steps
	arity byte
	steps []decodeStep
}

type decodeStep struct {
	op  stepOp
	col int // schema position
}

type stepOp uint8

const (
	opInt64 stepOp = iota // read int64 or timestamp
	opFloat64
	opBool
	opString
	opWindow
	opSkipInt64
	opSkipString
	opSkipValue // an unread column of another kind: any well-formed value
)

// readOps is the step that reads a column of each typed kind.
var readOps = map[vec.Kind]stepOp{
	vec.KindInt64:   opInt64,
	vec.KindFloat64: opFloat64,
	vec.KindBool:    opBool,
	vec.KindString:  opString,
	vec.KindWindow:  opWindow,
}

// runMargin is how many bytes of the run must follow a fast-path record: a
// cell starts before the record's end, and its loads reach at most 16 bytes
// past its start (a window's tag and two 8-byte varint words).
const runMargin = 16

// CompileDecode compiles the program for schema, reading the columns keep
// marks (nil reads all of them) — the layout vec.GetBatch gives a batch for
// the same arguments.
func CompileDecode(schema sql.Schema, keep []bool) *DecodeProgram {
	p := &DecodeProgram{fast: schema.Len() < 0x80, arity: byte(schema.Len())}
	for c := 0; c < schema.Len(); c++ {
		kind := vec.KindOf(schema.Field(c).Type)
		read := keep == nil || keep[c]
		op := opSkipValue
		switch {
		case kind == vec.KindAny:
			// A read cell of no fixed type is boxed: the general decoder's job.
			p.fast = p.fast && !read
		case read:
			op = readOps[kind]
		case kind == vec.KindInt64:
			op = opSkipInt64
		case kind == vec.KindString:
			op = opSkipString
		}
		p.steps = append(p.steps, decodeStep{op: op, col: c})
	}
	return p
}

// spanLen is the most records one span holds: long enough that a step's
// switch and set-up vanish per record, short enough that the cursors stay a
// stack array.
const spanLen = 256

// DecodeRun decodes the records of one bus run — record k is
// vals[ends[k]:ends[k+1]] — into cols from slot n on, and returns the slot
// after the last record that landed. cols has the layout CompileDecode was
// given, and nrows is the batch's slot count. compat=false is the general
// decoder's: a record's type drifts in a kept column, and the caller must
// redo the batch boxed.
//
// vals must be the whole slab the run's records sit in, never mutated: the
// steps read up to runMargin bytes past a record's end — later records — and
// string cells alias vals.
func (p *DecodeProgram) DecodeRun(vals []byte, ends []uint32, cols []*vec.Vector, n, nrows int) (int, bool) {
	var s span
	lim := len(vals) - runMargin
	for k := 0; k+1 < len(ends); {
		if p.fast {
			// A span's records all end by lim; only a run's last few do not.
			m := min(spanLen, len(ends)-1-k)
			if int(ends[k+m]) > lim {
				m = sort.Search(m, func(i int) bool { return int(ends[k+1+i]) > lim })
			}
			if m > 0 {
				landed := p.decodeSpan(&s, vals, ends[k:k+m+1], cols, n)
				n, k = n+landed, k+landed
				if landed == m {
					continue
				}
			}
		}
		// Record k cannot take the steps: it goes whole to the general
		// decoder.
		start, end := ends[k], ends[k+1]
		added, compat := DecodeRowToBatchShared(vals[start:end:end], cols, n, nrows)
		if !compat {
			return n, false
		}
		if added {
			n++
		}
		k++
	}
	return n, true
}

// A span is the cursors of up to spanLen consecutive records of a run, all
// of which end at least runMargin bytes before the slab does. A cell starts
// before its record's end, so every load a step makes from a cursor stays
// inside the slab: the bound is proven once for the span, and the loads
// are unchecked.
type span struct {
	base unsafe.Pointer // the slab's first byte
	end  []uint32       // record i ends at end[i]
	pos  [spanLen]uint32
}

func (s *span) byteAt(p uint32) byte { return *(*byte)(unsafe.Add(s.base, p)) }

// word is the eight bytes at p, the first in the low byte.
func (s *span) word(p uint32) uint64 {
	return binary.LittleEndian.Uint64(unsafe.Slice((*byte)(unsafe.Add(s.base, p)), 8))
}

// decodeSpan runs every step over the span's records — record i is
// vals[ends[i]:ends[i+1]] — into slots n on, and returns how many records
// landed: all of them, or those ahead of the first that could not take a
// step.
func (p *DecodeProgram) decodeSpan(s *span, vals []byte, ends []uint32, cols []*vec.Vector, n int) int {
	s.base, s.end = unsafe.Pointer(unsafe.SliceData(vals)), ends[1:]
	m := len(s.end)
	pos, end := s.pos[:m], s.end[:m]
	for i := range pos {
		if s.byteAt(ends[i]) != p.arity {
			m = i
			break
		}
		pos[i] = ends[i] + 1
	}
	for _, st := range p.steps {
		if m == 0 {
			return 0
		}
		v := cols[st.col]
		switch st.op {
		case opInt64:
			m = s.int64s(v.Int64s[n:], m)
		case opSkipInt64:
			m = s.skipInt64s(m)
		case opString:
			m = s.strings(v.Strings[n:], m)
		case opSkipString:
			m = s.skipStrings(m)
		case opFloat64:
			m = s.float64s(v.Float64s[n:], m)
		case opBool:
			m = s.bools(v.Bools[n:], m)
		case opWindow:
			m = s.windows(v.WStarts[n:], v.WEnds[n:], m)
		case opSkipValue:
			m = s.skipValues(vals, m)
		}
	}
	// The last cell may still end past its record. If it does not, every
	// step decided on the record's own bytes, as the general decoder would
	// have.
	for i, p := range pos[:m] {
		if p > end[i] {
			return i
		}
	}
	return m
}

// Each step below runs over the span's first m records and returns how many
// took it: m, or the index of the first that could not. A record that could
// not is left as it was, and so are those after it.

func (s *span) int64s(dst []int64, m int) int {
	pos, end, dst := s.pos[:m], s.end[:m], dst[:m]
	for i, p := range pos {
		if p >= end[i] || s.byteAt(p) != tagInt64 {
			return i
		}
		x, w := sql.WordUvarint(s.word(p + 1))
		if w == 0 {
			return i
		}
		dst[i] = sql.Unzigzag(x)
		pos[i] = p + 1 + uint32(w)
	}
	return m
}

func (s *span) skipInt64s(m int) int {
	pos, end := s.pos[:m], s.end[:m]
	for i, p := range pos {
		if p >= end[i] || s.byteAt(p) != tagInt64 {
			return i
		}
		w := sql.WordUvarintLen(s.word(p + 1))
		if w == 0 {
			return i
		}
		pos[i] = p + 1 + uint32(w)
	}
	return m
}

func (s *span) strings(dst []string, m int) int {
	pos, end, dst := s.pos[:m], s.end[:m], dst[:m]
	for i, p := range pos {
		if p >= end[i] {
			return i
		}
		tag, l := s.byteAt(p), uint32(s.byteAt(p+1))
		// The length is checked now, not at the record's end: the cell
		// must not alias bytes past the record.
		if tag != tagString || l >= 0x80 || p+2+l > end[i] {
			return i
		}
		if l > 0 {
			dst[i] = unsafe.String((*byte)(unsafe.Add(s.base, p+2)), l)
		} else {
			dst[i] = ""
		}
		pos[i] = p + 2 + l
	}
	return m
}

func (s *span) skipStrings(m int) int {
	pos, end := s.pos[:m], s.end[:m]
	for i, p := range pos {
		if p >= end[i] {
			return i
		}
		tag, l := s.byteAt(p), uint32(s.byteAt(p+1))
		if tag != tagString || l >= 0x80 {
			return i
		}
		pos[i] = p + 2 + l
	}
	return m
}

func (s *span) float64s(dst []float64, m int) int {
	pos, end, dst := s.pos[:m], s.end[:m], dst[:m]
	for i, p := range pos {
		if p >= end[i] || s.byteAt(p) != tagFloat64 {
			return i
		}
		dst[i] = math.Float64frombits(binary.BigEndian.Uint64(unsafe.Slice((*byte)(unsafe.Add(s.base, p+1)), 8)))
		pos[i] = p + 9
	}
	return m
}

func (s *span) bools(dst []bool, m int) int {
	pos, end, dst := s.pos[:m], s.end[:m], dst[:m]
	for i, p := range pos {
		if p >= end[i] {
			return i
		}
		tag := s.byteAt(p)
		if tag != tagTrue && tag != tagFalse {
			return i
		}
		dst[i] = tag == tagTrue
		pos[i] = p + 1
	}
	return m
}

func (s *span) windows(starts, stops []int64, m int) int {
	pos, end, starts, stops := s.pos[:m], s.end[:m], starts[:m], stops[:m]
	for i, p := range pos {
		if p >= end[i] || s.byteAt(p) != tagWindow {
			return i
		}
		a, w1 := sql.WordUvarint(s.word(p + 1))
		b, w2 := sql.WordUvarint(s.word(p + 1 + uint32(w1)))
		if w1 == 0 || w2 == 0 {
			return i
		}
		starts[i], stops[i] = sql.Unzigzag(a), sql.Unzigzag(b)
		pos[i] = p + 1 + uint32(w1+w2)
	}
	return m
}

func (s *span) skipValues(vals []byte, m int) int {
	pos, end := s.pos[:m], s.end[:m]
	for i, p := range pos {
		if p >= end[i] {
			return i
		}
		q := sql.SkipValue(vals, int(p))
		if q < 0 {
			return i
		}
		pos[i] = uint32(q)
	}
	return m
}
