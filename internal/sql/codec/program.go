package codec

import (
	"encoding/binary"
	"math"
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
// A record takes the program's fast path when its one-byte arity matches and
// each cell carries the tag its step expects: a read column's own tag, and an
// unread int64 or string column's too. A read int64 is one word load, an
// unread int64 is stepped over by its stop bit and an unread string by its
// one-byte length; an unread column of another kind is stepped over whatever
// its tag, as the general decoder steps over it. Every other record goes
// whole to DecodeRowToBatchShared, the general decoder, which keeps its
// answers: a NULL, a cell whose type drifts, a 9- or 10-byte varint, a
// string of 128 bytes or more, a malformed cell, a record too near the end
// of the run's bytes. A fast-path record lands exactly as the general
// decoder would land it, so the program only decides how fast a record
// decodes, never what it decodes to.
type DecodeProgram struct {
	fast  bool // false when no record can take the fast path
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

// boundStep is a step with its column's vector, for one run.
type boundStep struct {
	op stepOp
	v  *vec.Vector
}

// DecodeRun decodes the records of one bus run — record k is
// vals[ends[k]:ends[k+1]] — into cols from slot n on, and returns the slot
// after the last record that landed. cols has the layout CompileDecode was
// given, and nrows is the batch's slot count. compat=false is the general
// decoder's: a record's type drifts in a kept column, and the caller must
// redo the batch boxed.
//
// vals must be the whole slab the run's records sit in, never mutated: the
// fast path reads up to runMargin bytes past a record's end — later records —
// and string cells alias vals.
func (p *DecodeProgram) DecodeRun(vals []byte, ends []uint32, cols []*vec.Vector, n, nrows int) (int, bool) {
	var buf [16]boundStep
	steps := buf[:0]
	for _, st := range p.steps {
		steps = append(steps, boundStep{op: st.op, v: cols[st.col]})
	}
	lim := len(vals) - runMargin
	if !p.fast {
		lim = -1
	}
	for k := 1; k < len(ends); k++ {
		start, end := int(ends[k-1]), int(ends[k])
		if end <= lim {
			if vals[start] != p.arity {
				goto general
			}
			pos := start + 1
			for _, st := range steps {
				// A cell starts inside its record, so its loads stay inside
				// the run's bytes.
				if pos >= end {
					goto general
				}
				tag := vals[pos]
				switch st.op {
				case opInt64:
					if tag != tagInt64 {
						goto general
					}
					x, w := sql.UvarintWord(vals[pos+1:])
					if w == 0 {
						goto general
					}
					st.v.Int64s[n] = sql.Unzigzag(x)
					pos += 1 + w
				case opSkipInt64:
					if tag != tagInt64 {
						goto general
					}
					w := sql.UvarintWordLen(vals[pos+1:])
					if w == 0 {
						goto general
					}
					pos += 1 + w
				case opString:
					l := int(vals[pos+1])
					// The length is checked now, not at the record's end:
					// the cell must not alias bytes past the record.
					if tag != tagString || l >= 0x80 || pos+2+l > end {
						goto general
					}
					if l > 0 {
						st.v.Strings[n] = unsafe.String(&vals[pos+2], l)
					} else {
						st.v.Strings[n] = ""
					}
					pos += 2 + l
				case opSkipString:
					l := int(vals[pos+1])
					if tag != tagString || l >= 0x80 {
						goto general
					}
					pos += 2 + l
				case opFloat64:
					if tag != tagFloat64 {
						goto general
					}
					st.v.Float64s[n] = math.Float64frombits(binary.BigEndian.Uint64(vals[pos+1:]))
					pos += 9
				case opBool:
					if tag != tagTrue && tag != tagFalse {
						goto general
					}
					st.v.Bools[n] = tag == tagTrue
					pos++
				case opWindow:
					if tag != tagWindow {
						goto general
					}
					s, w1 := sql.UvarintWord(vals[pos+1:])
					e, w2 := sql.UvarintWord(vals[pos+1+w1:])
					if w1 == 0 || w2 == 0 {
						goto general
					}
					st.v.WStarts[n], st.v.WEnds[n] = sql.Unzigzag(s), sql.Unzigzag(e)
					pos += 1 + w1 + w2
				case opSkipValue:
					if pos = sql.SkipValue(vals, pos); pos < 0 {
						goto general
					}
				}
			}
			// The last cell may still end past the record. If it does not,
			// every step decided on the record's own bytes, as the general
			// decoder would have.
			if pos <= end {
				n++
				continue
			}
		}
	general:
		added, compat := DecodeRowToBatchShared(vals[start:end:end], cols, n, nrows)
		if !compat {
			return n, false
		}
		if added {
			n++
		}
	}
	return n, true
}
