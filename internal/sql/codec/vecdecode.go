package codec

import (
	"encoding/binary"
	"math"
	"unsafe"

	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// Typed append methods: each writes exactly the bytes PutValue would for
// the corresponding boxed value, so columnar callers (grouping-key
// encoding, shuffle payloads) can skip boxing without changing a single
// byte on the wire or in state files.

// PutNull appends an SQL NULL.
func (e *Encoder) PutNull() { e.buf = sql.AppendNull(e.buf) }

// PutBool appends a bool without boxing.
func (e *Encoder) PutBool(v bool) { e.buf = sql.AppendBool(e.buf, v) }

// PutInt64 appends an int64 without boxing.
func (e *Encoder) PutInt64(v int64) { e.buf = sql.AppendInt64(e.buf, v) }

// PutFloat64 appends a float64 without boxing.
func (e *Encoder) PutFloat64(v float64) { e.buf = sql.AppendFloat64(e.buf, v) }

// PutString appends a string without boxing.
func (e *Encoder) PutString(v string) { e.buf = sql.AppendString(e.buf, v) }

// PutWindow appends a window without boxing.
func (e *Encoder) PutWindow(start, end int64) { e.buf = sql.AppendWindow(e.buf, start, end) }

// PutVectorValue appends position i of a column vector, boxing only for
// KindAny columns.
func (e *Encoder) PutVectorValue(v *vec.Vector, i int) {
	if v.Kind != vec.KindAny && v.Nulls.Get(i) {
		e.PutNull()
		return
	}
	switch v.Kind {
	case vec.KindInt64:
		e.PutInt64(v.Int64s[i])
	case vec.KindFloat64:
		e.PutFloat64(v.Float64s[i])
	case vec.KindBool:
		e.PutBool(v.Bools[i])
	case vec.KindString:
		e.PutString(v.Strings[i])
	case vec.KindWindow:
		e.PutWindow(v.WStarts[i], v.WEnds[i])
	default:
		e.PutValue(v.Anys[i])
	}
}

// DecodeRowToBatchShared decodes one length-prefixed encoded row straight into
// typed column vectors at row slot i, without the per-row sql.Row allocation
// and per-cell boxing of DecodeRow. It is the general decoder a
// DecodeProgram hands every record its steps do not take.
//
//   - added=true, compat=true: the row landed in slot i.
//   - added=false, compat=true: the row is malformed or has the wrong
//     arity; the caller skips it, exactly as the boxed decode path does,
//     and slot i is left clean for reuse.
//   - compat=false: the row is well-formed but a value's wire tag does
//     not match its column's vector kind. Typed vectors cannot represent
//     it, and silently skipping would diverge from the row path (which
//     keeps such rows), so the caller must redo the whole batch boxed.
//
// A nil entry in cols is a column the caller does not read: its value is
// validated and stepped over, whatever its tag. A record malformed inside
// such a column still drops (the boxed decoder would reject it, and the two
// paths must keep the same rows); a record whose type drifts there is kept,
// because no reader of the batch can see the drifted cell.
//
// Strings are zero-copy: string cells alias buf instead of copying it,
// so the columnar decode path allocates nothing per row. The caller
// must guarantee buf is never mutated after the call — the message bus's
// append-once records satisfy this, a reused read buffer does not. The
// garbage collector keeps the backing array live for as long as any
// aliasing string is, so lifetime needs no management beyond that rule.
func DecodeRowToBatchShared(buf []byte, cols []*vec.Vector, i int, nrows int) (added, compat bool) {
	n, w := sql.Uvarint(buf)
	pos := w
	if w <= 0 || int(n) != len(cols) {
		return false, true
	}
	for c := 0; c < len(cols); c++ {
		if pos >= len(buf) {
			return abandonRow(cols, i, c)
		}
		col := cols[c]
		if col == nil {
			if pos = sql.SkipValue(buf, pos); pos < 0 {
				return abandonRow(cols, i, c)
			}
			continue
		}
		tag := buf[pos]
		pos++
		if tag == tagNull {
			if col.Kind == vec.KindAny {
				col.Anys[i] = nil
			} else {
				col.SetNull(i, nrows)
			}
			continue
		}
		switch col.Kind {
		case vec.KindInt64:
			if tag != tagInt64 {
				return false, false
			}
			// The reader's word path, inlined: a call per cell gave back an
			// eighth of the word's gain on map-bulk's record and a third on
			// the Yahoo! event's (BenchmarkDecodeVec).
			ux, vw := sql.UvarintWord(buf[pos:])
			if vw == 0 {
				if ux, vw = sql.Uvarint(buf[pos:]); vw <= 0 {
					return abandonRow(cols, i, c)
				}
			}
			pos += vw
			col.Int64s[i] = sql.Unzigzag(ux)
		case vec.KindFloat64:
			if tag != tagFloat64 {
				return false, false
			}
			if pos+8 > len(buf) {
				return abandonRow(cols, i, c)
			}
			col.Float64s[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[pos:]))
			pos += 8
		case vec.KindBool:
			switch tag {
			case tagTrue:
				col.Bools[i] = true
			case tagFalse:
				col.Bools[i] = false
			default:
				return false, false
			}
		case vec.KindString:
			if tag != tagString {
				return false, false
			}
			sl, sw := sql.Uvarint(buf[pos:])
			if sw <= 0 || sl > uint64(len(buf)-pos-sw) { // compared unsigned: int(sl) can wrap negative
				return abandonRow(cols, i, c)
			}
			pos += sw
			if sl > 0 {
				col.Strings[i] = unsafe.String(&buf[pos], int(sl))
			} else {
				col.Strings[i] = ""
			}
			pos += int(sl)
		case vec.KindWindow:
			if tag != tagWindow {
				return false, false
			}
			start, w1 := sql.Varint(buf[pos:])
			if w1 <= 0 {
				return abandonRow(cols, i, c)
			}
			pos += w1
			end, w2 := sql.Varint(buf[pos:])
			if w2 <= 0 {
				return abandonRow(cols, i, c)
			}
			pos += w2
			col.WStarts[i] = start
			col.WEnds[i] = end
		default: // KindAny: decode boxed
			d := Decoder{buf: buf, off: pos - 1}
			v, err := d.Value()
			if err != nil {
				return abandonRow(cols, i, c)
			}
			pos = d.off
			col.Anys[i] = v
		}
	}
	return true, true
}

// abandonRow clears any null bits the partial decode left in slot i of
// the first c columns so the slot can host the next record.
func abandonRow(cols []*vec.Vector, i, c int) (bool, bool) {
	for j := 0; j < c; j++ {
		if cols[j] == nil {
			continue
		}
		if cols[j].Kind == vec.KindAny {
			cols[j].Anys[i] = nil
		} else {
			cols[j].Nulls.Clear(i)
		}
	}
	return false, true
}

// VectorKeyString appends the encoded form of one grouping key drawn
// from key column vectors at position i, reusing the encoder's buffer.
// The bytes are identical to KeyString over the boxed values.
func VectorKeyString(e *Encoder, keys []*vec.Vector, i int) {
	for _, k := range keys {
		e.PutVectorValue(k, i)
	}
}

// HashVec computes the shuffle-routing hash of the grouping key drawn
// from key column vectors at position i, reusing the encoder's buffer.
// The result equals HashKey over the boxed key values bit for bit — the
// columnar exchange and the row path must route every key to the same
// partition.
func HashVec(e *Encoder, keys []*vec.Vector, i int) uint64 {
	e.Reset()
	VectorKeyString(e, keys, i)
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range e.Bytes() {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
