// Package codec implements a compact binary encoding for rows and values.
// It plays the role of Spark's Tungsten binary format in the paper: state
// store keys and values, shuffle payloads, and checkpoint files all use this
// encoding instead of boxed Go values, and key encodings are byte-comparable
// for map lookups.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"structream/internal/sql"
)

// Value tags used on the wire. The tag encodes the dynamic type so rows
// round-trip without schema context.
const (
	tagNull byte = iota
	tagFalse
	tagTrue
	tagInt64
	tagFloat64
	tagString
	tagWindow
	tagBinary
)

// Encoder appends encoded values to a reusable buffer.
type Encoder struct{ buf []byte }

// NewEncoder returns an encoder with an optional pre-allocated capacity.
func NewEncoder(capacity int) *Encoder { return &Encoder{buf: make([]byte, 0, capacity)} }

// Reset clears the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded bytes. The slice is only valid until the next
// Reset; callers that retain it must copy.
func (e *Encoder) Bytes() []byte { return e.buf }

// PutValue appends one value.
func (e *Encoder) PutValue(v sql.Value) {
	switch x := v.(type) {
	case nil:
		e.buf = append(e.buf, tagNull)
	case bool:
		if x {
			e.buf = append(e.buf, tagTrue)
		} else {
			e.buf = append(e.buf, tagFalse)
		}
	case int64:
		e.buf = append(e.buf, tagInt64)
		e.buf = binary.AppendVarint(e.buf, x)
	case float64:
		e.buf = append(e.buf, tagFloat64)
		e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(x))
	case string:
		e.buf = append(e.buf, tagString)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(x)))
		e.buf = append(e.buf, x...)
	case sql.Window:
		e.buf = append(e.buf, tagWindow)
		e.buf = binary.AppendVarint(e.buf, x.Start)
		e.buf = binary.AppendVarint(e.buf, x.End)
	case []byte:
		e.buf = append(e.buf, tagBinary)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(x)))
		e.buf = append(e.buf, x...)
	default:
		// Unknown dynamic types degrade to their string form; they are not
		// expected in engine-internal rows.
		s := sql.AsString(v)
		e.buf = append(e.buf, tagString)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
		e.buf = append(e.buf, s...)
	}
}

// PutRow appends a length-prefixed row.
func (e *Encoder) PutRow(r sql.Row) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(r)))
	for _, v := range r {
		e.PutValue(v)
	}
}

// EncodeRow encodes a row into a fresh byte slice.
func EncodeRow(r sql.Row) []byte {
	e := NewEncoder(16 * len(r))
	e.PutRow(r)
	return append([]byte(nil), e.Bytes()...)
}

// EncodeValues encodes a value slice without a length prefix appended by the
// caller; used for state-store keys where the arity is fixed.
func EncodeValues(vals []sql.Value) []byte {
	e := NewEncoder(16 * len(vals))
	for _, v := range vals {
		e.PutValue(v)
	}
	return append([]byte(nil), e.Bytes()...)
}

// Decoder reads values back out of an encoded buffer.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps an encoded buffer.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining reports whether any bytes are left to decode.
func (d *Decoder) Remaining() bool { return d.off < len(d.buf) }

// Value decodes the next value.
func (d *Decoder) Value() (sql.Value, error) {
	if d.off >= len(d.buf) {
		return nil, fmt.Errorf("codec: truncated buffer")
	}
	tag := d.buf[d.off]
	d.off++
	switch tag {
	case tagNull:
		return nil, nil
	case tagFalse:
		return false, nil
	case tagTrue:
		return true, nil
	case tagInt64:
		n, w := binary.Varint(d.buf[d.off:])
		if w <= 0 {
			return nil, fmt.Errorf("codec: bad varint at %d", d.off)
		}
		d.off += w
		return n, nil
	case tagFloat64:
		if d.off+8 > len(d.buf) {
			return nil, fmt.Errorf("codec: truncated float at %d", d.off)
		}
		bits := binary.BigEndian.Uint64(d.buf[d.off:])
		d.off += 8
		return math.Float64frombits(bits), nil
	case tagString:
		n, w := binary.Uvarint(d.buf[d.off:])
		if w <= 0 || n > uint64(len(d.buf)-d.off-w) { // compared unsigned: int(n) can wrap negative
			return nil, fmt.Errorf("codec: bad string at %d", d.off)
		}
		d.off += w
		s := string(d.buf[d.off : d.off+int(n)])
		d.off += int(n)
		return s, nil
	case tagWindow:
		start, w1 := binary.Varint(d.buf[d.off:])
		if w1 <= 0 {
			return nil, fmt.Errorf("codec: bad window at %d", d.off)
		}
		d.off += w1
		end, w2 := binary.Varint(d.buf[d.off:])
		if w2 <= 0 {
			return nil, fmt.Errorf("codec: bad window at %d", d.off)
		}
		d.off += w2
		return sql.Window{Start: start, End: end}, nil
	case tagBinary:
		n, w := binary.Uvarint(d.buf[d.off:])
		if w <= 0 || n > uint64(len(d.buf)-d.off-w) { // compared unsigned: int(n) can wrap negative
			return nil, fmt.Errorf("codec: bad binary at %d", d.off)
		}
		d.off += w
		b := append([]byte(nil), d.buf[d.off:d.off+int(n)]...)
		d.off += int(n)
		return b, nil
	default:
		return nil, fmt.Errorf("codec: unknown tag %d at %d", tag, d.off-1)
	}
}

// Row decodes a length-prefixed row.
func (d *Decoder) Row() (sql.Row, error) {
	n, w := binary.Uvarint(d.buf[d.off:])
	// Every value takes at least its tag byte, so a length beyond what is
	// left is corrupt — and must not size the allocation below.
	if w <= 0 || n > uint64(len(d.buf)-d.off-w) {
		return nil, fmt.Errorf("codec: bad row length at %d", d.off)
	}
	d.off += w
	row := make(sql.Row, n)
	for i := range row {
		v, err := d.Value()
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// DecodeRow decodes a single row from buf.
func DecodeRow(buf []byte) (sql.Row, error) {
	return NewDecoder(buf).Row()
}

// DecodeValues decodes all values remaining in buf.
func DecodeValues(buf []byte) ([]sql.Value, error) {
	return AppendValues(nil, buf)
}

// AppendValues is DecodeValues appending to dst, for callers that decode
// value lists in a loop and keep none of the slices.
func AppendValues(dst []sql.Value, buf []byte) ([]sql.Value, error) {
	d := Decoder{buf: buf}
	for d.Remaining() {
		v, err := d.Value()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// KeyString encodes a grouping key as a string usable as a Go map key. The
// encoding is injective, so distinct keys never collide.
func KeyString(vals []sql.Value) string {
	e := NewEncoder(16 * len(vals))
	for _, v := range vals {
		e.PutValue(v)
	}
	return string(e.Bytes())
}

// HashKey computes a 64-bit hash of a grouping key, used to route rows to
// shuffle partitions.
func HashKey(vals []sql.Value) uint64 {
	e := NewEncoder(16 * len(vals))
	for _, v := range vals {
		e.PutValue(v)
	}
	return HashBytes(e.Bytes())
}

// HashBytes computes the shuffle-routing hash over an already-encoded
// grouping key. HashKey(vals) == HashBytes(EncodeValues(vals)) bit for
// bit, so callers that cached a key's encoded bytes (the columnar
// partial aggregator, the batched state path) can route without
// re-encoding — or re-boxing — the key.
func HashBytes(key []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
