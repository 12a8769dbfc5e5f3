// Package codec implements a compact binary encoding for rows and values.
// It plays the role of Spark's Tungsten binary format in the paper: state
// store keys and values, shuffle payloads, and checkpoint files all use this
// encoding instead of boxed Go values, and key encodings are byte-comparable
// for map lookups.
package codec

import (
	"encoding/binary"
	"fmt"

	"structream/internal/sql"
)

// The value tags, under the names this package has always used for them;
// package sql owns the wire form of a single value.
const (
	tagNull    = sql.WireNull
	tagFalse   = sql.WireFalse
	tagTrue    = sql.WireTrue
	tagInt64   = sql.WireInt64
	tagFloat64 = sql.WireFloat64
	tagString  = sql.WireString
	tagWindow  = sql.WireWindow
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
func (e *Encoder) PutValue(v sql.Value) { e.buf = sql.AppendValue(e.buf, v) }

// PutRaw appends bytes as they are: framing a caller writes around values.
func (e *Encoder) PutRaw(b ...byte) { e.buf = append(e.buf, b...) }

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
	v, next := sql.ReadValue(d.buf, d.off)
	if next < 0 {
		return nil, fmt.Errorf("codec: truncated or malformed value at %d", d.off)
	}
	d.off = next
	return v, nil
}

// Row decodes a length-prefixed row.
func (d *Decoder) Row() (sql.Row, error) {
	n, w := sql.Uvarint(d.buf[d.off:])
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
