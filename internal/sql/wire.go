package sql

import (
	"encoding/binary"
	"math"
)

// The wire form of a Value: one tag byte naming the dynamic type, then the
// payload. Package codec builds rows, keys and column blocks out of it; the
// aggregate buffers below write and read their state in it directly, which is
// why it lives here and not there (codec imports this package). The tag
// encodes the dynamic type so values round-trip without schema context.
const (
	WireNull byte = iota
	WireFalse
	WireTrue
	WireInt64   // varint
	WireFloat64 // IEEE 754 bits, big-endian
	WireString  // uvarint length, bytes
	WireWindow  // varint start, varint end
	WireBinary  // uvarint length, bytes
)

// AppendNull appends an SQL NULL.
func AppendNull(dst []byte) []byte { return append(dst, WireNull) }

// AppendBool appends a bool.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, WireTrue)
	}
	return append(dst, WireFalse)
}

// AppendInt64 appends an int64.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.AppendVarint(append(dst, WireInt64), v)
}

// AppendFloat64 appends a float64.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(append(dst, WireFloat64), math.Float64bits(v))
}

// AppendString appends a string.
func AppendString(dst []byte, v string) []byte {
	dst = binary.AppendUvarint(append(dst, WireString), uint64(len(v)))
	return append(dst, v...)
}

// AppendWindow appends a window.
func AppendWindow(dst []byte, start, end int64) []byte {
	return binary.AppendVarint(binary.AppendVarint(append(dst, WireWindow), start), end)
}

// AppendBinary appends a byte string.
func AppendBinary(dst []byte, v []byte) []byte {
	dst = binary.AppendUvarint(append(dst, WireBinary), uint64(len(v)))
	return append(dst, v...)
}

// AppendValue appends one boxed value: exactly the bytes the typed appenders
// write for its dynamic type.
func AppendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return AppendNull(dst)
	case bool:
		return AppendBool(dst, x)
	case int64:
		return AppendInt64(dst, x)
	case float64:
		return AppendFloat64(dst, x)
	case string:
		return AppendString(dst, x)
	case Window:
		return AppendWindow(dst, x.Start, x.End)
	case []byte:
		return AppendBinary(dst, x)
	default:
		// Unknown dynamic types degrade to their string form; they are not
		// expected in engine-internal rows.
		return AppendString(dst, AsString(v))
	}
}

// ReadValue decodes the value at buf[pos:] and returns it boxed with the
// position after it, or -1 when nothing is left, the tag is unknown or the
// payload is malformed. Strings and byte strings are copied out of buf. (One
// switch, not a call per typed reader below: the boxed row decode is the row
// path's hot loop, and went 137 → 145 ns per four-value row that way.)
func ReadValue(buf []byte, pos int) (Value, int) {
	if pos >= len(buf) {
		return nil, -1
	}
	tag := buf[pos]
	pos++
	switch tag {
	case WireNull:
		return nil, pos
	case WireFalse:
		return false, pos
	case WireTrue:
		return true, pos
	case WireInt64:
		n, w := Varint(buf[pos:])
		if w <= 0 {
			return nil, -1
		}
		return n, pos + w
	case WireFloat64:
		if pos+8 > len(buf) {
			return nil, -1
		}
		return math.Float64frombits(binary.BigEndian.Uint64(buf[pos:])), pos + 8
	case WireString, WireBinary:
		n, w := Uvarint(buf[pos:])
		if w <= 0 || n > uint64(len(buf)-pos-w) { // compared unsigned: int(n) can wrap negative
			return nil, -1
		}
		pos += w
		end := pos + int(n)
		if tag == WireString {
			return string(buf[pos:end]), end
		}
		return append([]byte(nil), buf[pos:end]...), end
	case WireWindow:
		start, w1 := Varint(buf[pos:])
		if w1 <= 0 {
			return nil, -1
		}
		end, w2 := Varint(buf[pos+w1:])
		if w2 <= 0 {
			return nil, -1
		}
		return Window{Start: start, End: end}, pos + w1 + w2
	}
	return nil, -1
}

// The typed readers decode the value at buf[pos:] when it has the wanted
// dynamic type, without boxing it, and return the position after it — or -1
// when the tag is another one or the payload is malformed.

// ReadInt64 reads an int64.
func ReadInt64(buf []byte, pos int) (int64, int) {
	if pos >= len(buf) || buf[pos] != WireInt64 {
		return 0, -1
	}
	n, w := Varint(buf[pos+1:])
	if w <= 0 {
		return 0, -1
	}
	return n, pos + 1 + w
}

// ReadFloat64 reads a float64.
func ReadFloat64(buf []byte, pos int) (float64, int) {
	if pos+9 > len(buf) || buf[pos] != WireFloat64 {
		return 0, -1
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf[pos+1:])), pos + 9
}

// ReadWindow reads a window.
func ReadWindow(buf []byte, pos int) (start, end int64, next int) {
	if pos >= len(buf) || buf[pos] != WireWindow {
		return 0, 0, -1
	}
	start, w1 := Varint(buf[pos+1:])
	if w1 <= 0 {
		return 0, 0, -1
	}
	end, w2 := Varint(buf[pos+1+w1:])
	if w2 <= 0 {
		return 0, 0, -1
	}
	return start, end, pos + 1 + w1 + w2
}

// ReadBool reads a bool.
func ReadBool(buf []byte, pos int) (bool, int) {
	if pos >= len(buf) || (buf[pos] != WireTrue && buf[pos] != WireFalse) {
		return false, -1
	}
	return buf[pos] == WireTrue, pos + 1
}

// ReadBytes reads the payload of a string (tag WireString) or a byte string
// (tag WireBinary) as a slice of buf.
func ReadBytes(buf []byte, pos int, tag byte) ([]byte, int) {
	if pos >= len(buf) || buf[pos] != tag {
		return nil, -1
	}
	n, w := Uvarint(buf[pos+1:])
	if w <= 0 || n > uint64(len(buf)-pos-1-w) { // compared unsigned: int(n) can wrap negative
		return nil, -1
	}
	start := pos + 1 + w
	return buf[start : start+int(n)], start + int(n)
}

// SkipValue steps over the value at buf[pos:] and returns the position after
// it, or -1 exactly when ReadValue would.
func SkipValue(buf []byte, pos int) int {
	if pos >= len(buf) {
		return -1
	}
	tag := buf[pos]
	pos++
	switch tag {
	case WireNull, WireFalse, WireTrue:
		return pos
	case WireInt64:
		// By the stop bit alone; the value is never assembled.
		if w := UvarintWordLen(buf[pos:]); w > 0 {
			return pos + w
		}
		return skipVarint(buf, pos)
	case WireFloat64:
		if pos+8 > len(buf) {
			return -1
		}
		return pos + 8
	case WireString, WireBinary:
		n, w := Uvarint(buf[pos:])
		if w <= 0 || n > uint64(len(buf)-pos-w) {
			return -1
		}
		return pos + w + int(n)
	case WireWindow:
		if pos = skipVarint(buf, pos); pos < 0 {
			return -1
		}
		return skipVarint(buf, pos)
	}
	return -1
}
