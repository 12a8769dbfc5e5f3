package sql

import (
	"encoding/binary"
	"math/bits"
)

// The row codec's varint reader. Every varint the codec reads — row lengths,
// int64 and window payloads, string and byte-string lengths — goes through
// it; the encoders stay on encoding/binary. Value and width equal
// binary.Uvarint's for every input, including 0 for a buffer that ends inside
// the varint and a negative width for one that overflows 64 bits.
//
// When eight bytes are readable the reader loads them as one little-endian
// word and finds the first byte without a continuation bit from the word's
// high bits; a varint of up to eight bytes is then assembled without a loop.
// Anything else — fewer than eight bytes left, a 9- or 10-byte varint, an
// overflow — is binary.Uvarint's to decide. A varint of at most eight bytes
// carries at most 56 bits, so the word path never meets an overflow. The
// reader reads no byte past len(buf).

// varintStops holds the continuation bit of each byte of a word.
const varintStops = 0x8080808080808080

// UvarintWord is the reader's word path alone, small enough to inline into a
// decode loop: the value and width of the uvarint at the start of buf when
// eight bytes are readable and the varint ends within them, and width 0
// otherwise — then Uvarint decides.
func UvarintWord(buf []byte) (v uint64, w int) {
	if len(buf) >= 8 {
		v, w = WordUvarint(binary.LittleEndian.Uint64(buf))
	}
	return v, w
}

// WordUvarint is the word path over eight bytes already loaded, the first in
// x's low byte: the value and width of the uvarint they start with, and
// width 0 when it does not end within them.
func WordUvarint(x uint64) (v uint64, w int) {
	if stop := ^x & varintStops; stop != 0 {
		// Keep the bytes up to and including the first without a
		// continuation bit, then pack their 7-bit groups: pairs of bytes
		// into 14 bits, pairs of those into 28, the two halves into 56.
		x &= stop ^ (stop - 1)
		x = x&0x007f007f007f007f | (x&0x7f007f007f007f00)>>1
		x = x&0x00003fff00003fff | (x&0x3fff00003fff0000)>>2
		v = x&0x000000000fffffff | (x&0x0fffffff00000000)>>4
		w = bits.TrailingZeros64(stop)>>3 + 1
	}
	return v, w
}

// Uvarint decodes the uvarint at the start of buf exactly as binary.Uvarint
// does.
func Uvarint(buf []byte) (uint64, int) {
	// Most lengths the codec reads fit one byte. The word path's width is a
	// data dependency — the caller's next position waits for the load and
	// the stop-bit count — where a predicted branch on the first byte lets
	// the next read start at once.
	if len(buf) > 0 && buf[0] < 0x80 {
		return uint64(buf[0]), 1
	}
	if v, w := UvarintWord(buf); w > 0 {
		return v, w
	}
	return binary.Uvarint(buf)
}

// Varint decodes the zig-zag varint at the start of buf exactly as
// binary.Varint does.
func Varint(buf []byte) (int64, int) {
	ux, w := UvarintWord(buf)
	if w == 0 {
		ux, w = Uvarint(buf)
	}
	return Unzigzag(ux), w
}

// Unzigzag maps a uvarint back to the int64 binary.AppendVarint wrote.
func Unzigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// UvarintWordLen is UvarintWord's width alone, from the stop bit: a reader
// stepping over a varint never assembles its value.
func UvarintWordLen(buf []byte) int {
	if len(buf) >= 8 {
		return WordUvarintLen(binary.LittleEndian.Uint64(buf))
	}
	return 0
}

// WordUvarintLen is WordUvarint's width alone.
func WordUvarintLen(x uint64) int {
	if stop := ^x & varintStops; stop != 0 {
		return bits.TrailingZeros64(stop)>>3 + 1
	}
	return 0
}

// skipVarint returns the position after the varint at buf[pos:], or -1 when
// Uvarint would reject it.
func skipVarint(buf []byte, pos int) int {
	w := UvarintWordLen(buf[pos:])
	if w == 0 {
		if _, w = Uvarint(buf[pos:]); w <= 0 {
			return -1
		}
	}
	return pos + w
}
