package sql

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkVarint fails t where the reader and encoding/binary disagree on buf.
func checkVarint(t *testing.T, buf []byte) {
	t.Helper()
	wantU, wantW := binary.Uvarint(buf)
	if u, w := Uvarint(buf); u != wantU || w != wantW {
		t.Fatalf("Uvarint(%x) = %d, %d; encoding/binary says %d, %d", buf, u, w, wantU, wantW)
	}
	wantV, wantVW := binary.Varint(buf)
	if v, w := Varint(buf); v != wantV || w != wantVW {
		t.Fatalf("Varint(%x) = %d, %d; encoding/binary says %d, %d", buf, v, w, wantV, wantVW)
	}
	if u, w := UvarintWord(buf); w != 0 && (u != wantU || w != wantW) {
		t.Fatalf("UvarintWord(%x) = %d, %d; encoding/binary says %d, %d", buf, u, w, wantU, wantW)
	}
	wantNext := -1
	if wantW > 0 {
		wantNext = wantW
	}
	if next := skipVarint(buf, 0); next != wantNext {
		t.Fatalf("skipVarint(%x) = %d, want %d", buf, next, wantNext)
	}
}

// TestVarintMatchesStdlib sweeps the word path's edges: random values of every
// width from 1 to 10, followed by 0–9 bytes that all carry a continuation
// bit, and every prefix of each.
func TestVarintMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := 1; w <= binary.MaxVarintLen64; w++ {
		for i := 0; i < 50; i++ {
			v := rng.Uint64() | 1<<63
			if w < binary.MaxVarintLen64 {
				v = v>>(64-7*w) | 1<<(7*(w-1)) // more than 7(w-1) bits, at most 7w
			}
			enc := binary.AppendUvarint(nil, v)
			if len(enc) != w {
				t.Fatalf("%d encodes in %d bytes, want %d", v, len(enc), w)
			}
			for tail := 0; tail <= 9; tail++ {
				buf := append(append([]byte(nil), enc...), bytes.Repeat([]byte{0xff}, tail)...)
				for n := 0; n <= len(buf); n++ {
					checkVarint(t, buf[:n])
				}
			}
		}
	}
}

// FuzzVarint holds the reader to encoding/binary, which shares no code with
// its word path: for any bytes, Uvarint and Varint return the stdlib's value
// and width — 0 for a short buffer, negative for an overflow — and
// skipVarint the position after exactly the bytes Uvarint read.
func FuzzVarint(f *testing.F) {
	for w := 1; w <= binary.MaxVarintLen64; w++ {
		// The smallest and the largest uvarint of each width, with a tail
		// long enough for the word path.
		lo := uint64(1) << (7 * (w - 1))
		if w == 1 {
			lo = 0
		}
		hi := uint64(math.MaxUint64)
		if w < binary.MaxVarintLen64 {
			hi = uint64(1)<<(7*w) - 1
		}
		for _, v := range []uint64{lo, hi} {
			f.Add(append(binary.AppendUvarint(nil, v), 0, 0, 0, 0, 0, 0, 0, 0))
		}
	}
	overflow := append(binary.AppendUvarint(nil, math.MaxUint64)[:9], 0x02) // 10th byte > 1
	f.Add(overflow)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // eleven continuation bytes
	long := binary.AppendUvarint(nil, math.MaxUint64)
	for _, n := range []int{7, 8, 9} { // truncated: the buffer ends inside the varint
		f.Add(append([]byte(nil), long[:n]...))
	}
	f.Fuzz(checkVarint)
}
