package incremental

import (
	"bytes"
	"hash/maphash"
	"math"

	"structream/internal/sql/codec"
	"structream/internal/sql/vec"
)

// The columnar partial aggregate finds a lane's group by a typed hash of the
// key vectors and a typed compare against the group's first lane, and
// encodes a key only when its group is new. The lookup hash never leaves
// the per-batch table — scatter routes every group by the FNV hash of its
// encoded key — so its seed may be random and nothing observable depends
// on it.

// nullWord is what a NULL key cell contributes to the lookup hash. A value
// may hash like it; the compare tells the two apart.
const nullWord = 0x6e756c6c6b657921

// stringSeed seeds the lookup hash of string and boxed key cells.
var stringSeed = maphash.MakeSeed()

// mixWord folds one word of a key into its lookup hash: a multiply spreads
// the word's low bits upward and the shift folds the high bits back down,
// where the bucket mask reads them.
func mixWord(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// hashChunk is how many lanes hashLanes hashes per call: its hashes live
// on updateBatch's stack.
const hashChunk = 256

// laneHashMask is ANDed into every lookup hash. Tests clear it to force
// every key onto one full 64-bit hash.
var laneHashMask = ^uint64(0)

// hashLanes sets hs[j] to the lookup hash of the key at lanes[j], a column
// at a time straight off the key vectors: int64 and timestamp cells mix
// their value, floats their bits, windows their start and end, strings
// their maphash, NULL cells nullWord. A boxed (KindAny) cell mixes the
// maphash of its encoding, written into enc.
func hashLanes(hs []uint64, keys []*vec.Vector, lanes []int32, enc *codec.Encoder) {
	for j := range hs {
		hs[j] = 0
	}
	for _, k := range keys {
		nulls := k.Nulls
		switch k.Kind {
		case vec.KindInt64:
			for j, lane := range lanes {
				x := uint64(k.Int64s[lane])
				if nulls.Get(int(lane)) {
					x = nullWord
				}
				hs[j] = mixWord(hs[j], x)
			}
		case vec.KindFloat64:
			for j, lane := range lanes {
				x := math.Float64bits(k.Float64s[lane])
				if nulls.Get(int(lane)) {
					x = nullWord
				}
				hs[j] = mixWord(hs[j], x)
			}
		case vec.KindBool:
			for j, lane := range lanes {
				x := uint64(0)
				if k.Bools[lane] {
					x = 1
				}
				if nulls.Get(int(lane)) {
					x = nullWord
				}
				hs[j] = mixWord(hs[j], x)
			}
		case vec.KindString:
			for j, lane := range lanes {
				x := uint64(nullWord)
				if !nulls.Get(int(lane)) {
					x = maphash.String(stringSeed, k.Strings[lane])
				}
				hs[j] = mixWord(hs[j], x)
			}
		case vec.KindWindow:
			for j, lane := range lanes {
				if nulls.Get(int(lane)) {
					hs[j] = mixWord(hs[j], nullWord)
					continue
				}
				hs[j] = mixWord(mixWord(hs[j], uint64(k.WStarts[lane])), uint64(k.WEnds[lane]))
			}
		default:
			for j, lane := range lanes {
				enc.Reset()
				enc.PutValue(k.Anys[lane])
				hs[j] = mixWord(hs[j], maphash.Bytes(stringSeed, enc.Bytes()))
			}
		}
	}
}

// lanesEqual reports whether the keys at lanes a and b are the same group:
// whether they encode to the same bytes, decided from the typed cells.
// Floats compare by bits, as their encoding does, so +0 and −0 are two
// groups and a NaN groups with its own payload. A boxed (KindAny) cell
// compares its encoding, written into enc.
func lanesEqual(keys []*vec.Vector, a, b int, enc *codec.Encoder) bool {
	for _, k := range keys {
		if k.Kind == vec.KindAny {
			enc.Reset()
			enc.PutValue(k.Anys[a])
			n := len(enc.Bytes())
			enc.PutValue(k.Anys[b])
			if kb := enc.Bytes(); !bytes.Equal(kb[:n], kb[n:]) {
				return false
			}
			continue
		}
		na, nb := k.Nulls.Get(a), k.Nulls.Get(b)
		if na || nb {
			if na != nb {
				return false
			}
			continue
		}
		switch k.Kind {
		case vec.KindInt64:
			if k.Int64s[a] != k.Int64s[b] {
				return false
			}
		case vec.KindFloat64:
			if math.Float64bits(k.Float64s[a]) != math.Float64bits(k.Float64s[b]) {
				return false
			}
		case vec.KindBool:
			if k.Bools[a] != k.Bools[b] {
				return false
			}
		case vec.KindString:
			if k.Strings[a] != k.Strings[b] {
				return false
			}
		case vec.KindWindow:
			if k.WStarts[a] != k.WStarts[b] || k.WEnds[a] != k.WEnds[b] {
				return false
			}
		}
	}
	return true
}
