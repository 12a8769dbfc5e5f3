package vec

import (
	"bytes"
	"hash/maphash"
	"math"

	"structream/internal/sql"
)

// The map side's one typed key hash. The partial aggregate finds a lane's
// group by it, and the broadcast join finds a key's static rows by it: both
// hash a key straight off its typed cells, a word per cell, and confirm a
// candidate with a typed compare (KeysEqual, ValuesEqual) that holds
// exactly when the two keys' codec encodings are equal. The hash never
// leaves the table it indexes — rows and groups cross the exchange by the
// FNV hash of their encoding — so its seed may be random and nothing
// observable depends on it.
//
// The rule is defined per value, so a vector's typed cell and the boxed
// value it holds hash alike: int64 (and timestamp) cells mix their value,
// floats their bits, bools 0 or 1, windows their start and end, strings
// their maphash, NULL cells nullWord. A []byte mixes its maphash, and a
// value of any other dynamic type hashes as the string it encodes as.

// nullWord is what a NULL key cell contributes to the hash. A value may
// hash like it; the compare tells the two apart.
const nullWord = 0x6e756c6c6b657921

// stringSeed seeds the hash of string and byte-string cells.
var stringSeed = maphash.MakeSeed()

// mixWord folds one word of a key into its hash: a multiply spreads the
// word's low bits upward and the shift folds the high bits back down, where
// a bucket mask reads them.
func mixWord(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// HashChunk is how many lanes a caller hands HashLanes at once, so the
// hashes can live on its stack.
const HashChunk = 256

// HashLanes sets hs[j] to the hash of the key at lanes[j], a column at a
// time straight off the key vectors. A boxed (KindAny) cell hashes by its
// value's dynamic type, like HashValues.
func HashLanes(hs []uint64, keys []*Vector, lanes []int32) {
	for j := range hs {
		hs[j] = 0
	}
	for _, k := range keys {
		nulls := k.Nulls
		switch k.Kind {
		case KindInt64:
			for j, lane := range lanes {
				x := uint64(k.Int64s[lane])
				if nulls.Get(int(lane)) {
					x = nullWord
				}
				hs[j] = mixWord(hs[j], x)
			}
		case KindFloat64:
			for j, lane := range lanes {
				x := math.Float64bits(k.Float64s[lane])
				if nulls.Get(int(lane)) {
					x = nullWord
				}
				hs[j] = mixWord(hs[j], x)
			}
		case KindBool:
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
		case KindString:
			for j, lane := range lanes {
				x := uint64(nullWord)
				if !nulls.Get(int(lane)) {
					x = maphash.String(stringSeed, k.Strings[lane])
				}
				hs[j] = mixWord(hs[j], x)
			}
		case KindWindow:
			for j, lane := range lanes {
				if nulls.Get(int(lane)) {
					hs[j] = mixWord(hs[j], nullWord)
					continue
				}
				hs[j] = mixWord(mixWord(hs[j], uint64(k.WStarts[lane])), uint64(k.WEnds[lane]))
			}
		default:
			for j, lane := range lanes {
				hs[j] = hashValue(hs[j], k.Anys[lane])
			}
		}
	}
}

// HashValues is the hash of a boxed key: what HashLanes gives the same
// values held in vectors.
func HashValues(vals []sql.Value) uint64 {
	h := uint64(0)
	for _, v := range vals {
		h = hashValue(h, v)
	}
	return h
}

func hashValue(h uint64, v sql.Value) uint64 {
	switch x := v.(type) {
	case nil:
		return mixWord(h, nullWord)
	case int64:
		return mixWord(h, uint64(x))
	case float64:
		return mixWord(h, math.Float64bits(x))
	case bool:
		if x {
			return mixWord(h, 1)
		}
		return mixWord(h, 0)
	case string:
		return mixWord(h, maphash.String(stringSeed, x))
	case sql.Window:
		return mixWord(mixWord(h, uint64(x.Start)), uint64(x.End))
	case []byte:
		return mixWord(h, maphash.Bytes(stringSeed, x))
	default:
		return mixWord(h, maphash.String(stringSeed, sql.AsString(v)))
	}
}

// KeysEqual reports whether the key at lane i of a and the key at lane j of
// b (a column of b per column of a) encode to the same bytes, decided from
// the typed cells. Floats compare by bits, as their encoding does, so +0
// and −0 differ and a NaN equals only its own payload; two NULLs are equal;
// cells of two different typed kinds never are. A boxed (KindAny) cell, or
// a pair of cells of different kinds, compares encodings.
func KeysEqual(a []*Vector, i int, b []*Vector, j int) bool {
	for c, x := range a {
		y := b[c]
		if x.Kind != y.Kind || x.Kind == KindAny {
			if !encodeEqual(x.Get(i), y.Get(j)) {
				return false
			}
			continue
		}
		nx, ny := x.Nulls.Get(i), y.Nulls.Get(j)
		if nx || ny {
			if nx != ny {
				return false
			}
			continue
		}
		switch x.Kind {
		case KindInt64:
			if x.Int64s[i] != y.Int64s[j] {
				return false
			}
		case KindFloat64:
			if math.Float64bits(x.Float64s[i]) != math.Float64bits(y.Float64s[j]) {
				return false
			}
		case KindBool:
			if x.Bools[i] != y.Bools[j] {
				return false
			}
		case KindString:
			if x.Strings[i] != y.Strings[j] {
				return false
			}
		case KindWindow:
			if x.WStarts[i] != y.WStarts[j] || x.WEnds[i] != y.WEnds[j] {
				return false
			}
		}
	}
	return true
}

// ValuesEqual is KeysEqual for a boxed key against the key at lane j of b.
func ValuesEqual(vals []sql.Value, b []*Vector, j int) bool {
	for c, v := range vals {
		y := b[c]
		if y.Kind == KindAny || y.Nulls.Get(j) {
			if !encodeEqual(v, y.Get(j)) {
				return false
			}
			continue
		}
		switch x := v.(type) {
		case int64:
			if y.Kind != KindInt64 || y.Int64s[j] != x {
				return false
			}
		case float64:
			if y.Kind != KindFloat64 || math.Float64bits(y.Float64s[j]) != math.Float64bits(x) {
				return false
			}
		case bool:
			if y.Kind != KindBool || y.Bools[j] != x {
				return false
			}
		case string:
			if y.Kind != KindString || y.Strings[j] != x {
				return false
			}
		case sql.Window:
			if y.Kind != KindWindow || y.WStarts[j] != x.Start || y.WEnds[j] != x.End {
				return false
			}
		default:
			if !encodeEqual(v, y.Get(j)) {
				return false
			}
		}
	}
	return true
}

// encodeEqual reports whether two boxed values encode to the same bytes.
func encodeEqual(x, y sql.Value) bool {
	var bx, by [64]byte
	return bytes.Equal(sql.AppendValue(bx[:0], x), sql.AppendValue(by[:0], y))
}
