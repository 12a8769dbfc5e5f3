package vec

import (
	"encoding/binary"
	"unsafe"

	"structream/internal/sql"
)

// Kernels evaluate densely over [0, Len) regardless of the batch's
// selection vector; null bits mask whatever a dead or NULL lane
// computed. The one exception is the float-mod kernel, which must stay
// selection-aware because the row path panics on fractional divisors in
// (-1, 1) \ {0} and a dead lane must not reproduce that panic for a row
// the row path would never have evaluated.

// ordered covers the element types whose < and > match sql.Compare:
// cmpOrdered for int64/float64 (including its NaN behaviour, where
// neither < nor > holds so values compare "equal") and strings.Compare
// for string. Every comparison kernel is therefore expressed in terms
// of < and > only.
type ordered interface{ ~int64 | ~float64 | ~string }

// cmpVV compares two slabs lane-wise into out. The Eq/Ne/Le/Ge forms
// are derived from < and > so NaN lanes behave exactly like
// sql.cmpOrdered (NaN == anything under this ordering).
func cmpVV[T ordered](op sql.BinOp, a, b []T, out []bool) {
	switch op {
	case sql.OpEq:
		for i := range out {
			out[i] = !(a[i] < b[i]) && !(a[i] > b[i])
		}
	case sql.OpNe:
		for i := range out {
			out[i] = a[i] < b[i] || a[i] > b[i]
		}
	case sql.OpLt:
		for i := range out {
			out[i] = a[i] < b[i]
		}
	case sql.OpLe:
		for i := range out {
			out[i] = !(a[i] > b[i])
		}
	case sql.OpGt:
		for i := range out {
			out[i] = a[i] > b[i]
		}
	case sql.OpGe:
		for i := range out {
			out[i] = !(a[i] < b[i])
		}
	}
}

// cmpVC compares a slab against a constant right operand.
func cmpVC[T ordered](op sql.BinOp, a []T, c T, out []bool) {
	switch op {
	case sql.OpEq:
		for i := range out {
			out[i] = !(a[i] < c) && !(a[i] > c)
		}
	case sql.OpNe:
		for i := range out {
			out[i] = a[i] < c || a[i] > c
		}
	case sql.OpLt:
		for i := range out {
			out[i] = a[i] < c
		}
	case sql.OpLe:
		for i := range out {
			out[i] = !(a[i] > c)
		}
	case sql.OpGt:
		for i := range out {
			out[i] = a[i] > c
		}
	case sql.OpGe:
		for i := range out {
			out[i] = !(a[i] < c)
		}
	}
}

// eqStrVV and eqStrVC are string = / <> (ne flips the verdict). Unlike
// the ordered form above — two three-way compares per lane — Go's string
// equality is a length check plus one memequal, and strings.Compare agrees
// with it on what "equal" means. Floats must keep the ordered form: NaN
// compares equal to everything there and to nothing under ==.
func eqStrVV(a, b []string, ne bool, out []bool) {
	for i := range out {
		out[i] = (a[i] == b[i]) != ne
	}
}

// eqStrVC against a literal of 1 to 8 bytes compares one word per lane and
// never branches on the data: a lane whose length is the literal's has its
// bytes loaded, any other lane loads the literal's own bytes (so no load
// reads past a shorter string), and the verdict is the length match and the
// word match together. A literal of 4 to 8 bytes is read as two 4-byte
// loads, one at its start and one at its end, and one of 2 or 3 bytes as
// two 2-byte loads; they overlap for 3, 5, 6 and 7 bytes. Other literal
// lengths take ==.
func eqStrVC(a []string, c string, ne bool, out []bool) {
	a = a[:len(out)]
	n := len(c)
	if n == 0 || n > 8 {
		for i, s := range a {
			out[i] = (s == c) != ne
		}
		return
	}
	lit := unsafe.StringData(c)
	un := uint64(n)
	switch {
	case n >= 4:
		off := n - 4
		want := le32(lit, 0) | le32(lit, off)<<32
		for i, s := range a {
			p := pick(lit, s, n)
			out[i] = ((uint64(len(s))^un)|((le32(p, 0)|le32(p, off)<<32)^want) == 0) != ne
		}
	case n >= 2:
		off := n - 2
		want := le16(lit, 0) | le16(lit, off)<<16
		for i, s := range a {
			p := pick(lit, s, n)
			out[i] = ((uint64(len(s))^un)|((le16(p, 0)|le16(p, off)<<16)^want) == 0) != ne
		}
	default:
		want := uint64(*lit)
		for i, s := range a {
			p := pick(lit, s, n)
			out[i] = ((uint64(len(s))^un)|(uint64(*p)^want) == 0) != ne
		}
	}
}

// pick returns s's bytes when s is n bytes long and lit otherwise, without
// a branch: the select is an index, not a jump the lane's data steers.
func pick(lit *byte, s string, n int) *byte {
	return [2]*byte{lit, unsafe.StringData(s)}[b2i(len(s) == n)&1]
}

// b2i is 1 for true and 0 for false; the compiler makes it a zero-extend.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// le16 and le32 load the little-endian word at p+off; the caller
// guarantees that many bytes there.
func le16(p *byte, off int) uint64 {
	return uint64(binary.LittleEndian.Uint16((*[2]byte)(unsafe.Add(unsafe.Pointer(p), off))[:]))
}

func le32(p *byte, off int) uint64 {
	return uint64(binary.LittleEndian.Uint32((*[4]byte)(unsafe.Add(unsafe.Pointer(p), off))[:]))
}

// flipCmp mirrors an operator so a constant LEFT operand can reuse the
// vector-constant kernel: c < a[i] ⇔ a[i] > c, etc.
func flipCmp(op sql.BinOp) sql.BinOp {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	}
	return op // Eq/Ne are symmetric
}

// arithVV applies +, -, or * lane-wise. Works for int64 (wrapping, like
// the row path) and float64.
func arithVV[T int64 | float64](op sql.BinOp, a, b, out []T) {
	switch op {
	case sql.OpAdd:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case sql.OpSub:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case sql.OpMul:
		for i := range out {
			out[i] = a[i] * b[i]
		}
	}
}

// arithVC applies +, -, or * against a constant right operand.
func arithVC[T int64 | float64](op sql.BinOp, a []T, c T, out []T) {
	switch op {
	case sql.OpAdd:
		for i := range out {
			out[i] = a[i] + c
		}
	case sql.OpSub:
		for i := range out {
			out[i] = a[i] - c
		}
	case sql.OpMul:
		for i := range out {
			out[i] = a[i] * c
		}
	}
}

// arithCV applies +, -, or * against a constant left operand (order
// matters for subtraction).
func arithCV[T int64 | float64](op sql.BinOp, c T, b, out []T) {
	switch op {
	case sql.OpAdd:
		for i := range out {
			out[i] = c + b[i]
		}
	case sql.OpSub:
		for i := range out {
			out[i] = c - b[i]
		}
	case sql.OpMul:
		for i := range out {
			out[i] = c * b[i]
		}
	}
}

// logical implements SQL three-valued AND/OR over bool vectors,
// mirroring bindLogical: a known FALSE (AND) / TRUE (OR) dominates a
// NULL on the other side. Value slots at NULL lanes are never consulted
// (the null bit short-circuits them), so garbage there is harmless.
func logical(b *Batch, l, r *Vector, isAnd bool) *Vector {
	n := b.Len
	out := b.NewVector(KindBool, n)
	ln, rn := l.Nulls, r.Nulls
	lb, rb := l.Bools, r.Bools
	var nulls Bitmap
	for i := 0; i < n; i++ {
		lok := !ln.Get(i)
		rok := !rn.Get(i)
		out.Bools[i] = false
		if isAnd {
			if lok && !lb[i] || rok && !rb[i] {
				continue // definite false
			}
			if lok && rok {
				out.Bools[i] = true
				continue
			}
		} else {
			if lok && lb[i] || rok && rb[i] {
				out.Bools[i] = true
				continue
			}
			if lok && rok {
				continue // definite false
			}
		}
		if nulls == nil {
			nulls = out.EnsureNulls(n)
		}
		nulls.Set(i)
	}
	return out
}

// notKernel negates a bool vector; NULL stays NULL (the result bitmap
// aliases the operand's, which is never mutated after creation).
func notKernel(b *Batch, v *Vector) *Vector {
	n := b.Len
	out := b.NewVector(KindBool, n)
	for i := 0; i < n; i++ {
		out.Bools[i] = !v.Bools[i]
	}
	out.Nulls = v.Nulls
	return out
}

// isNullKernel produces (child IS [NOT] NULL); the result is never NULL.
func isNullKernel(b *Batch, v *Vector, negate bool) *Vector {
	n := b.Len
	out := b.NewVector(KindBool, n)
	if v.Kind == KindAny {
		for i := 0; i < n; i++ {
			out.Bools[i] = (v.Anys[i] == nil) != negate
		}
		return out
	}
	if v.Nulls == nil {
		for i := range out.Bools {
			out.Bools[i] = negate
		}
		return out
	}
	for i := 0; i < n; i++ {
		out.Bools[i] = v.Nulls.Get(i) != negate
	}
	return out
}

// boolsToInt64 widens a bool slab to int64 (false=0, true=1) so bool
// comparisons reuse the int kernel; the mapping matches sql.Compare's
// false < true ordering.
func boolsToInt64(b *Batch, src []bool) []int64 {
	out := b.NewVector(KindInt64, b.Len).Int64s
	for i := range out {
		var x int64
		if src[i] {
			x = 1
		}
		out[i] = x
	}
	return out
}

// asFloat64s widens an int64 vector's slab to float64 (returns the
// existing slab for float vectors), mirroring sql.AsFloat64 coercion in
// the row path's mixed-type arithmetic and comparisons.
func asFloat64s(b *Batch, v *Vector) []float64 {
	if v.Kind == KindFloat64 {
		return v.Float64s
	}
	out := b.NewVector(KindFloat64, b.Len).Float64s
	for i, x := range v.Int64s[:b.Len] {
		out[i] = float64(x)
	}
	return out
}

// FilterSel returns the live positions where cond is TRUE (not false,
// not NULL), respecting the batch's existing selection, in a slab drawn
// for b. The result is always non-nil: an empty selection means "no
// rows", while a nil Batch.Sel means "all rows".
func FilterSel(b *Batch, cond *Vector) []int32 {
	cb := cond.Bools
	if b.Sel == nil && cond.Nulls == nil {
		// Dense and null-free: every lane writes its index and the cursor
		// advances by the verdict, so the loop carries no branch for the
		// predicate to mispredict.
		out := b.NewSel(b.Len)
		n := 0
		for i, keep := range cb[:b.Len] {
			out[n] = int32(i)
			var inc int
			if keep {
				inc = 1
			}
			n += inc
		}
		return out[:n]
	}
	out := b.NewSel(b.NumLive())[:0]
	if b.Sel != nil {
		if cond.Nulls == nil {
			for _, i := range b.Sel {
				if cb[i] {
					out = append(out, i)
				}
			}
		} else {
			for _, i := range b.Sel {
				if cb[i] && !cond.Nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
		}
		return out
	}
	for i := 0; i < b.Len; i++ {
		if cb[i] && !cond.Nulls.Get(i) {
			out = append(out, int32(i))
		}
	}
	return out
}

// Int64Stats returns the minimum, maximum, sum and count of the non-null
// int64 lanes over [0, n) in one pass: the per-task event-time telemetry
// over the raw, unfiltered batch. The sum is a float64 (µs timestamps summed
// over millions of rows overflow int64) added lane by lane in order, so it
// is the row path's sum bit for bit. lo and hi are 0 when no lane counts;
// a vector of another kind has none (the row path's type assertion).
func Int64Stats(v *Vector, n int) (lo, hi int64, sum float64, count int64) {
	if v.Kind != KindInt64 || n == 0 {
		return 0, 0, 0, 0
	}
	xs := v.Int64s[:n]
	if v.Nulls == nil {
		lo, hi = xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
			sum += float64(x)
		}
		return lo, hi, sum, int64(n)
	}
	for i, x := range xs {
		if v.Nulls.Get(i) {
			continue
		}
		if count == 0 {
			lo, hi = x, x
		}
		lo, hi = min(lo, x), max(hi, x)
		sum += float64(x)
		count++
	}
	return lo, hi, sum, count
}

// ExpirySel is the vectorized watermark gate. The three slabs describe
// each lane's event-time key in the stateful operators' normal form:
// valid[i] reports whether the lane has a comparable event time at all
// (non-NULL int64 timestamp or window), evt[i] is the timestamp (window
// End for window keys), and isWin[i] distinguishes the two comparison
// rules — windows expire when End <= watermark, plain timestamps when
// ts < watermark. Lanes land in out when their expiry verdict matches
// `expired`, so one pass computes either the survivor selection or the
// late-drop selection. The returned slice is `out` re-sliced; it is
// always non-nil, matching FilterSel's "empty ≠ all" convention.
func ExpirySel(evt []int64, isWin, valid []bool, wm int64, expired bool, out []int32) []int32 {
	out = out[:0]
	for i := range evt {
		exp := valid[i] && (evt[i] < wm || (isWin[i] && evt[i] == wm))
		if exp == expired {
			out = append(out, int32(i))
		}
	}
	return out
}
