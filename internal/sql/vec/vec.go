// Package vec implements the typed columnar execution path: column
// vectors with null bitmaps, branch-light kernels over them, and a
// compiler from bound-compatible expressions to kernel chains.
//
// The row path stores every cell as a boxed `any`; the hot microbatch
// loop pays interface dispatch and heap boxing per cell. Vectors store
// each column in a typed slab (one per column, recycled between map
// tasks) and kernels run tight loops over the slabs, so the only boxing
// left is at the row/column boundary where downstream operators still
// need []sql.Value rows.
//
// Semantics contract: every kernel reproduces the row path's observable
// behaviour exactly — NULL propagation, the NaN comparison quirk of
// sql.Compare, integer overflow wrap, division always producing float64
// with a NULL on zero divisors — so the engine can switch paths per
// batch without changing results. Anything outside the supported subset
// fails compilation and the caller falls back to the row path.
package vec

import "structream/internal/sql"

// Kind is the physical representation of a column vector.
type Kind uint8

const (
	// KindInt64 backs TypeInt64, TypeTimestamp and TypeInterval (all are
	// int64 microsecond values at runtime).
	KindInt64 Kind = iota
	KindFloat64
	KindBool
	KindString
	// KindWindow stores [start, end) pairs as two int64 slabs.
	KindWindow
	// KindAny falls back to boxed values (TypeBinary, TypeAny, TypeNull);
	// such columns carry no typed fast path but still ride in batches.
	KindAny
)

// KindOf maps a schema type to its vector representation.
func KindOf(t sql.Type) Kind {
	switch t {
	case sql.TypeInt64, sql.TypeTimestamp, sql.TypeInterval:
		return KindInt64
	case sql.TypeFloat64:
		return KindFloat64
	case sql.TypeBool:
		return KindBool
	case sql.TypeString:
		return KindString
	case sql.TypeWindow:
		return KindWindow
	default:
		return KindAny
	}
}

// Bitmap marks NULL positions: a set bit means the position is NULL.
// A nil Bitmap means "no nulls", which keeps the common all-valid case
// allocation-free.
type Bitmap []uint64

// NewBitmap returns an all-valid bitmap sized for n positions.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Get reports whether position i is NULL. Safe on a nil Bitmap.
func (b Bitmap) Get(i int) bool {
	return b != nil && b[i>>6]&(1<<uint(i&63)) != 0
}

// Set marks position i NULL. The bitmap must be non-nil and sized.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << uint(i&63) }

// Clear unmarks position i (used when a partially-decoded row is
// discarded and its slot will be reused).
func (b Bitmap) Clear(i int) {
	if b != nil {
		b[i>>6] &^= 1 << uint(i&63)
	}
}

// SetAll marks every position NULL.
func (b Bitmap) SetAll() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// UnionNulls returns a bitmap carrying the nulls of both operands
// (either may be nil); nil when both are nil. The result never aliases
// a or b, so kernels may add bits to it.
func UnionNulls(n int, a, b Bitmap) Bitmap {
	if a == nil && b == nil {
		return nil
	}
	out := NewBitmap(n)
	for i := range out {
		var w uint64
		if a != nil {
			w = a[i]
		}
		if b != nil {
			w |= b[i]
		}
		out[i] = w
	}
	return out
}

// Vector is one typed column of a batch. Exactly one slab matching Kind
// is populated; Nulls (possibly nil) marks NULL positions for every kind
// except KindAny, where a nil boxed value is the NULL.
//
// Value slots at NULL positions hold unspecified garbage; kernels must
// never let a garbage slot change an observable result (they may read
// it, e.g. to compute a lane that the null bitmap then masks).
type Vector struct {
	Kind     Kind
	Int64s   []int64
	Float64s []float64
	Bools    []bool
	Strings  []string
	// WStarts/WEnds hold KindWindow [start, end) bounds.
	WStarts []int64
	WEnds   []int64
	Anys    []sql.Value
	Nulls   Bitmap
}

// NewVector allocates an all-valid vector of kind with n slots.
func NewVector(kind Kind, n int) *Vector {
	v := &Vector{Kind: kind}
	switch kind {
	case KindInt64:
		v.Int64s = make([]int64, n)
	case KindFloat64:
		v.Float64s = make([]float64, n)
	case KindBool:
		v.Bools = make([]bool, n)
	case KindString:
		v.Strings = make([]string, n)
	case KindWindow:
		v.WStarts = make([]int64, n)
		v.WEnds = make([]int64, n)
	case KindAny:
		v.Anys = make([]sql.Value, n)
	}
	return v
}

// EnsureNulls returns the vector's null bitmap, allocating an all-valid
// one sized for n positions on first use.
func (v *Vector) EnsureNulls(n int) Bitmap {
	if v.Nulls == nil {
		v.Nulls = NewBitmap(n)
	}
	return v.Nulls
}

// SetNull marks position i NULL, allocating the bitmap (sized for n) on
// first use.
func (v *Vector) SetNull(i, n int) { v.EnsureNulls(n).Set(i) }

// IsNull reports whether position i holds SQL NULL.
func (v *Vector) IsNull(i int) bool {
	if v.Kind == KindAny {
		return v.Anys[i] == nil
	}
	return v.Nulls.Get(i)
}

// Get boxes position i back into a sql.Value (nil for NULL). This is
// the row/column boundary; batch materialization calls it once per cell.
func (v *Vector) Get(i int) sql.Value {
	if v.Kind == KindAny {
		return v.Anys[i]
	}
	if v.Nulls.Get(i) {
		return nil
	}
	switch v.Kind {
	case KindInt64:
		return v.Int64s[i]
	case KindFloat64:
		return v.Float64s[i]
	case KindBool:
		return v.Bools[i]
	case KindString:
		return v.Strings[i]
	case KindWindow:
		return sql.Window{Start: v.WStarts[i], End: v.WEnds[i]}
	}
	return nil
}

// Batch is a column-major slice of rows flowing through the vectorized
// pipeline. Sel is the selection vector: nil means all positions
// [0, Len) are live; non-nil (possibly empty) means exactly the listed
// positions are live, in that order. Kernels evaluate densely over
// [0, Len) and filters narrow Sel, so dead lanes may be computed and
// discarded — cheaper than branching per lane.
//
// A batch from GetBatch carries a recycler that its derived batches
// (Derive) share: the vectors and selections kernels and stages draw for
// it (NewVector, NewSel) go back with it on Release.
type Batch struct {
	Schema sql.Schema
	Cols   []*Vector
	Len    int
	Sel    []int32
	rec    *recycler
}

// NewBatch allocates typed all-valid vectors for every schema column.
func NewBatch(schema sql.Schema, n int) *Batch {
	cols := make([]*Vector, schema.Len())
	for c := range cols {
		cols[c] = NewVector(KindOf(schema.Field(c).Type), n)
	}
	return &Batch{Schema: schema, Cols: cols, Len: n}
}

// NumLive returns the number of live rows (respecting Sel).
func (b *Batch) NumLive() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Len
}

// AppendRows materializes the batch's live rows as boxed sql.Rows onto
// dst. All rows share one backing slab, and consecutive equal windows
// share one boxed sql.Window, exactly like the physical layer's arena
// materializer — sinks that consume column batches lazily produce the
// same rows the row path would have delivered.
func (b *Batch) AppendRows(dst []sql.Row) []sql.Row {
	live := b.NumLive()
	if live == 0 {
		return dst
	}
	ncols := len(b.Cols)
	slab := make([]sql.Value, live*ncols)
	boxed := make([]sql.Value, ncols) // each window column's last boxed cell
	fill := func(i, rowBase int) {
		for c, v := range b.Cols {
			if v.Kind != KindWindow || v.Nulls.Get(i) {
				slab[rowBase+c] = v.Get(i)
				continue
			}
			if w := (sql.Window{Start: v.WStarts[i], End: v.WEnds[i]}); boxed[c] == nil || boxed[c].(sql.Window) != w {
				boxed[c] = w
			}
			slab[rowBase+c] = boxed[c]
		}
	}
	if b.Sel != nil {
		for r, i := range b.Sel {
			fill(int(i), r*ncols)
		}
	} else {
		for i := 0; i < live; i++ {
			fill(i, i*ncols)
		}
	}
	for r := 0; r < live; r++ {
		dst = append(dst, sql.Row(slab[r*ncols:(r+1)*ncols:(r+1)*ncols]))
	}
	return dst
}

// FromRows converts boxed rows into a column batch. ok is false when a
// row's arity differs from the schema or a cell's dynamic type does not
// match its column's vector kind — the caller must then fall back to the
// row path for the whole batch (sources do not validate dynamic types,
// so the row path tolerates drifted data and the vector path must not
// silently change it).
func FromRows(schema sql.Schema, rows []sql.Row) (*Batch, bool) {
	n := len(rows)
	ncols := schema.Len()
	for _, r := range rows {
		if len(r) != ncols {
			return nil, false
		}
	}
	b := &Batch{Schema: schema, Cols: make([]*Vector, ncols), Len: n}
	for c := 0; c < ncols; c++ {
		v := NewVector(KindOf(schema.Field(c).Type), n)
		if !fillFromRows(v, rows, c) {
			return nil, false
		}
		b.Cols[c] = v
	}
	return b, true
}

func fillFromRows(v *Vector, rows []sql.Row, c int) bool {
	n := len(rows)
	switch v.Kind {
	case KindInt64:
		dst := v.Int64s
		for i, r := range rows {
			switch x := r[c].(type) {
			case int64:
				dst[i] = x
			case nil:
				v.SetNull(i, n)
			default:
				return false
			}
		}
	case KindFloat64:
		dst := v.Float64s
		for i, r := range rows {
			switch x := r[c].(type) {
			case float64:
				dst[i] = x
			case nil:
				v.SetNull(i, n)
			default:
				return false
			}
		}
	case KindBool:
		dst := v.Bools
		for i, r := range rows {
			switch x := r[c].(type) {
			case bool:
				dst[i] = x
			case nil:
				v.SetNull(i, n)
			default:
				return false
			}
		}
	case KindString:
		dst := v.Strings
		for i, r := range rows {
			switch x := r[c].(type) {
			case string:
				dst[i] = x
			case nil:
				v.SetNull(i, n)
			default:
				return false
			}
		}
	case KindWindow:
		for i, r := range rows {
			switch x := r[c].(type) {
			case sql.Window:
				v.WStarts[i] = x.Start
				v.WEnds[i] = x.End
			case nil:
				v.SetNull(i, n)
			default:
				return false
			}
		}
	case KindAny:
		for i, r := range rows {
			v.Anys[i] = r[c]
		}
	}
	return true
}

// Broadcast returns a vector, drawn for b, repeating the boxed value v at
// every one of b.Len positions (all-NULL when v is nil).
func (b *Batch) Broadcast(val sql.Value, kind Kind) *Vector {
	n := b.Len
	out := b.NewVector(kind, n)
	if val == nil {
		if kind == KindAny {
			clear(out.Anys) // a nil cell is KindAny's NULL
			return out
		}
		out.EnsureNulls(n).SetAll()
		return out
	}
	switch kind {
	case KindInt64:
		x := val.(int64)
		for i := range out.Int64s {
			out.Int64s[i] = x
		}
	case KindFloat64:
		x := val.(float64)
		for i := range out.Float64s {
			out.Float64s[i] = x
		}
	case KindBool:
		x := val.(bool)
		for i := range out.Bools {
			out.Bools[i] = x
		}
	case KindString:
		x := val.(string)
		for i := range out.Strings {
			out.Strings[i] = x
		}
	case KindWindow:
		x := val.(sql.Window)
		for i := range out.WStarts {
			out.WStarts[i] = x.Start
			out.WEnds[i] = x.End
		}
	case KindAny:
		for i := range out.Anys {
			out.Anys[i] = val
		}
	}
	return out
}

// Gather builds an n-slot vector, drawn for b, of src's kind from position
// pairs: slot at[j] takes src's value and nullness at from[j], and a
// negative from[j] makes the slot NULL (the padded side of an outer join).
// at == nil places pair j in slot j. Slots no pair names are valid and hold
// garbage, like any dead lane; callers keep them dead through the batch's
// selection.
func (b *Batch) Gather(src *Vector, from, at []int32, n int) *Vector {
	out := b.NewVector(src.Kind, n)
	slot := func(j int) int {
		if at == nil {
			return j
		}
		return int(at[j])
	}
	if src.Kind == KindAny {
		for j, f := range from {
			var v sql.Value // nil: a padded slot is NULL
			if f >= 0 {
				v = src.Anys[f]
			}
			out.Anys[slot(j)] = v
		}
		return out
	}
	for j, f := range from {
		if f < 0 || src.Nulls.Get(int(f)) {
			out.SetNull(slot(j), n)
		}
	}
	switch src.Kind {
	case KindInt64:
		gather(src.Int64s, out.Int64s, from, at)
	case KindFloat64:
		gather(src.Float64s, out.Float64s, from, at)
	case KindBool:
		gather(src.Bools, out.Bools, from, at)
	case KindString:
		gather(src.Strings, out.Strings, from, at)
	case KindWindow:
		gather(src.WStarts, out.WStarts, from, at)
		gather(src.WEnds, out.WEnds, from, at)
	}
	return out
}

func gather[T any](src, dst []T, from, at []int32) {
	if at == nil {
		for j, f := range from {
			if f >= 0 {
				dst[j] = src[f]
			}
		}
		return
	}
	at = at[:len(from)]
	for j, f := range from {
		if f >= 0 {
			dst[at[j]] = src[f]
		}
	}
}
