package vec

import (
	"sync"

	"structream/internal/sql"
)

// batchPool recycles source-decode batches between map tasks. A task's
// decode batch is its largest allocation (one slab per column, sized for
// the whole offset slice), and a fresh one is zeroed on every task only to
// be overwritten by the decoder.
var batchPool sync.Pool

// GetBatch returns an n-slot batch for schema, reusing a released batch's
// vectors where their kind and capacity fit. keep[c] == false leaves
// Cols[c] nil — a column the reader will not decode; a nil keep keeps every
// column. Every kept column starts with no nulls, but its value slots hold
// whatever the previous user left: as with slots at NULL positions, the
// caller must write each slot it later exposes through Len.
func GetBatch(schema sql.Schema, keep []bool, n int) *Batch {
	b, _ := batchPool.Get().(*Batch)
	if b == nil {
		b = &Batch{}
	}
	if len(b.Cols) != schema.Len() {
		b.Cols = make([]*Vector, schema.Len())
	}
	for c, v := range b.Cols {
		kind := KindOf(schema.Field(c).Type)
		switch {
		case keep != nil && !keep[c]:
			v = nil
		case v == nil || !v.reuse(kind, n):
			v = NewVector(kind, n)
		}
		b.Cols[c] = v
	}
	b.Schema, b.Len, b.Sel = schema, n, nil
	return b
}

// Release hands the batch's vectors back for reuse. Only the holder of the
// last reference may call it, counting everything derived from the batch:
// selections, zero-copy projections and gathered batches share or index
// its vectors, so a batch that reached a consumer still columnar (a
// ColumnSink) must never be released. Rendered rows are safe — boxing
// copies each cell, and string cells point at the record bytes they were
// decoded from, not at the vector.
func (b *Batch) Release() { batchPool.Put(b) }

// reuse re-slices the vector to n slots for a new user of the same kind,
// dropping its null bitmap; false when the kind differs or the slab is too
// small.
func (v *Vector) reuse(kind Kind, n int) bool {
	if v.Kind != kind {
		return false
	}
	ok := true
	switch kind {
	case KindInt64:
		v.Int64s, ok = fit(v.Int64s, n)
	case KindFloat64:
		v.Float64s, ok = fit(v.Float64s, n)
	case KindBool:
		v.Bools, ok = fit(v.Bools, n)
	case KindString:
		v.Strings, ok = fit(v.Strings, n)
	case KindWindow:
		var okEnds bool
		v.WStarts, ok = fit(v.WStarts, n)
		v.WEnds, okEnds = fit(v.WEnds, n)
		ok = ok && okEnds
	case KindAny:
		v.Anys, ok = fit(v.Anys, n)
	}
	v.Nulls = nil
	return ok
}

func fit[T any](slab []T, n int) ([]T, bool) {
	if cap(slab) < n {
		return slab, false
	}
	return slab[:n], true
}
