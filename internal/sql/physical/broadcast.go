package physical

import (
	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// BroadcastTable is the static side of a stream-static join: built once
// when the query compiles, then only read, so every map task (row stage
// or vector twin) probes the same instance without synchronization.
//
// Static rows are addressed by their position in Rows. Each row's join key
// is held column-major in keys, and one open-addressed table maps the
// map side's typed key hash (vec.HashLanes, vec.HashValues) to the first
// row carrying the key; a candidate is confirmed by a typed compare, which
// holds exactly when the two keys' codec encodings are equal. Rows sharing
// a key chain through next in arrival order — the order the join emits a
// stream row's matches in. Rows with a NULL key column match nothing and
// are never linked in.
type BroadcastTable struct {
	// Rows are the static rows in arrival order.
	Rows []sql.Row
	// Cols holds the same rows column-major for the vector twin to gather
	// from; nil when a cell's dynamic type drifts from the static schema,
	// which leaves the join on the row path.
	Cols []*vec.Vector

	keys   []*vec.Vector // each row's join key, a vector per key column
	slots  []int32       // power-of-2 table: first row of a key + 1, 0 = empty
	hashes []uint64      // each linked row's key hash, keyHashMask applied
	next   []int32       // next row with the same key, -1 ends the chain
	unique bool          // no key is carried by two rows
}

// keyHashMask is ANDed into every key hash the table stores or looks up.
// Tests clear it to force every key onto one full 64-bit hash.
var keyHashMask = ^uint64(0)

// NewBroadcastTable indexes rows by the key the evals compute.
func NewBroadcastTable(schema sql.Schema, rows []sql.Row, keyEvals []func(sql.Row) sql.Value) *BroadcastTable {
	size := 16
	for size < 2*len(rows) {
		size *= 2
	}
	n := len(keyEvals)
	slab := make([]sql.Value, len(rows)*n)
	keyRows := make([]sql.Row, len(rows))
	for r, row := range rows {
		keyRows[r] = slab[r*n : (r+1)*n : (r+1)*n]
		for i, e := range keyEvals {
			keyRows[r][i] = e(row)
		}
	}
	t := &BroadcastTable{
		Rows:   rows,
		keys:   keyColumns(keyRows, n),
		slots:  make([]int32, size),
		hashes: make([]uint64, len(rows)),
		next:   make([]int32, len(rows)),
		unique: true,
	}
	if b, ok := vec.FromRows(schema, rows); ok {
		t.Cols = b.Cols
	}
	// Back to front, each row becoming the head of its key's chain, leaves
	// every chain in arrival order.
next:
	for r := len(rows) - 1; r >= 0; r-- {
		t.next[r] = -1
		for _, v := range keyRows[r] {
			if v == nil {
				continue next
			}
		}
		t.hashes[r] = vec.HashValues(keyRows[r]) & keyHashMask
		s := t.slot(t.hashes[r], t.keys, r)
		if head := t.slots[s] - 1; head >= 0 {
			t.next[r] = head
			t.unique = false
		}
		t.slots[s] = int32(r) + 1
	}
	return t
}

// keyColumns lays n-column keys out as one vector per column, typed by the
// column's first non-NULL value. The keys of a static side whose values
// drift in type are held boxed (KindAny).
func keyColumns(keyRows []sql.Row, n int) []*vec.Vector {
	fields := make([]sql.Field, n)
	for i := range fields {
		fields[i] = sql.Field{Type: sql.TypeAny}
		for _, key := range keyRows {
			if key[i] != nil {
				fields[i].Type = sql.TypeOf(key[i])
				break
			}
		}
	}
	b, ok := vec.FromRows(sql.NewSchema(fields...), keyRows)
	if !ok {
		for i := range fields {
			fields[i].Type = sql.TypeAny
		}
		b, _ = vec.FromRows(sql.NewSchema(fields...), keyRows) // boxed columns take any value
	}
	return b.Cols
}

// slot returns the table position holding the key at row r of keys (the
// table's own key columns or a stream batch's), or the empty one where it
// belongs. The table is at most half full, so the probe always ends.
func (t *BroadcastTable) slot(h uint64, keys []*vec.Vector, r int) uint64 {
	mask := uint64(len(t.slots) - 1)
	s := h & mask
	for {
		head := t.slots[s] - 1
		if head < 0 || (t.hashes[head] == h && vec.KeysEqual(t.keys, int(head), keys, r)) {
			return s
		}
		s = (s + 1) & mask
	}
}

// Lookup returns the first static row whose key equals key (encodes to the
// same bytes), or -1. A key with a NULL matches nothing.
func (t *BroadcastTable) Lookup(key []sql.Value) int32 {
	for _, v := range key {
		if v == nil {
			return -1
		}
	}
	mask := uint64(len(t.slots) - 1)
	h := vec.HashValues(key) & keyHashMask
	for s := h & mask; ; s = (s + 1) & mask {
		r := t.slots[s] - 1
		if r < 0 || t.hashes[r] == h && vec.ValuesEqual(key, t.keys, int(r)) {
			return r
		}
	}
}

// Next returns the row after r among those sharing r's key, or -1.
func (t *BroadcastTable) Next(r int32) int32 { return t.next[r] }

// ------------------------------------------------------------- vector twin

// BroadcastJoinSpec is what the row stage and the vector twin of one
// stream-static join share.
type BroadcastJoinSpec struct {
	Table *BroadcastTable
	// StreamIsLeft places the stream's columns before the static side's in
	// the joined row.
	StreamIsLeft bool
	// Outer keeps a stream row that found no match, padded with NULLs; Semi
	// and Anti emit the bare stream row when a match exists / does not.
	Outer, Semi, Anti bool
	// Joined is the schema of the joined (left ++ right) row, which Semi and
	// Anti only ever build to evaluate a residual.
	Joined sql.Schema
}

type vecBroadcastJoin struct {
	BroadcastJoinSpec
	keys     []*vec.Program // stream-side key columns
	residual *vec.Program   // over the joined (left ++ right) row; may be nil
}

// NewVecBroadcastJoin is the columnar twin of the stream-static join
// stage. keys compute the stream side's join key; residual (nil for a pure
// equi-join) runs over candidate pairs laid out as joined rows. The caller
// must only build it when spec.Table.Cols is set.
func NewVecBroadcastJoin(spec BroadcastJoinSpec, keys []*vec.Program, residual *vec.Program) VecOp {
	return &vecBroadcastJoin{BroadcastJoinSpec: spec, keys: keys, residual: residual}
}

func (j *vecBroadcastJoin) Apply(b *vec.Batch) *vec.Batch {
	live := b.Sel
	if live == nil {
		live = b.NewSel(b.Len)
		for i := range live {
			live[i] = int32(i)
		}
	}
	lanes, rows := j.probe(b, live)
	if j.residual != nil && len(lanes) > 0 {
		// The row stage evaluates the residual on each candidate's joined
		// row; the twin lays every candidate out as one dense batch.
		cand := j.joined(b, lanes, rows, true)
		keep := vec.FilterSel(cand, j.residual.Run(cand))
		for n, k := range keep { // keep ascends, so k >= n: compaction in place
			lanes[n], rows[n] = lanes[k], rows[k]
		}
		lanes, rows = lanes[:len(keep)], rows[:len(keep)]
	}
	switch {
	case j.Semi, j.Anti:
		// lanes lists the matched stream lanes in live order, a lane once per
		// match: Semi keeps each once, Anti keeps the live lanes it skips.
		sel := b.NewSel(len(live))[:0]
		m := 0
		for _, lane := range live {
			matched := m < len(lanes) && lanes[m] == lane
			for m < len(lanes) && lanes[m] == lane {
				m++
			}
			if matched == j.Semi {
				sel = append(sel, lane)
			}
		}
		return b.Derive(b.Schema, b.Cols, b.Len, sel)
	case j.Outer:
		padLanes := b.NewSel(len(live) + len(lanes))[:0]
		padRows := b.NewSel(len(live) + len(lanes))[:0]
		m := 0
		for _, lane := range live {
			if m == len(lanes) || lanes[m] != lane {
				padLanes, padRows = append(padLanes, lane), append(padRows, -1)
				continue
			}
			for ; m < len(lanes) && lanes[m] == lane; m++ {
				padLanes, padRows = append(padLanes, lane), append(padRows, rows[m])
			}
		}
		lanes, rows = padLanes, padRows
	}
	return j.joined(b, lanes, rows, !j.Table.unique)
}

// probe returns the candidate pairs (stream lane, static row) of the live
// lanes, in the order the row stage visits them: lane by lane, and within a
// lane along the key's chain. Keys hash straight off the key vectors, a
// chunk of lanes at a time, and compare typed cells against the table's
// key columns.
func (j *vecBroadcastJoin) probe(b *vec.Batch, live []int32) (lanes, rows []int32) {
	keys := make([]*vec.Vector, len(j.keys))
	for i, prog := range j.keys {
		keys[i] = prog.Run(b)
	}
	lanes = b.NewSel(len(live))[:0]
	rows = b.NewSel(len(live))[:0]
	t := j.Table
	// One int64 column on both sides, the common shape, compares the key
	// words themselves: equal words are equal keys, and so equal hashes.
	var ints, tints []int64
	if len(keys) == 1 && keys[0].Kind == vec.KindInt64 && t.keys[0].Kind == vec.KindInt64 {
		ints, tints = keys[0].Int64s, t.keys[0].Int64s
	}
	mask := uint64(len(t.slots) - 1)
	var hs [vec.HashChunk]uint64
	for from := 0; from < len(live); from += vec.HashChunk {
		chunk := live[from:min(from+vec.HashChunk, len(live))]
		vec.HashLanes(hs[:len(chunk)], keys, chunk)
	next:
		for c, lane := range chunk {
			i := int(lane)
			for _, k := range keys {
				if k.IsNull(i) {
					continue next // a NULL key matches nothing
				}
			}
			h := hs[c] & keyHashMask
			var r int32
			if ints != nil {
				x := ints[i]
				for s := h & mask; ; s = (s + 1) & mask {
					if r = t.slots[s] - 1; r < 0 || tints[r] == x {
						break
					}
				}
			} else {
				r = t.slots[t.slot(h, keys, i)] - 1
			}
			for ; r >= 0; r = t.next[r] {
				lanes, rows = append(lanes, lane), append(rows, r)
			}
		}
	}
	return lanes, rows
}

// joined lays pairs out as a batch of joined rows. Dense, pair p becomes
// lane p of a batch of len(lanes) lanes. Otherwise — valid only when no
// lane is named twice — the stream columns pass through untouched, the
// static cells land at their stream lane, and the selection narrows to the
// named lanes. A negative static row pads with NULLs.
func (j *vecBroadcastJoin) joined(b *vec.Batch, lanes, rows []int32, dense bool) *vec.Batch {
	n, at, stream := b.Len, lanes, b.Cols
	if dense {
		n, at = len(lanes), nil
		stream = make([]*vec.Vector, len(b.Cols))
		for c, v := range b.Cols {
			if v != nil {
				stream[c] = b.Gather(v, lanes, nil, n)
			}
		}
	}
	static := make([]*vec.Vector, len(j.Table.Cols))
	for c, v := range j.Table.Cols {
		static[c] = b.Gather(v, rows, at, n)
	}
	var sel []int32
	if !dense {
		sel = lanes
	}
	if j.StreamIsLeft {
		return b.Derive(j.Joined, append(stream[:len(stream):len(stream)], static...), n, sel)
	}
	return b.Derive(j.Joined, append(static, stream...), n, sel)
}
