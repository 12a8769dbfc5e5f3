package incremental

import (
	"encoding/binary"
	"fmt"
	"sync"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/physical"
	"structream/internal/sql/vec"
)

// The stream-stream join's map side: each side's rows leave the map task as
// join cells, the form the join stores them in.

// joinCell is one row of a stream-stream join's shuffle in the form the join
// stores it, rendered on the map side (joinCells): the reduce side keys,
// buckets, band-checks and buffers a row without decoding it, and boxes it
// only for a pair inside the band. A shuffle row is {cell, event time}: the
// int64 at index 1 is ts, for readers that take the time off the row.
//
// Cells are engine-private and immutable once rendered. key and entry are cut
// from slabs joinCells.scatter allocates per bucket per call and never
// reuses; entry has a slab of its own because it is what the store keeps.
type joinCell struct {
	hash  uint64 // codec.HashBytes(key): the shuffle-routing hash
	key   []byte // the codec-encoded equi-key values
	null  bool   // a key value is NULL: the row never matches and is never buffered
	ts    int64  // event time, -1 when the row has none
	entry []byte // the buffered-entry value: varint ts, matched byte 0, codec row
}

func (c *joinCell) String() string { return fmt.Sprintf("join(%x@%d: %x)", c.key, c.ts, c.entry) }

// joinCellOf reports the cell a join shuffle row carries.
func joinCellOf(r sql.Row) (*joinCell, bool) {
	if len(r) != 2 {
		return nil, false
	}
	c, ok := r[0].(*joinCell)
	return c, ok && c != nil
}

// joinShuffle is one side's shuffle prep: where a row's equi-key (keyProgs,
// over the side's column batch) and event time come from.
type joinShuffle struct {
	keyProgs []*vec.Program
	eventIdx int
	pool     sync.Pool // *joinCells
}

func (sh *joinShuffle) cells() *joinCells {
	if c, ok := sh.pool.Get().(*joinCells); ok {
		return c
	}
	return &joinCells{}
}

func (sh *joinShuffle) release(c *joinCells) {
	c.enc.Reset()
	c.rows = c.rows[:0]
	sh.pool.Put(c)
}

// scatter is the join side's terminal: one task's batch's live rows,
// rendered as cells and cut into buckets.
func (sh *joinShuffle) scatter(b *vec.Batch, nPart int) [][]sql.Row {
	c := sh.cells()
	c.addBatch(sh, b)
	buckets := c.scatter(nPart)
	sh.release(c)
	return buckets
}

// joinCells collects a map task's rows as cells until scatter cuts them into
// buckets: each row's key bytes and entry bytes back to back in enc.
type joinCells struct {
	enc  codec.Encoder
	rows []pendingCell
}

type pendingCell struct {
	hash        uint64
	ts          int64
	null        bool
	keyEnd, end int // where in enc the row's key bytes and its entry bytes end
}

// entryHead ends the key bytes of the row being rendered and begins its
// entry: the event time, the matched byte 0 and the row's arity.
func (c *joinCells) entryHead(ts int64, arity int) (keyEnd int) {
	var head [2*binary.MaxVarintLen64 + 1]byte
	keyEnd = len(c.enc.Bytes())
	c.enc.PutRaw(binary.AppendUvarint(append(binary.AppendVarint(head[:0], ts), 0), uint64(arity))...)
	return keyEnd
}

// push records the row rendered from start on.
func (c *joinCells) push(start, keyEnd int, null bool, ts int64) {
	buf := c.enc.Bytes()
	c.rows = append(c.rows, pendingCell{codec.HashBytes(buf[start:keyEnd]), ts, null, keyEnd, len(buf)})
}

// addBatch renders a column batch's live rows without boxing them: the key
// through its programs, the event time and the row straight off the vectors.
func (c *joinCells) addBatch(sh *joinShuffle, b *vec.Batch) {
	keys := make([]*vec.Vector, len(sh.keyProgs))
	for i, p := range sh.keyProgs {
		keys[i] = p.Run(b)
	}
	var ev *vec.Vector
	if sh.eventIdx >= 0 {
		ev = b.Cols[sh.eventIdx]
	}
	lane := func(i int) {
		start, null := len(c.enc.Bytes()), false
		for _, k := range keys {
			null = null || k.IsNull(i)
			c.enc.PutVectorValue(k, i)
		}
		ts := int64(-1)
		switch {
		case ev == nil || ev.IsNull(i):
		case ev.Kind == vec.KindInt64:
			ts = ev.Int64s[i]
		case ev.Kind == vec.KindAny:
			if v, ok := ev.Anys[i].(int64); ok {
				ts = v
			}
		}
		keyEnd := c.entryHead(ts, len(b.Cols))
		for _, col := range b.Cols {
			c.enc.PutVectorValue(col, i)
		}
		c.push(start, keyEnd, null, ts)
	}
	if b.Sel != nil {
		for _, i := range b.Sel {
			lane(int(i))
		}
		return
	}
	for i := 0; i < b.Len; i++ {
		lane(i)
	}
}

// scatter cuts the collected rows into nPart buckets of shuffle rows, in
// arrival order, routed by the key hash: codec.HashBytes(key) ==
// codec.HashKey of the key values, so the buckets are those routing the boxed
// key would give. Cells, row headers, key bytes and entry bytes come out of
// one slab each per bucket, so a call allocates O(buckets), plus the boxed
// event time of each row.
func (c *joinCells) scatter(nPart int) [][]sql.Row {
	type bucket struct {
		cells                 []joinCell
		vals                  []sql.Value // row i is vals[2i : 2i+2]
		keys, entries         []byte
		n, keySize, entrySize int
	}
	slabs, buf := make([]bucket, nPart), c.enc.Bytes()
	from := 0
	for _, p := range c.rows {
		b := &slabs[p.hash%uint64(nPart)]
		b.n, b.keySize, b.entrySize = b.n+1, b.keySize+p.keyEnd-from, b.entrySize+p.end-p.keyEnd
		from = p.end
	}
	buckets := make([][]sql.Row, nPart)
	for part := range slabs {
		if b := &slabs[part]; b.n > 0 {
			b.cells = make([]joinCell, 0, b.n)
			b.vals = make([]sql.Value, 0, 2*b.n)
			b.keys = make([]byte, 0, b.keySize)
			b.entries = make([]byte, 0, b.entrySize)
			buckets[part] = make([]sql.Row, 0, b.n)
		}
	}
	from = 0
	for _, p := range c.rows {
		part := p.hash % uint64(nPart)
		b := &slabs[part]
		k, e := len(b.keys), len(b.entries)
		b.keys = append(b.keys, buf[from:p.keyEnd]...)
		b.entries = append(b.entries, buf[p.keyEnd:p.end]...)
		from = p.end
		b.cells = append(b.cells, joinCell{hash: p.hash, key: b.keys[k:len(b.keys):len(b.keys)], null: p.null, ts: p.ts,
			entry: b.entries[e:len(b.entries):len(b.entries)]})
		v := len(b.vals)
		b.vals = append(b.vals, &b.cells[len(b.cells)-1], p.ts)
		buckets[part] = append(buckets[part], b.vals[v:v+2:v+2])
	}
	return buckets
}

// entryTs reads the event time an entry value leads with; rest is the
// matched byte and the row.
func entryTs(v []byte) (ts int64, rest []byte, err error) {
	ts, w := binary.Varint(v)
	if w <= 0 || len(v) == w || v[w] > 1 {
		return 0, nil, errJoinState
	}
	return ts, v[w:], nil
}

// entryRow decodes the row of an entry value, into a row of arena's when the
// row is width values wide and arena is not nil.
func entryRow(v []byte, arena *physical.RowArena, width int) (sql.Row, error) {
	_, rest, err := entryTs(v)
	if err != nil {
		return nil, err
	}
	n, pos := binary.Uvarint(rest[1:])
	// Every value takes at least its tag byte: a longer row is corrupt, and
	// must not size the allocation below.
	if pos <= 0 || n > uint64(len(rest)) {
		return nil, errJoinState
	}
	row := sql.Row(nil)
	if arena != nil && n == uint64(width) {
		row = arena.Next()
	} else {
		row = make(sql.Row, n)
	}
	at := 1 + pos
	for i := range row {
		if row[i], at = sql.ReadValue(rest, at); at < 0 {
			return nil, errJoinState
		}
	}
	if at != len(rest) {
		return nil, errJoinState
	}
	return row, nil
}

// withMatched is entry value v marked matched: a copy, the store holding v.
func withMatched(v []byte) []byte {
	_, rest, _ := entryTs(v) // v was parsed when it was read or rendered
	m := append([]byte(nil), v...)
	m[len(v)-len(rest)] = 1
	return m
}
