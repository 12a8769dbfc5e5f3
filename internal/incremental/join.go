package incremental

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/physical"
	"structream/internal/state"
)

// StreamStreamJoin is the symmetric hash join between two streams (§5.2):
// each side's rows are buffered in the state store under the equi-join key;
// new rows probe the opposite side's buffer. With watermarks, buffered rows
// whose event time has passed are evicted — and for outer joins, an evicted
// unmatched row on the preserved side is emitted null-padded at that point,
// which is why the analyzer requires the join condition of an outer
// stream-stream join to involve a watermarked column.
type StreamStreamJoin struct {
	OpName string
	Type   logical.JoinType // Inner, LeftOuter or RightOuter
	// LeftArity/RightArity are the row widths of each side.
	LeftArity, RightArity int
	// Residual is the non-equi part of the condition, bound over the
	// concatenated (left ++ right) row; nil when purely equi.
	Residual func(sql.Row) sql.Value
	// LeftEventIdx/RightEventIdx locate each side's watermarked event-time
	// column (-1 = none; that side's state is never evicted).
	LeftEventIdx, RightEventIdx int
	Out                         sql.Schema
}

// Name implements StatefulOp.
func (j *StreamStreamJoin) Name() string { return j.OpName }

// OutputSchema implements StatefulOp.
func (j *StreamStreamJoin) OutputSchema() sql.Schema { return j.Out }

// State layout (DESIGN.md "join state layout"): every buffered row is its own
// entry, so an append writes O(1) bytes and eviction reads only what it drops.
//
//	'h' side joinKey                       → uvarint lo, hi, live
//	'e' side joinKey idx(8, BE)            → varint ts, matched byte, codec row
//	't' side ts(8, BE) joinKey idx(8, BE)  → empty; rows with ts ≥ 0 only
//	'w'                                    → uvarint watermark of the last eviction
//
// side is 'L' or 'R', joinKey the codec-encoded equi-key values (rows of both
// sides with equal keys share a partition), idx the header's hi at append.
const tagHeader, tagEntry, tagTime, tagFloor byte = 'h', 'e', 't', 'w'

var (
	joinSides     = [2]byte{'L', 'R'}
	errJoinState  = errors.New("incremental: corrupt join state")
	errJoinLayout = errors.New("incremental: join state written by an older layout (one row list per join key); restart the query from a new checkpoint")
)

// joinKeyBuf renders state keys into chunks it allocates 64 KiB at a time:
// the store copies every key it keeps, so a key needs no allocation of its own.
type joinKeyBuf []byte

// key renders a header, entry or time-index key; ts applies to tagTime only,
// idx to all but tagHeader.
func (b *joinKeyBuf) key(tag, side byte, ts int64, kb []byte, idx uint64) []byte {
	if cap(*b)-len(*b) < 18+len(kb) {
		*b = make([]byte, 0, max(64<<10, 18+len(kb)))
	}
	k := append(*b, tag, side)
	if tag == tagTime {
		k = binary.BigEndian.AppendUint64(k, uint64(ts))
	}
	k = append(k, kb...)
	if tag != tagHeader {
		k = binary.BigEndian.AppendUint64(k, idx)
	}
	start := len(*b)
	*b = k
	return k[start:len(k):len(k)] // capped: appending to a key must not run into the next
}

// parseJoinTimeKey splits a time-index key; kb aliases k.
func parseJoinTimeKey(k []byte) (ts int64, kb []byte, idx uint64, err error) {
	switch {
	case len(k) > 0 && (k[0] == 'L' || k[0] == 'R'):
		return 0, nil, 0, errJoinLayout
	case len(k) < 18 || k[0] != tagTime || (k[1] != 'L' && k[1] != 'R') || k[2] > 0x7f:
		return 0, nil, 0, errJoinState
	}
	return int64(binary.BigEndian.Uint64(k[2:])), k[10 : len(k)-8], binary.BigEndian.Uint64(k[len(k)-8:]), nil
}

// joinSide is one (side, join key): its header — idx range [lo, hi) holding
// live rows, the rest being holes eviction left — and, when the other side's
// rows probe it this epoch, those rows decoded once.
type joinSide struct {
	lo, hi, live  uint64
	rows          []joinEntry
	probed, dirty bool
}

// joinEntry is one buffered row. matched is kept only where it is read: on
// the preserved side of an outer join.
type joinEntry struct {
	row            sql.Row
	ts             int64 // event time, -1 unknown
	idx            uint64
	matched, dirty bool
}

type joinKeyState struct {
	kb    []byte // encoded join key
	sides [2]joinSide
}

func (sd *joinSide) encodeHeader() []byte {
	v := binary.AppendUvarint(make([]byte, 0, 12), sd.lo)
	return binary.AppendUvarint(binary.AppendUvarint(v, sd.hi), sd.live)
}

func (sd *joinSide) decodeHeader(v []byte) error {
	for _, f := range []*uint64{&sd.lo, &sd.hi, &sd.live} {
		n, w := binary.Uvarint(v)
		if w <= 0 {
			return errJoinState
		}
		*f, v = n, v[w:]
	}
	if len(v) != 0 || sd.live == 0 || sd.lo > sd.hi || sd.live > sd.hi-sd.lo {
		return errJoinState
	}
	return nil
}

func (e *joinEntry) encode(enc *codec.Encoder) []byte {
	enc.Reset()
	enc.PutRow(e.row)
	v := binary.AppendVarint(make([]byte, 0, 11+len(enc.Bytes())), e.ts)
	v = append(v, 0)
	if e.matched {
		v[len(v)-1] = 1
	}
	return append(v, enc.Bytes()...)
}

func (e *joinEntry) decode(v []byte) (err error) {
	ts, w := binary.Varint(v)
	if w <= 0 || len(v) == w || v[w] > 1 {
		return errJoinState
	}
	d := codec.NewDecoder(v[w+1:])
	if e.row, err = d.Row(); err == nil && d.Remaining() {
		err = errJoinState
	}
	e.ts, e.matched = ts, v[w] == 1
	return err
}

// shuffle rows for the join are [equiKeys..., eventTs, originalRow...]:
// the compiler prepends the routing key and event timestamp so Process can
// slice them off without re-evaluating expressions.

// JoinShuffleRow builds the shuffle row for one side.
func JoinShuffleRow(key []sql.Value, ts int64, row sql.Row) sql.Row {
	out := make(sql.Row, 0, len(key)+1+len(row))
	out = append(out, key...)
	out = append(out, ts)
	return append(out, row...)
}

// preserves reports whether side s's unmatched rows are emitted null-padded.
func (j *StreamStreamJoin) preserves(s int) bool {
	return s == 0 && j.Type == logical.LeftOuterJoin || s == 1 && j.Type == logical.RightOuterJoin
}

func (j *StreamStreamJoin) padded(s int, row sql.Row) sql.Row {
	out := make(sql.Row, j.LeftArity+j.RightArity)
	copy(out[s*j.LeftArity:], row)
	return out
}

// Process implements StatefulOp. inputs[0] is the left side's shuffle rows,
// inputs[1] the right side's. State is read in batches up front — the
// headers of the epoch's distinct join keys, then the probed sides' rows —
// so a buffered row is decoded once per epoch, not once per arriving row.
func (j *StreamStreamJoin) Process(ctx *EpochContext, store *state.Store, inputs [][]sql.Row) ([]sql.Row, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("incremental: stream-stream join needs two inputs")
	}
	arity := [2]int{j.LeftArity, j.RightArity}
	eventIdx := [2]int{j.LeftEventIdx, j.RightEventIdx}
	enc := codec.NewEncoder(64)
	var keyBuf joinKeyBuf
	byKey := map[string]*joinKeyState{}
	var keys []*joinKeyState // first-seen order
	// keyOf returns the state of sr's join key, or nil for a NULL key: it can
	// never match, and buffering it would leak state.
	keyOf := func(s int, sr sql.Row) *joinKeyState {
		enc.Reset()
		for _, v := range sr[:len(sr)-1-arity[s]] {
			if v == nil {
				return nil
			}
			enc.PutValue(v)
		}
		ks := byKey[string(enc.Bytes())]
		if ks == nil {
			ks = &joinKeyState{kb: append([]byte(nil), enc.Bytes()...)}
			byKey[string(ks.kb)], keys = ks, append(keys, ks)
		}
		return ks
	}
	for s, rows := range inputs[:2] {
		for _, sr := range rows {
			if len(sr) < 1+arity[s] {
				return nil, fmt.Errorf("incremental: malformed join shuffle row")
			}
			if ks := keyOf(s, sr); ks != nil {
				ks.sides[1-s].probed = true
			}
		}
	}

	gets := append(make([][]byte, 0, 1+2*len(keys)), []byte{tagFloor})
	for _, ks := range keys {
		gets = append(gets, keyBuf.key(tagHeader, 'L', 0, ks.kb, 0), keyBuf.key(tagHeader, 'R', 0, ks.kb, 0))
	}
	hdrs, oks := store.GetBatch(gets)
	floor, w := binary.Uvarint(hdrs[0])
	if hasFloor := oks[0]; hasFloor && w <= 0 {
		return nil, errJoinState
	} else if !hasFloor && store.NumKeys() > 0 {
		return nil, errJoinLayout // only this layout's first epoch on a store finds no 'w'
	}
	minTs := [2]int64{math.MaxInt64, math.MaxInt64}
	putNew := func(k, v []byte) { store.Hint(k, false); store.Put(k, v) }
	// buffer writes e as a new entry of side s of ks and, if it can ever be
	// evicted, its time-index key.
	buffer := func(s int, ks *joinKeyState, e joinEntry) {
		putNew(keyBuf.key(tagEntry, joinSides[s], 0, ks.kb, e.idx), e.encode(enc))
		if e.ts >= 0 && eventIdx[s] >= 0 {
			putNew(keyBuf.key(tagTime, joinSides[s], e.ts, ks.kb, e.idx), []byte{})
			minTs[s] = min(minTs[s], e.ts)
		}
	}
	var probes [][]byte
	for i, ks := range keys {
		for s := range ks.sides {
			sd := &ks.sides[s]
			if oks[1+2*i+s] {
				if err := sd.decodeHeader(hdrs[1+2*i+s]); err != nil {
					return nil, err
				}
			}
			for idx := sd.lo; sd.probed && idx < sd.hi; idx++ {
				probes = append(probes, keyBuf.key(tagEntry, joinSides[s], 0, ks.kb, idx))
			}
		}
	}
	vals, found := store.GetBatch(probes)
	n := 0
	for _, ks := range keys {
		for s := range ks.sides {
			sd := &ks.sides[s]
			if sd.probed && sd.live > 0 {
				sd.rows = make([]joinEntry, 0, sd.live)
			}
			for idx := sd.lo; sd.probed && idx < sd.hi; idx, n = idx+1, n+1 {
				if !found[n] {
					continue // a hole: evicted before an older idx of this key
				}
				e := joinEntry{idx: idx}
				if err := e.decode(vals[n]); err != nil {
					return nil, err
				}
				sd.rows = append(sd.rows, e)
			}
			if sd.probed && uint64(len(sd.rows)) != sd.live {
				return nil, errJoinState
			}
			if len(sd.rows) > 0 && sd.rows[0].idx > sd.lo {
				sd.lo, sd.dirty = sd.rows[0].idx, true // leading holes are never read again
			}
			if sd.probed && sd.hi-sd.lo > 2*sd.live {
				// Holes behind a row that outlives its successors (no event
				// time, or a late one) outnumber the rows: move the rows to
				// fresh indices, in order, so that a probe never reads more
				// than twice what is live.
				for k := range sd.rows {
					e := &sd.rows[k]
					store.Remove(keyBuf.key(tagEntry, joinSides[s], 0, ks.kb, e.idx))
					if e.ts >= 0 && eventIdx[s] >= 0 {
						tk := keyBuf.key(tagTime, joinSides[s], e.ts, ks.kb, e.idx)
						store.Hint(tk, true) // written with the entry just read
						store.Remove(tk)
					}
					e.idx = sd.hi + uint64(k)
					buffer(s, ks, *e)
				}
				sd.lo, sd.hi, sd.dirty = sd.hi, sd.hi+sd.live, true
			}
		}
	}

	// Left rows first (probing committed right state), then right rows
	// (probing left state including this epoch's additions): every
	// cross-epoch pair matches exactly once, in arrival × idx order.
	var out []sql.Row
	pair := make(sql.Row, j.LeftArity+j.RightArity)
	arena := physical.NewRowArena(len(pair)) // emitted rows: one allocation per 4096
	for s, rows := range inputs[:2] {
		for _, sr := range rows {
			ks, row := keyOf(s, sr), sr[len(sr)-arity[s]:]
			if ks == nil {
				if j.preserves(s) {
					out = append(out, j.padded(s, row))
				}
				continue
			}
			own, other := &ks.sides[s], &ks.sides[1-s]
			e := joinEntry{row: row, ts: -1, idx: own.hi}
			if ts, ok := sr[len(sr)-arity[s]-1].(int64); ok {
				e.ts = ts
			}
			copy(pair[s*j.LeftArity:], row)
			for k := range other.rows {
				o := &other.rows[k]
				copy(pair[(1-s)*j.LeftArity:], o.row)
				if j.Residual != nil {
					if b, ok := j.Residual(pair).(bool); !ok || !b {
						continue
					}
				}
				emitted := arena.Next()
				copy(emitted, pair)
				out = append(out, emitted)
				e.matched = j.preserves(s)
				if j.preserves(1-s) && !o.matched {
					o.matched, o.dirty = true, true
				}
			}
			buffer(s, ks, e)
			own.hi, own.live, own.dirty = own.hi+1, own.live+1, true
			if own.probed {
				own.rows = append(own.rows, e) // later rows of the other side see it
			}
		}
	}
	for _, ks := range keys {
		for s := range ks.sides {
			sd := &ks.sides[s]
			for k := range sd.rows {
				if e := &sd.rows[k]; e.dirty {
					store.Put(keyBuf.key(tagEntry, joinSides[s], 0, ks.kb, e.idx), e.encode(enc))
				}
			}
			if sd.dirty {
				store.Put(keyBuf.key(tagHeader, joinSides[s], 0, ks.kb, 0), sd.encodeHeader())
			}
		}
	}

	for s := 0; s < 2 && ctx.Watermark > 0; s++ {
		if eventIdx[s] < 0 {
			continue
		}
		var err error
		if out, err = j.evict(store, &keyBuf, s, min(int64(floor), minTs[s]), ctx.Watermark, out); err != nil {
			return nil, err
		}
	}
	if !oks[0] || ctx.Watermark > int64(floor) {
		store.Put(gets[0], binary.AppendUvarint(nil, uint64(max(ctx.Watermark, int64(floor)))))
	}
	return out, nil
}

// evict drops side s's rows with from ≤ ts < wm by walking that stretch of
// the time index — nothing else is scanned — and, on the preserved side of an
// outer join, emits the unmatched ones null-padded in index order.
func (j *StreamStreamJoin) evict(store *state.Store, keyBuf *joinKeyBuf, s int, from, wm int64, out []sql.Row) ([]sql.Row, error) {
	side := joinSides[s]
	type victim struct {
		h   *joinSide
		idx uint64
		tk  []byte
	}
	var victims []victim
	var hdrs []*joinSide
	var hks, eks [][]byte
	byKey := map[string]*joinSide{}
	var err error
	store.Range(keyBuf.key(tagTime, side, from, nil, 0)[:10], keyBuf.key(tagTime, side, wm, nil, 0)[:10], func(tk, _ []byte) bool {
		var kb []byte
		var idx uint64
		if _, kb, idx, err = parseJoinTimeKey(tk); err != nil {
			return false
		}
		h := byKey[string(kb)]
		if h == nil {
			h = &joinSide{}
			byKey[string(kb)], hdrs = h, append(hdrs, h)
			hks = append(hks, keyBuf.key(tagHeader, side, 0, kb, 0))
		}
		victims, eks = append(victims, victim{h, idx, tk}), append(eks, keyBuf.key(tagEntry, side, 0, kb, idx))
		return true
	})
	if err != nil {
		return nil, err
	}
	vals, _ := store.GetBatch(hks)
	for i, h := range hdrs {
		if err := h.decodeHeader(vals[i]); err != nil {
			return nil, err // including an index entry whose header is gone
		}
	}
	if j.preserves(s) {
		vals, _ = store.GetBatch(eks)
	}
	for i, v := range victims {
		if j.preserves(s) {
			var e joinEntry
			if err := e.decode(vals[i]); err != nil {
				return nil, err // including an index entry whose row is gone
			} else if !e.matched {
				out = append(out, j.padded(s, e.row))
			}
		}
		if v.h.live == 0 {
			return nil, errJoinState
		}
		v.h.live--
		if v.idx == v.h.lo {
			v.h.lo++ // in-order eviction leaves no hole behind
		}
		store.Hint(eks[i], true) // both were found by the scan, unless
		store.Hint(v.tk, true)   // this epoch appended them and said so
		store.Remove(eks[i])
		store.Remove(v.tk)
	}
	for i, h := range hdrs {
		if h.live == 0 {
			store.Remove(hks[i])
		} else {
			store.Put(hks[i], h.encodeHeader())
		}
	}
	return out, nil
}
