package incremental

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/physical"
	"structream/internal/state"
)

// StreamStreamJoin is the symmetric hash join between two streams (§5.2):
// each side's rows are buffered in the state store under the equi-join key;
// new rows probe the opposite side's buffer. With watermarks, a buffered row
// is evicted once no row of the other side that is not late (event time ≥ the
// watermark W) can match it — evictLag has the rule — and for outer joins, an
// evicted unmatched row on the preserved side is emitted null-padded at that
// point, which is why the analyzer requires the join condition of an outer
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
	// Band is the constant interval the condition implies for right event
	// time − left event time (nil: none). The planner derives it; a pair
	// outside it is never handed to Residual, and when both ends are finite
	// the state is grouped by it (DESIGN.md "join state layout").
	Band *TimeBand
	Out  sql.Schema

	entriesRead atomic.Int64 // buffered entries fetched by probes, for tests and benchmarks
}

// TimeBand bounds rightTs − leftTs: Lo ≤ rightTs − leftTs ≤ Hi, in µs.
// math.MinInt64 and math.MaxInt64 leave an end open.
type TimeBand struct{ Lo, Hi int64 }

// minJoinBucket keeps a band narrower than the rows of one key are apart
// from costing a header per buffered row.
const minJoinBucket = 1_000_000 // µs

// bucketWidth is the width of the time buckets the state is grouped by: no
// less than the band's, so that the rows one row can match lie in at most two
// of them. 0 — one bucket for everything — unless both ends are finite.
func (j *StreamStreamJoin) bucketWidth() int64 {
	b := j.Band
	if b == nil || b.Lo == math.MinInt64 || b.Hi == math.MaxInt64 {
		return 0
	}
	if b.Hi < b.Lo {
		return minJoinBucket // nothing matches; any width will do
	}
	return int64(min(max(uint64(b.Hi)-uint64(b.Lo), minJoinBucket), math.MaxInt64))
}

// bucketOf is the bucket a row lives in: 0 for every row of an unbucketed
// join and for rows without a (non-negative) event time, which no watermark
// ever reaches; 1 + ts/width otherwise.
func bucketOf(width, ts int64) uint64 {
	if width == 0 || ts < 0 {
		return 0
	}
	return 1 + uint64(ts/width)
}

// window is the range of the other side's event times that a row of side s
// at ts can match.
func (j *StreamStreamJoin) window(s int, ts int64) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if b := j.Band; b != nil && s == 0 {
		if b.Lo > math.MinInt64 {
			lo = satAdd(ts, b.Lo)
		}
		if b.Hi < math.MaxInt64 {
			hi = satAdd(ts, b.Hi)
		}
	} else if b != nil {
		if b.Hi < math.MaxInt64 {
			lo = satAdd(ts, -b.Hi)
		}
		if b.Lo > math.MinInt64 {
			hi = satAdd(ts, -b.Lo)
		}
	}
	return lo, hi
}

// evictLag is how far behind the watermark W side s's rows are kept (µs): a
// row is evicted when ts < W − evictLag(s). With lo ≤ rightTs − leftTs ≤ hi
// and every future right row at rightTs ≥ W, a left row can still be matched
// while leftTs ≥ W − hi, and by symmetry a right row while rightTs ≥ W + lo
// (Spark's per-side state watermark, §5.2): the lag is hi on the left and −lo
// on the right, when that end of the band is finite, and never negative — a
// band that lies wholly ahead evicts at ts < W as before. An open end says a
// row of that side can be matched forever; holding it forever is not on
// offer, so the unbounded side of a one-sided band, and both sides of a join
// without a band, keep ts < W.
func (j *StreamStreamJoin) evictLag(s int) int64 {
	switch b := j.Band; {
	case b != nil && s == 0 && b.Hi < math.MaxInt64:
		return max(b.Hi, 0)
	case b != nil && s == 1 && b.Lo > math.MinInt64:
		return max(-b.Lo, 0)
	}
	return 0
}

// satAdd is a + b, held at the end of int64 it would pass.
func satAdd(a, b int64) int64 {
	if c := a + b; (c > a) == (b > 0) {
		return c
	} else if b > 0 {
		return math.MaxInt64
	}
	return math.MinInt64
}

// timeBuckets is the range of time buckets [lo, hi] overlaps, first > last
// when there is none.
func timeBuckets(width, lo, hi int64) (first, last uint64) {
	if width == 0 || hi < 0 || hi < lo {
		return 1, 0
	}
	return bucketOf(width, max(lo, 0)), bucketOf(width, hi)
}

// Name implements StatefulOp.
func (j *StreamStreamJoin) Name() string { return j.OpName }

// OutputSchema implements StatefulOp.
func (j *StreamStreamJoin) OutputSchema() sql.Schema { return j.Out }

// State layout (DESIGN.md "join state layout"): every buffered row is its own
// entry, so an append writes O(1) bytes and eviction reads only what it drops;
// entries are grouped by (join key, time bucket), so a probe reads only the
// buckets its band overlaps.
//
//	'h' side bucket joinKey                → uvarint lo, hi, live
//	'e' side bucket joinKey idx(8, BE)     → varint ts, matched byte, codec row
//	't' side ts(8, BE) joinKey idx(8, BE)  → empty; rows with ts ≥ 0 only
//	'w'                                    → uvarint watermark of the last eviction, bucket width
//
// side is 'L' or 'R', bucket a uvarint (bucketOf), joinKey the codec-encoded
// equi-key values (rows of both sides with equal keys share a partition), idx
// the header's hi at append.
const tagHeader, tagEntry, tagTime, tagMeta byte = 'h', 'e', 't', 'w'

var (
	joinSides     = [2]byte{'L', 'R'}
	errJoinState  = errors.New("incremental: corrupt join state")
	errJoinLayout = errors.New("incremental: join state written by an older layout (not grouped by time bucket); restart the query from a new checkpoint")
	errJoinBucket = errors.New("incremental: join state is grouped by another bucket width than the join condition's time band gives; restart the query from a new checkpoint")
)

// joinKeyBuf renders state keys into chunks it allocates 64 KiB at a time:
// the store copies every key it keeps, so a key needs no allocation of its own.
type joinKeyBuf []byte

// key renders a header, entry or time-index key; at is the event time of a
// tagTime key and the bucket of the others, idx applies to all but tagHeader.
func (b *joinKeyBuf) key(tag, side byte, at uint64, kb []byte, idx uint64) []byte {
	if cap(*b)-len(*b) < 20+len(kb) {
		*b = make([]byte, 0, max(64<<10, 20+len(kb)))
	}
	k := append(*b, tag, side)
	if tag == tagTime {
		k = binary.BigEndian.AppendUint64(k, at)
	} else {
		k = binary.AppendUvarint(k, at)
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

// decodeJoinMeta reads the 'w' value. The layout before this one wrote the
// floor alone, and its keys carry no bucket.
func decodeJoinMeta(v []byte) (floor, width int64, err error) {
	f, n := binary.Uvarint(v)
	if n <= 0 {
		return 0, 0, errJoinState
	} else if n == len(v) {
		return 0, 0, errJoinLayout
	}
	w, m := binary.Uvarint(v[n:])
	if m <= 0 || n+m != len(v) || f > math.MaxInt64 || w > math.MaxInt64 {
		return 0, 0, errJoinState
	}
	return int64(f), int64(w), nil
}

// joinGroup is one (side, join key, bucket): its header — idx range [lo, hi)
// holding live rows, the rest being holes eviction left — and, when the other
// side's rows probe it this epoch, those of its rows inside [tsLo, tsHi], the
// union of the probing rows' windows, decoded once.
type joinGroup struct {
	bucket        uint64
	lo, hi, live  uint64
	tsLo, tsHi    int64
	rows          []joinEntry
	probed, dirty bool
	next          *joinGroup
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
	kb     []byte        // encoded join key
	groups [2]*joinGroup // per side, the groups the epoch has named: a handful, linked by next
}

// joinGroups allocates an epoch's groups a chunk at a time.
type joinGroups []joinGroup

// of returns side s's group of ks for bucket, new (no header yet) if the
// epoch has not named it before.
func (a *joinGroups) of(ks *joinKeyState, s int, bucket uint64) *joinGroup {
	for g := ks.groups[s]; g != nil; g = g.next {
		if g.bucket == bucket {
			return g
		}
	}
	if len(*a) == cap(*a) {
		*a = make([]joinGroup, 0, 256)
	}
	*a = append(*a, joinGroup{bucket: bucket, tsLo: math.MaxInt64, tsHi: math.MinInt64, next: ks.groups[s]})
	ks.groups[s] = &(*a)[len(*a)-1]
	return ks.groups[s]
}

func (g *joinGroup) encodeHeader() []byte {
	v := binary.AppendUvarint(make([]byte, 0, 12), g.lo)
	return binary.AppendUvarint(binary.AppendUvarint(v, g.hi), g.live)
}

func (g *joinGroup) decodeHeader(v []byte) error {
	for _, f := range []*uint64{&g.lo, &g.hi, &g.live} {
		n, w := binary.Uvarint(v)
		if w <= 0 {
			return errJoinState
		}
		*f, v = n, v[w:]
	}
	if len(v) != 0 || g.live == 0 || g.lo > g.hi || g.live > g.hi-g.lo {
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

// entryTs reads the event time an entry value leads with; rest is the
// matched byte and the row.
func entryTs(v []byte) (ts int64, rest []byte, err error) {
	ts, w := binary.Varint(v)
	if w <= 0 || len(v) == w || v[w] > 1 {
		return 0, nil, errJoinState
	}
	return ts, v[w:], nil
}

func (e *joinEntry) decode(v []byte) error {
	ts, rest, err := entryTs(v)
	if err != nil {
		return err
	}
	d := codec.NewDecoder(rest[1:])
	if e.row, err = d.Row(); err == nil && d.Remaining() {
		err = errJoinState
	}
	e.ts, e.matched = ts, rest[0] == 1
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
// inputs[1] the right side's. State is read in batches up front — the headers
// of the groups the epoch's rows join or probe, then the probed groups' rows —
// so a buffered row is decoded at most once per epoch, not once per arriving
// row, and not at all if no arriving row's window reaches it.
func (j *StreamStreamJoin) Process(ctx *EpochContext, store *state.Store, inputs [][]sql.Row) ([]sql.Row, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("incremental: stream-stream join needs two inputs")
	}
	arity := [2]int{j.LeftArity, j.RightArity}
	eventIdx := [2]int{j.LeftEventIdx, j.RightEventIdx}
	width := j.bucketWidth()
	enc := codec.NewEncoder(64)
	var keyBuf joinKeyBuf
	var groups joinGroups
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
	tsOf := func(s int, sr sql.Row) int64 {
		if ts, ok := sr[len(sr)-arity[s]-1].(int64); ok {
			return ts
		}
		return -1
	}
	for s, rows := range inputs[:2] {
		for _, sr := range rows {
			if len(sr) < 1+arity[s] {
				return nil, fmt.Errorf("incremental: malformed join shuffle row")
			}
			ks := keyOf(s, sr)
			if ks == nil {
				continue
			}
			ts := tsOf(s, sr)
			groups.of(ks, s, bucketOf(width, ts)) // the row's own: its header hands out the idx
			// The row probes the other side's bucket 0 and the time buckets
			// its window overlaps: at most two, the width being the band's.
			lo, hi := j.window(s, ts)
			first, last := timeBuckets(width, lo, hi)
			for b := uint64(0); b <= last; b = max(b+1, first) {
				g := groups.of(ks, 1-s, b)
				g.probed, g.tsLo, g.tsHi = true, min(g.tsLo, lo), max(g.tsHi, hi)
			}
		}
	}

	gets := append(make([][]byte, 0, 1+4*len(keys)), []byte{tagMeta})
	for _, ks := range keys {
		for s := range ks.groups {
			for g := ks.groups[s]; g != nil; g = g.next {
				gets = append(gets, keyBuf.key(tagHeader, joinSides[s], g.bucket, ks.kb, 0))
			}
		}
	}
	hdrs, oks := store.GetBatch(gets)
	floor, stored, err := int64(0), width, error(nil)
	if oks[0] {
		floor, stored, err = decodeJoinMeta(hdrs[0])
	} else if store.NumKeys() > 0 {
		err = errJoinLayout // only this layout's first epoch on a store finds no 'w'
	}
	if err == nil && stored != width {
		err = fmt.Errorf("%w (stored %d µs, derived %d µs)", errJoinBucket, stored, width)
	}
	if err != nil {
		return nil, err
	}
	minTs := [2]int64{math.MaxInt64, math.MaxInt64}
	// buffer writes v as the entry idx of side s's group g and, if it can ever
	// be evicted, its time-index key.
	buffer := func(s int, ks *joinKeyState, g *joinGroup, idx uint64, ts int64, v []byte) {
		store.PutNew(keyBuf.key(tagEntry, joinSides[s], g.bucket, ks.kb, idx), v)
		if ts >= 0 && eventIdx[s] >= 0 {
			store.PutNew(keyBuf.key(tagTime, joinSides[s], uint64(ts), ks.kb, idx), []byte{})
			minTs[s] = min(minTs[s], ts)
		}
	}
	var probes [][]byte
	n := 1
	for _, ks := range keys {
		for s := range ks.groups {
			for g := ks.groups[s]; g != nil; g = g.next {
				if oks[n] {
					if err := g.decodeHeader(hdrs[n]); err != nil {
						return nil, err
					}
				}
				n++
				for idx := g.lo; g.probed && idx < g.hi; idx++ {
					probes = append(probes, keyBuf.key(tagEntry, joinSides[s], g.bucket, ks.kb, idx))
				}
			}
		}
	}
	vals, found := store.GetBatch(probes)
	j.entriesRead.Add(int64(len(probes)))
	n = 0
	for _, ks := range keys {
		for s := range ks.groups {
			for g := ks.groups[s]; g != nil; g = g.next {
				if !g.probed || g.live == 0 {
					continue
				}
				vals, found := vals[n:n+int(g.hi-g.lo)], found[n:n+int(g.hi-g.lo)]
				n += len(vals)
				first, live := g.hi, uint64(0)
				g.rows = make([]joinEntry, 0, g.live)
				for i, v := range vals {
					if !found[i] {
						continue // a hole: evicted before an older idx of this group
					}
					ts, _, err := entryTs(v)
					if err != nil {
						return nil, err
					}
					first, live = min(first, g.lo+uint64(i)), live+1
					if ts < g.tsLo || ts > g.tsHi {
						continue // no arriving row can match it
					}
					e := joinEntry{idx: g.lo + uint64(i)}
					if err := e.decode(v); err != nil {
						return nil, err
					}
					g.rows = append(g.rows, e)
				}
				if live != g.live {
					return nil, errJoinState
				}
				renumber := g.bucket == 0 && g.hi-first > 2*g.live
				if !renumber {
					if first > g.lo {
						g.lo, g.dirty = first, true // leading holes are never read again
					}
					continue
				}
				// Holes behind a row that outlives its successors — only in
				// bucket 0, where rows without an event time stay for good and
				// an unbucketed join keeps everything — outnumber the rows:
				// move the rows to fresh indices, in order, so that a probe
				// never reads more than twice what is live.
				next, decoded := g.hi, g.rows
				for i, v := range vals {
					if !found[i] {
						continue
					}
					idx := g.lo + uint64(i)
					ts, _, _ := entryTs(v) // parsed above
					store.Remove(keyBuf.key(tagEntry, joinSides[s], g.bucket, ks.kb, idx))
					if ts >= 0 && eventIdx[s] >= 0 {
						// Live: it was written with the entry just read.
						store.RemoveLive(keyBuf.key(tagTime, joinSides[s], uint64(ts), ks.kb, idx))
					}
					if len(decoded) > 0 && decoded[0].idx == idx {
						decoded[0].idx, decoded = next, decoded[1:]
					}
					buffer(s, ks, g, next, ts, v)
					next++
				}
				g.lo, g.hi, g.dirty = g.hi, next, true
			}
		}
	}

	// Left rows first (probing committed right state), then right rows
	// (probing left state including this epoch's additions): every
	// cross-epoch pair matches exactly once, in arrival × (bucket, idx) order.
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
			ts := tsOf(s, sr)
			own := groups.of(ks, s, bucketOf(width, ts))
			e := joinEntry{row: row, ts: ts, idx: own.hi}
			copy(pair[s*j.LeftArity:], row)
			lo, hi := j.window(s, ts)
			first, last := timeBuckets(width, lo, hi)
			for bk := uint64(0); bk <= last; bk = max(bk+1, first) {
				other := groups.of(ks, 1-s, bk)
				for k := range other.rows {
					o := &other.rows[k]
					if o.ts < lo || o.ts > hi {
						continue // outside the band: Residual cannot be true
					}
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
			}
			buffer(s, ks, own, e.idx, e.ts, e.encode(enc))
			own.hi, own.live, own.dirty = own.hi+1, own.live+1, true
			if own.probed {
				own.rows = append(own.rows, e) // later rows of the other side see it
			}
		}
	}
	for _, ks := range keys {
		for s := range ks.groups {
			for g := ks.groups[s]; g != nil; g = g.next {
				for k := range g.rows {
					if e := &g.rows[k]; e.dirty {
						store.Put(keyBuf.key(tagEntry, joinSides[s], g.bucket, ks.kb, e.idx), e.encode(enc))
					}
				}
				if g.dirty {
					store.Put(keyBuf.key(tagHeader, joinSides[s], g.bucket, ks.kb, 0), g.encodeHeader())
				}
			}
		}
	}

	for s := 0; s < 2 && ctx.Watermark > 0; s++ {
		if eventIdx[s] < 0 {
			continue
		}
		// 'w' holds the watermark of the last eviction, which stopped short of
		// it by the same lag: the scan resumes there, or at an older row this
		// epoch buffered.
		lag := j.evictLag(s)
		from, to := min(satAdd(floor, -lag), minTs[s]), satAdd(ctx.Watermark, -lag)
		if out, err = j.evict(store, &keyBuf, s, width, from, to, out); err != nil {
			return nil, err
		}
	}
	if !oks[0] || ctx.Watermark > floor {
		meta := binary.AppendUvarint(nil, uint64(max(ctx.Watermark, floor)))
		store.Put(gets[0], binary.AppendUvarint(meta, uint64(width)))
	}
	return out, nil
}

// evict drops side s's rows with from ≤ ts < to by walking that stretch of
// the time index — nothing else is scanned — and, on the preserved side of an
// outer join, emits the unmatched ones null-padded in index order.
func (j *StreamStreamJoin) evict(store *state.Store, keyBuf *joinKeyBuf, s int, width, from, to int64, out []sql.Row) ([]sql.Row, error) {
	if from = max(from, 0); to <= from {
		return out, nil // the index holds event times ≥ 0 only
	}
	side := joinSides[s]
	type victim struct {
		h   *joinGroup
		idx uint64
		tk  []byte
	}
	var victims []victim
	var hdrs []*joinGroup
	var hks, eks [][]byte
	byKey := map[string]*joinGroup{}
	var err error
	store.Range(keyBuf.key(tagTime, side, uint64(from), nil, 0)[:10], keyBuf.key(tagTime, side, uint64(to), nil, 0)[:10], func(tk, _ []byte) bool {
		var ts int64
		var kb []byte
		var idx uint64
		if ts, kb, idx, err = parseJoinTimeKey(tk); err != nil {
			return false
		}
		bucket := bucketOf(width, ts)
		hk := keyBuf.key(tagHeader, side, bucket, kb, 0)
		h := byKey[string(hk)]
		if h == nil {
			h = &joinGroup{}
			byKey[string(hk)], hdrs, hks = h, append(hdrs, h), append(hks, hk)
		}
		victims, eks = append(victims, victim{h, idx, tk}), append(eks, keyBuf.key(tagEntry, side, bucket, kb, idx))
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
		store.RemoveLive(eks[i]) // both were found by the scan, unless
		store.RemoveLive(v.tk)   // this epoch appended them and said so
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
