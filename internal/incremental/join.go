package incremental

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
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
// stream-stream join to involve a watermarked column. Rows reach it as join
// cells (joinCell): bytes from the map task to the store, boxed only for the
// pairs the join emits and the residual condition they are checked against.
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
	// BandExact says the residual is the band and nothing more — every
	// conjunct of it bounds right − left event time — so a pair inside the
	// band whose event times are both known matches without Residual
	// (bandDecides).
	BandExact bool
	Out       sql.Schema

	entriesRead atomic.Int64 // buffered entries fetched by probes, for tests and benchmarks
	headerReads atomic.Int64 // group headers read from the store, likewise
	// scratch recycles Process's tables (joinScratch) across epochs and
	// concurrent state partitions.
	scratch sync.Pool
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
// union of the probing rows' windows.
type joinGroup struct {
	bucket       uint64
	lo, hi, live uint64
	tsLo, tsHi   int64
	rows         []joinEntry
	read         int32 // where its header is in readHeaders' batch, -1 not read
	next         int32 // the key's next group on the same side, -1 ends the list
	// stored: committed state holds its header; probed: the other side's
	// rows reach it this epoch; dirty: its header changed.
	stored, probed, dirty bool
}

// joinEntry is one buffered row an arriving row may reach: its entry value,
// and its row, decoded the first time a pair inside the band needs it.
// matched is kept only where it is read: on the preserved side of an outer
// join.
type joinEntry struct {
	val     []byte
	row     sql.Row
	ts      int64
	idx     uint64
	matched bool
}

func (g *joinGroup) appendHeader(dst []byte) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(dst, g.lo), g.hi), g.live)
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

// preserves reports whether side s's unmatched rows are emitted null-padded.
func (j *StreamStreamJoin) preserves(s int) bool {
	return s == 0 && j.Type == logical.LeftOuterJoin || s == 1 && j.Type == logical.RightOuterJoin
}

func (j *StreamStreamJoin) padded(s int, row sql.Row) sql.Row {
	out := make(sql.Row, j.LeftArity+j.RightArity)
	copy(out[s*j.LeftArity:], row)
	return out
}

// joinScratch is one Process call's tables, recycled through the operator's
// pool: the epoch's cells by side and the join key of each; the join keys in
// first-seen order, reached through an open-addressed table over their
// hashes; their groups and the buffered entries read for them; the read
// vector; and eviction's victims.
type joinScratch struct {
	cells   [2][]*joinCell
	keyOf   [2][]int32
	keys    []joinKeyState
	slots   []int32 // power-of-two buckets: key index + 1, 0 = empty
	groups  []joinGroup
	entries []joinEntry
	reads   [][]byte
	victims []joinVictim
}

type joinKeyState struct {
	hash   uint64 // codec.HashBytes(kb)
	kb     []byte
	groups [2]int32 // per side, the first of the groups the epoch has named, -1 none
	next   int32    // the next key in the same bucket of slots, -1 ends the chain
}

type joinVictim struct {
	g      int32 // its group
	idx    uint64
	tk, ek []byte // its time-index and entry keys
}

func (sc *joinScratch) reset() {
	for s := range sc.cells {
		clear(sc.cells[s])
		sc.cells[s], sc.keyOf[s] = sc.cells[s][:0], sc.keyOf[s][:0]
	}
	clear(sc.slots) // and release the epoch's slabs to the collector:
	clear(sc.keys)
	clear(sc.groups)
	clear(sc.entries)
	clear(sc.reads)
	clear(sc.victims)
	sc.keys, sc.groups, sc.entries, sc.victims = sc.keys[:0], sc.groups[:0], sc.entries[:0], sc.victims[:0]
}

// key returns the index of join key kb, hashed h, adding it on first sight.
func (sc *joinScratch) key(h uint64, kb []byte) int32 {
	b := h & uint64(len(sc.slots)-1)
	for ki := sc.slots[b] - 1; ki >= 0; ki = sc.keys[ki].next {
		if k := &sc.keys[ki]; k.hash == h && bytes.Equal(k.kb, kb) {
			return ki
		}
	}
	if 2*len(sc.keys) >= len(sc.slots) {
		sc.slots = make([]int32, 2*len(sc.slots))
		for ki := range sc.keys {
			k := &sc.keys[ki]
			at := k.hash & uint64(len(sc.slots)-1)
			k.next, sc.slots[at] = sc.slots[at]-1, int32(ki)+1
		}
		b = h & uint64(len(sc.slots)-1)
	}
	sc.keys = append(sc.keys, joinKeyState{hash: h, kb: kb, groups: [2]int32{-1, -1}, next: sc.slots[b] - 1})
	sc.slots[b] = int32(len(sc.keys))
	return int32(len(sc.keys) - 1)
}

// group returns the index of side s's group of key ki for bucket, a fresh
// one (no header yet) the first time the epoch names it.
func (sc *joinScratch) group(ki int32, s int, bucket uint64) int32 {
	k := &sc.keys[ki]
	for gi := k.groups[s]; gi >= 0; gi = sc.groups[gi].next {
		if sc.groups[gi].bucket == bucket {
			return gi
		}
	}
	sc.groups = append(sc.groups, joinGroup{bucket: bucket, tsLo: math.MaxInt64, tsHi: math.MinInt64, next: k.groups[s]})
	k.groups[s] = int32(len(sc.groups) - 1)
	return k.groups[s]
}

// each calls fn for every group the epoch has named from the from'th on, key
// by key in first-seen order, left side first; it stops at fn's first error.
// fn must not name a fresh group.
func (sc *joinScratch) each(from int32, fn func(k *joinKeyState, s int, g *joinGroup) error) error {
	for ki := range sc.keys {
		k := &sc.keys[ki]
		for s, gi := range k.groups {
			for ; gi >= 0; gi = sc.groups[gi].next {
				if gi < from {
					continue
				}
				if err := fn(k, s, &sc.groups[gi]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// readHeaders reads, in one batch, the header of every group from the
// from'th on that committed state may hold: all of them but bucket 0 of a
// side that holds none (stored0).
func (j *StreamStreamJoin) readHeaders(store *state.Store, sc *joinScratch, keyBuf *joinKeyBuf, from int32, stored0 [2]bool) error {
	sc.reads = sc.reads[:0]
	sc.each(from, func(k *joinKeyState, s int, g *joinGroup) error {
		if g.read = -1; g.bucket > 0 || stored0[s] {
			g.read = int32(len(sc.reads))
			sc.reads = append(sc.reads, keyBuf.key(tagHeader, joinSides[s], g.bucket, k.kb, 0))
		}
		return nil
	})
	vals, oks := store.GetBatch(sc.reads)
	j.headerReads.Add(int64(len(sc.reads)))
	return sc.each(from, func(_ *joinKeyState, _ int, g *joinGroup) error {
		if g.stored = g.read >= 0 && oks[g.read]; g.stored {
			return g.decodeHeader(vals[g.read])
		}
		return nil
	})
}

// holdsBucketZero reports whether side s has a bucket-0 group in store: one
// Range over the side's bucket-0 header keys, 'h' s 0x00, that stops at the
// first.
func holdsBucketZero(store *state.Store, s int) (found bool) {
	store.Range([]byte{tagHeader, joinSides[s], 0}, []byte{tagHeader, joinSides[s], 1}, func(_, _ []byte) bool {
		found = true
		return false
	})
	return found
}

// Process implements StatefulOp. inputs[0] is the left side's shuffle rows,
// inputs[1] the right side's, each a join cell. State is read in batches up
// front — the headers of the groups the epoch's rows join or probe, then the
// probed groups' entries — so a buffered row is read at most once per epoch,
// not once per arriving row, and decoded only when a pair inside the band
// needs it. A row is stored as it arrived.
func (j *StreamStreamJoin) Process(ctx *EpochContext, store *state.Store, inputs [][]sql.Row) ([]sql.Row, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("incremental: stream-stream join needs two inputs")
	}
	sc, _ := j.scratch.Get().(*joinScratch)
	if sc == nil {
		sc = &joinScratch{slots: make([]int32, 1024)}
	}
	out, err := j.process(ctx, store, inputs, sc)
	sc.reset()
	j.scratch.Put(sc)
	return out, err
}

func (j *StreamStreamJoin) process(ctx *EpochContext, store *state.Store, inputs [][]sql.Row, sc *joinScratch) ([]sql.Row, error) {
	eventIdx := [2]int{j.LeftEventIdx, j.RightEventIdx}
	width := j.bucketWidth()
	var keyBuf joinKeyBuf
	// Which sides may hold a bucket-0 group: in committed state (stored0;
	// everything is bucket 0 when nothing is bucketed) or among this epoch's
	// rows (zero). Of a side that holds none there is no bucket-0 header to
	// read and no bucket 0 to probe.
	stored0 := [2]bool{width == 0, width == 0}
	zero := stored0
	for s, rows := range inputs[:2] {
		for _, r := range rows {
			c, ok := joinCellOf(r)
			if !ok {
				return nil, fmt.Errorf("incremental: malformed join shuffle row")
			}
			sc.cells[s] = append(sc.cells[s], c)
			zero[s] = zero[s] || !c.null && c.ts < 0
		}
		if width > 0 && holdsBucketZero(store, s) {
			stored0[s], zero[s] = true, true
		}
	}
	for s, cells := range sc.cells {
		for _, c := range cells {
			ki := int32(-1)
			if !c.null { // a NULL key never matches, and buffering it would leak state
				ki = sc.key(c.hash, c.key)
				sc.group(ki, s, bucketOf(width, c.ts)) // the row's own: its header hands out the idx
				lo, hi := j.window(s, c.ts)
				from, first, last := reach(width, lo, hi, zero[1-s])
				for b := from; b <= last; b = max(b+1, first) {
					g := &sc.groups[sc.group(ki, 1-s, b)]
					g.probed, g.tsLo, g.tsHi = true, min(g.tsLo, lo), max(g.tsHi, hi)
				}
			}
			sc.keyOf[s] = append(sc.keyOf[s], ki)
		}
	}

	meta, metaOK := store.Get([]byte{tagMeta})
	floor, stored, err := int64(0), width, error(nil)
	if metaOK {
		floor, stored, err = decodeJoinMeta(meta)
	} else if store.NumKeys() > 0 {
		err = errJoinLayout // only this layout's first epoch on a store finds no 'w'
	}
	if err == nil && stored != width {
		err = fmt.Errorf("%w (stored %d µs, derived %d µs)", errJoinBucket, stored, width)
	}
	if err == nil {
		err = j.readHeaders(store, sc, &keyBuf, 0, stored0)
	}
	if err != nil {
		return nil, err
	}
	minTs := [2]int64{math.MaxInt64, math.MaxInt64}
	// buffer stages v as the entry idx of side s's group and, if it can ever
	// be evicted, its time-index key.
	buffer := func(s int, kb []byte, bucket, idx uint64, ts int64, v []byte) {
		store.PutNew(keyBuf.key(tagEntry, joinSides[s], bucket, kb, idx), v)
		if ts >= 0 && eventIdx[s] >= 0 {
			store.PutNew(keyBuf.key(tagTime, joinSides[s], uint64(ts), kb, idx), []byte{})
			minTs[s] = min(minTs[s], ts)
		}
	}
	sc.reads = sc.reads[:0]
	sc.each(0, func(k *joinKeyState, s int, g *joinGroup) error {
		for idx := g.lo; g.probed && idx < g.hi; idx++ {
			sc.reads = append(sc.reads, keyBuf.key(tagEntry, joinSides[s], g.bucket, k.kb, idx))
		}
		return nil
	})
	vals, found := store.GetBatch(sc.reads)
	j.entriesRead.Add(int64(len(sc.reads)))
	n := 0
	err = sc.each(0, func(k *joinKeyState, s int, g *joinGroup) error {
		if !g.probed || g.live == 0 {
			return nil
		}
		vals, found := vals[n:n+int(g.hi-g.lo)], found[n:n+int(g.hi-g.lo)]
		n += len(vals)
		first, live, start := g.hi, uint64(0), len(sc.entries)
		for i, v := range vals {
			if !found[i] {
				continue // a hole: evicted before an older idx of this group
			}
			ts, rest, err := entryTs(v)
			if err != nil {
				return err
			}
			first, live = min(first, g.lo+uint64(i)), live+1
			if ts >= g.tsLo && ts <= g.tsHi { // else no arriving row can match it
				sc.entries = append(sc.entries, joinEntry{val: v, ts: ts, idx: g.lo + uint64(i), matched: rest[0] == 1})
			}
		}
		g.rows = sc.entries[start:len(sc.entries):len(sc.entries)]
		if live != g.live {
			return errJoinState
		}
		if g.bucket != 0 || g.hi-first <= 2*g.live {
			if first > g.lo {
				g.lo, g.dirty = first, true // leading holes are never read again
			}
			return nil
		}
		// Holes behind a row that outlives its successors — only in bucket
		// 0, where rows without an event time stay for good and an
		// unbucketed join keeps everything — outnumber the rows: move the
		// rows to fresh indices, in order, so that a probe never reads more
		// than twice what is live.
		next, kept := g.hi, g.rows
		for i, v := range vals {
			if !found[i] {
				continue
			}
			idx := g.lo + uint64(i)
			ts, _, _ := entryTs(v) // parsed above
			store.RemoveLive(keyBuf.key(tagEntry, joinSides[s], g.bucket, k.kb, idx))
			if ts >= 0 && eventIdx[s] >= 0 {
				store.RemoveLive(keyBuf.key(tagTime, joinSides[s], uint64(ts), k.kb, idx))
			}
			if len(kept) > 0 && kept[0].idx == idx {
				kept[0].idx, kept = next, kept[1:]
			}
			buffer(s, k.kb, g.bucket, next, ts, v)
			next++
		}
		g.lo, g.hi, g.dirty = g.hi, next, true
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Left rows first (probing committed right state), then right rows
	// (probing left state including this epoch's additions): every
	// cross-epoch pair matches exactly once, in arrival × (bucket, idx) order.
	var out []sql.Row
	pair := make(sql.Row, j.LeftArity+j.RightArity)
	arena := physical.NewRowArena(len(pair)) // emitted rows: one allocation per 4096
	arity := [2]int{j.LeftArity, j.RightArity}
	decoded := [2]*physical.RowArena{physical.NewRowArena(arity[0]), physical.NewRowArena(arity[1])} // and the rows boxed for them
	for s, cells := range sc.cells {
		for i, c := range cells {
			var row sql.Row // c's, boxed when a pair first needs it
			ki := sc.keyOf[s][i]
			if ki < 0 {
				if j.preserves(s) {
					if row, err = entryRow(c.entry, nil, 0); err != nil {
						return nil, err
					}
					out = append(out, j.padded(s, row))
				}
				continue
			}
			e := joinEntry{val: c.entry, ts: c.ts}
			lo, hi := j.window(s, c.ts)
			from, first, last := reach(width, lo, hi, zero[1-s])
			for b := from; b <= last; b = max(b+1, first) {
				other := &sc.groups[sc.group(ki, 1-s, b)]
				for k := range other.rows {
					o := &other.rows[k]
					if o.ts < lo || o.ts > hi {
						continue // outside the band: Residual cannot be true
					}
					if row == nil {
						if row, err = entryRow(c.entry, decoded[s], arity[s]); err != nil {
							return nil, err
						}
						copy(pair[s*j.LeftArity:], row)
					}
					if o.row == nil {
						if o.row, err = entryRow(o.val, decoded[1-s], arity[1-s]); err != nil {
							return nil, err
						}
					}
					copy(pair[(1-s)*j.LeftArity:], o.row)
					if j.Residual != nil && !j.bandDecides(c.ts, o.ts) {
						if ok, _ := j.Residual(pair).(bool); !ok {
							continue
						}
					}
					emitted := arena.Next()
					copy(emitted, pair)
					out = append(out, emitted)
					e.matched = j.preserves(s)
					if j.preserves(1-s) && !o.matched {
						o.matched, o.val = true, withMatched(o.val)
						store.PutLive(keyBuf.key(tagEntry, joinSides[1-s], other.bucket, sc.keys[ki].kb, o.idx), o.val)
					}
				}
			}
			if e.matched {
				e.val = withMatched(e.val)
			}
			own := &sc.groups[sc.group(ki, s, bucketOf(width, c.ts))]
			e.idx, e.row = own.hi, row
			buffer(s, sc.keys[ki].kb, own.bucket, e.idx, e.ts, e.val)
			own.hi, own.live, own.dirty = own.hi+1, own.live+1, true
			if own.probed {
				own.rows = append(own.rows, e) // later rows of the other side see it
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
		if out, err = j.evict(store, sc, &keyBuf, s, width, from, to, out); err != nil {
			return nil, err
		}
	}
	// The headers that changed, their values cut from one slab: PutLive over
	// a header committed state holds, PutNew otherwise; a group eviction
	// emptied goes.
	size := 0
	sc.each(0, func(_ *joinKeyState, _ int, g *joinGroup) error {
		if g.dirty && g.live > 0 {
			var b [3 * binary.MaxVarintLen64]byte
			size += len(g.appendHeader(b[:0]))
		}
		return nil
	})
	slab := make([]byte, 0, size)
	sc.each(0, func(k *joinKeyState, s int, g *joinGroup) error {
		if !g.dirty {
			return nil
		}
		hk := keyBuf.key(tagHeader, joinSides[s], g.bucket, k.kb, 0)
		switch at := len(slab); {
		case g.live == 0 && g.stored:
			store.RemoveLive(hk)
		case g.live == 0:
			store.Remove(hk) // buffered and evicted this epoch
		case g.stored:
			slab = g.appendHeader(slab)
			store.PutLive(hk, slab[at:len(slab):len(slab)])
		default:
			slab = g.appendHeader(slab)
			store.PutNew(hk, slab[at:len(slab):len(slab)])
		}
		return nil
	})
	if !metaOK || ctx.Watermark > floor {
		meta := binary.AppendUvarint(nil, uint64(max(ctx.Watermark, floor)))
		if meta = binary.AppendUvarint(meta, uint64(width)); metaOK {
			store.PutLive([]byte{tagMeta}, meta)
		} else {
			store.PutNew([]byte{tagMeta}, meta)
		}
	}
	return out, nil
}

// evict drops side s's rows with from ≤ ts < to by walking that stretch of
// the time index — nothing else is scanned — and, on the preserved side of an
// outer join, emits the unmatched ones null-padded in index order. The
// groups it empties or shrinks are the epoch's; those the epoch has not met
// yet have their headers read in one batch.
func (j *StreamStreamJoin) evict(store *state.Store, sc *joinScratch, keyBuf *joinKeyBuf, s int, width, from, to int64, out []sql.Row) ([]sql.Row, error) {
	if from = max(from, 0); to <= from {
		return out, nil // the index holds event times ≥ 0 only
	}
	side, met := joinSides[s], int32(len(sc.groups))
	sc.victims = sc.victims[:0]
	var err error
	store.Range(keyBuf.key(tagTime, side, uint64(from), nil, 0)[:10], keyBuf.key(tagTime, side, uint64(to), nil, 0)[:10], func(tk, _ []byte) bool {
		var ts int64
		var kb []byte
		var idx uint64
		if ts, kb, idx, err = parseJoinTimeKey(tk); err != nil {
			return false
		}
		bucket := bucketOf(width, ts)
		g := sc.group(sc.key(codec.HashBytes(kb), kb), s, bucket)
		sc.victims = append(sc.victims, joinVictim{g, idx, tk, keyBuf.key(tagEntry, side, bucket, kb, idx)})
		return true
	})
	if err != nil {
		return nil, err
	}
	if err = j.readHeaders(store, sc, keyBuf, met, [2]bool{true, true}); err != nil {
		return nil, err
	}
	var vals [][]byte
	if j.preserves(s) {
		sc.reads = sc.reads[:0]
		for _, v := range sc.victims {
			sc.reads = append(sc.reads, v.ek)
		}
		vals, _ = store.GetBatch(sc.reads)
	}
	for i, v := range sc.victims {
		if j.preserves(s) {
			_, rest, err := entryTs(vals[i])
			if err != nil {
				return nil, err // including an index entry whose row is gone
			}
			if rest[0] == 0 {
				row, err := entryRow(vals[i], nil, 0)
				if err != nil {
					return nil, err
				}
				out = append(out, j.padded(s, row))
			}
		}
		g := &sc.groups[v.g]
		if g.live == 0 {
			return nil, errJoinState // including an index entry whose header is gone
		}
		g.live, g.dirty = g.live-1, true
		if v.idx == g.lo {
			g.lo++ // in-order eviction leaves no hole behind
		}
		store.RemoveLive(v.ek) // both were found by the scan, unless
		store.RemoveLive(v.tk) // this epoch appended them and said so
	}
	return out, nil
}
