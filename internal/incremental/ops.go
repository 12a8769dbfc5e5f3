package incremental

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
	"structream/internal/state"
)

// StatefulAggregate is the streaming aggregation operator (§5.2: "an
// aggregation in the user query might be mapped to a StatefulAggregate
// operator that tracks open groups inside the state store"). Map tasks
// partially aggregate and ship serialized buffers; this reduce-side
// operator merges them into long-lived per-key buffers and emits according
// to the output mode:
//
//   - Complete: every group, every epoch.
//   - Update:   only groups whose buffers changed this epoch.
//   - Append:   only groups finalized by the watermark, exactly once, after
//     which their state is dropped.
//
// With a watermark, expired groups are evicted in every mode — this is how
// "the system forgets state for old windows after a timeout" (§4.1).
type StatefulAggregate struct {
	// OpName is the state-store operator id.
	OpName string
	// NumKeys is the grouping-key arity; shuffle rows are
	// [keys..., buf1, buf2, ...].
	NumKeys int
	// Aggs are the bound aggregates (buffer factories).
	Aggs []sql.BoundAgg
	// EventKeyIdx is the key column carrying event time (a window or
	// watermarked timestamp); -1 when the aggregation has no event-time
	// key.
	EventKeyIdx int
	// Out is the operator's output schema: keys then aggregate results.
	Out sql.Schema

	// mergePool recycles the batched merge's scratch (group slab, bucket
	// table, buffer sets) across epochs and concurrent state partitions.
	mergePool sync.Pool
}

// Name implements StatefulOp.
func (a *StatefulAggregate) Name() string { return a.OpName }

// OutputSchema implements StatefulOp.
func (a *StatefulAggregate) OutputSchema() sql.Schema { return a.Out }

// aggKernel is a bound aggregate's bulk-update capability, probed once at
// construction so the per-batch aggregate pass dispatches on a byte
// instead of a type assertion per call.
type aggKernel uint8

const (
	kernelBoxed    aggKernel = iota // no bulk kernel: per-lane boxed Update
	kernelCount                     // BulkCounter
	kernelIntSum                    // BulkInt64Summer
	kernelFloatSum                  // BulkFloat64Summer
)

func kernelFor(a sql.BoundAgg) aggKernel {
	switch a.NewBuffer().(type) {
	case sql.BulkCounter:
		return kernelCount
	case sql.BulkInt64Summer:
		return kernelIntSum
	case sql.BulkFloat64Summer:
		return kernelFloatSum
	}
	return kernelBoxed
}

// partialAgg is a small map-side hash aggregator that renders its groups
// as shuffle rows. The compiler installs it as the blocking terminal stage
// of each map pipeline. Groups live in one contiguous slab in first-seen
// (= emission) order, reached through an open-addressed bucket table that
// chains colliding groups by slab index; each group caches its full hash
// and its encoded key bytes (sliced out of a shared arena), so hash hits
// compare raw bytes and never re-render (or re-box) the key, and shuffle
// routing can hash the cached bytes directly. The slab, table, arena, and
// aggregate-pass scratch all survive reset(), so a pooled instance
// processes an epoch's batch with near-zero per-group bookkeeping
// allocations.
type partialAgg struct {
	keyEvals []func(sql.Row) sql.Value
	aggs     []sql.BoundAgg
	kernels  []aggKernel
	groups   []partialGroup // the slab; index is the group id
	slots    []int32        // power-of-2 buckets: chain-head index + 1, 0 = empty
	arena    []byte         // backing storage for group keyBytes
	bufArena []sql.AggBuffer
	scratch  []sql.Value
	enc      *codec.Encoder
	// aggregate-pass scratch, reused across batches
	laneIdx   []int32
	laneGroup []int32
	counts    []int64
	isums     []int64
	fsums     []float64
}

type partialGroup struct {
	key      []sql.Value
	keyBytes []byte // cached codec encoding of key; backs hit-path compares
	bufs     []sql.AggBuffer
	h        uint64 // full key hash; resolves bucket collisions and rebuilds
	next     int32  // next group in this bucket's chain, -1 ends the chain
}

func newPartialAgg(keyEvals []func(sql.Row) sql.Value, aggs []sql.BoundAgg) *partialAgg {
	kernels := make([]aggKernel, len(aggs))
	for i, a := range aggs {
		kernels[i] = kernelFor(a)
	}
	return &partialAgg{
		keyEvals: keyEvals,
		aggs:     aggs,
		kernels:  kernels,
		slots:    make([]int32, 1024),
		scratch:  make([]sql.Value, len(keyEvals)),
		enc:      codec.NewEncoder(64),
	}
}

// reset clears the groups while keeping every allocation (slab, bucket
// table, arenas, scratch slabs) for reuse. Callers must not retain
// references into the previous generation's keyBytes or buffers.
func (p *partialAgg) reset() {
	p.groups = p.groups[:0]
	clear(p.slots)
	p.arena = p.arena[:0]
	p.bufArena = p.bufArena[:0]
}

// grow doubles the bucket table and rebuilds the chains from each group's
// cached hash. Chain order within a bucket changes, but group ids — and
// therefore emission order — do not.
func (p *partialAgg) grow() {
	p.slots = make([]int32, 2*len(p.slots))
	mask := uint64(len(p.slots) - 1)
	for gi := range p.groups {
		g := &p.groups[gi]
		b := g.h & mask
		g.next = p.slots[b] - 1
		p.slots[b] = int32(gi) + 1
	}
}

// update is the map-side per-record hot path: the key is encoded into a
// reused buffer, hashed, and chained-probed against cached key bytes; only
// first-seen groups materialize (box and copy) their key.
func (p *partialAgg) update(r sql.Row) {
	for i, e := range p.keyEvals {
		p.scratch[i] = e(r)
	}
	p.enc.Reset()
	for _, v := range p.scratch {
		p.enc.PutValue(v)
	}
	kb := p.enc.Bytes()
	gi := p.lookupHashed(codec.HashBytes(kb), kb)
	g := &p.groups[gi]
	if g.key == nil && len(p.scratch) > 0 {
		g.key = append([]sql.Value(nil), p.scratch...)
	}
	for i, a := range p.aggs {
		if a.Input == nil {
			g.bufs[i].Update(nil)
			continue
		}
		if v := a.Input(r); v != nil {
			g.bufs[i].Update(v)
		}
	}
}

// lookupHashed resolves the group for an encoded key, probing the bucket's
// chain with a hash compare then a raw byte compare against each group's
// cached keyBytes. The codec encoding is injective, so equal bytes ⇔ equal
// keys. On a miss the key bytes are copied into the arena (kb usually
// aliases a reused encoder buffer) and the new group is prepended to its
// bucket's chain with a nil boxed key — the caller fills key in when it
// sees one (a lazily-boxed closure here would allocate per probe).
func (p *partialAgg) lookupHashed(h uint64, kb []byte) int32 {
	b := h & uint64(len(p.slots)-1)
	for gi := p.slots[b] - 1; gi >= 0; gi = p.groups[gi].next {
		g := &p.groups[gi]
		if g.h == h && bytes.Equal(g.keyBytes, kb) {
			return gi
		}
	}
	if 2*len(p.groups) >= len(p.slots) {
		p.grow()
		b = h & uint64(len(p.slots)-1)
	}
	an := len(p.arena)
	p.arena = append(p.arena, kb...)
	bn := len(p.bufArena)
	for _, a := range p.aggs {
		p.bufArena = append(p.bufArena, a.NewBuffer())
	}
	gi := int32(len(p.groups))
	p.groups = append(p.groups, partialGroup{
		keyBytes: p.arena[an:len(p.arena):len(p.arena)],
		bufs:     p.bufArena[bn:len(p.bufArena):len(p.bufArena)],
		h:        h,
		next:     p.slots[b] - 1,
	})
	p.slots[b] = gi + 1
	return gi
}

// updateBatch folds the live rows of a column batch into the hash table
// without boxing: a grouping pass hashes/encodes keys straight from the key
// vectors and records each lane's group index, then per-aggregate kernels
// fold whole lane runs into each group — counts and sums accumulate in
// typed slabs and land in the buffer via one bulk call per group. Lanes
// whose aggregate lacks a bulk kernel fall back to boxed per-lane Update,
// skipping NULL lanes exactly like update's nil check.
//
// Bulk float sums are bit-identical to per-row Update only when the
// buffers start fresh, so updateBatch must be the first and only feeder of
// this instance — the engine creates one partialAgg per batch.
func (p *partialAgg) updateBatch(b *vec.Batch, plan *VecAggPlan) {
	keys := make([]*vec.Vector, len(plan.KeyProgs))
	for i, prog := range plan.KeyProgs {
		keys[i] = prog.Run(b)
	}
	ins := make([]*vec.Vector, len(plan.InputProgs))
	for i, prog := range plan.InputProgs {
		if prog != nil {
			ins[i] = prog.Run(b)
		}
	}

	// Grouping pass: one hash+encode per live lane, no boxing on hits.
	lanes := b.Sel
	if lanes == nil {
		if cap(p.laneIdx) < b.Len {
			p.laneIdx = make([]int32, b.Len)
		}
		lanes = p.laneIdx[:b.Len]
		for i := range lanes {
			lanes[i] = int32(i)
		}
	}
	if cap(p.laneGroup) < len(lanes) {
		p.laneGroup = make([]int32, len(lanes))
	}
	laneGroup := p.laneGroup[:len(lanes)]
	for j, lane := range lanes {
		i := int(lane)
		h := codec.HashVec(p.enc, keys, i) // leaves encoded key in p.enc
		gi := p.lookupHashed(h, p.enc.Bytes())
		if g := &p.groups[gi]; g.key == nil && len(keys) > 0 {
			key := make([]sql.Value, len(keys))
			for c, kv := range keys {
				key[c] = kv.Get(i)
			}
			g.key = key
		}
		laneGroup[j] = gi
	}

	// Aggregate pass: per-group slab accumulation in lane order, one bulk
	// buffer call per touched group.
	nGroups := len(p.groups)
	if cap(p.counts) < nGroups {
		p.counts = make([]int64, nGroups)
	}
	counts := p.counts[:nGroups]
	for k := range p.aggs {
		in := ins[k]
		kern := p.kernels[k]
		if in == nil {
			// count(*): every live lane is accepted.
			if kern == kernelCount {
				for i := range counts {
					counts[i] = 0
				}
				for _, gi := range laneGroup {
					counts[gi]++
				}
				for gi, c := range counts {
					if c > 0 {
						p.groups[gi].bufs[k].(sql.BulkCounter).AddCount(c)
					}
				}
				continue
			}
			for _, gi := range laneGroup {
				p.groups[gi].bufs[k].Update(nil)
			}
			continue
		}
		switch kern {
		case kernelCount:
			// count(x): count non-NULL lanes, any vector kind.
			for i := range counts {
				counts[i] = 0
			}
			for j, lane := range lanes {
				if !in.IsNull(int(lane)) {
					counts[laneGroup[j]]++
				}
			}
			for gi, c := range counts {
				if c > 0 {
					p.groups[gi].bufs[k].(sql.BulkCounter).AddCount(c)
				}
			}
		case kernelIntSum:
			if in.Kind != vec.KindInt64 {
				p.updateLanesBoxed(k, in, lanes, laneGroup)
				continue
			}
			if cap(p.isums) < nGroups {
				p.isums = make([]int64, nGroups)
			}
			sums := p.isums[:nGroups]
			for i := range counts {
				counts[i] = 0
				sums[i] = 0
			}
			for j, lane := range lanes {
				i := int(lane)
				if !in.IsNull(i) {
					gi := laneGroup[j]
					sums[gi] += in.Int64s[i]
					counts[gi]++
				}
			}
			for gi, c := range counts {
				if c > 0 {
					p.groups[gi].bufs[k].(sql.BulkInt64Summer).AddInt64Sum(sums[gi], c)
				}
			}
		case kernelFloatSum:
			if in.Kind != vec.KindInt64 && in.Kind != vec.KindFloat64 {
				p.updateLanesBoxed(k, in, lanes, laneGroup)
				continue
			}
			if cap(p.fsums) < nGroups {
				p.fsums = make([]float64, nGroups)
			}
			sums := p.fsums[:nGroups]
			for i := range counts {
				counts[i] = 0
				sums[i] = 0
			}
			if in.Kind == vec.KindFloat64 {
				for j, lane := range lanes {
					i := int(lane)
					if !in.IsNull(i) {
						gi := laneGroup[j]
						sums[gi] += in.Float64s[i]
						counts[gi]++
					}
				}
			} else {
				// Widening matches sql.AsFloat64's int64 coercion.
				for j, lane := range lanes {
					i := int(lane)
					if !in.IsNull(i) {
						gi := laneGroup[j]
						sums[gi] += float64(in.Int64s[i])
						counts[gi]++
					}
				}
			}
			for gi, c := range counts {
				if c > 0 {
					p.groups[gi].bufs[k].(sql.BulkFloat64Summer).AddFloat64Sum(sums[gi], c)
				}
			}
		default:
			p.updateLanesBoxed(k, in, lanes, laneGroup)
		}
	}
}

// updateLanesBoxed is updateBatch's fallback for aggregates without a bulk
// kernel (min/max, first/last, distinct, HLL, moments): box each accepted
// lane and Update, exactly like the row path.
func (p *partialAgg) updateLanesBoxed(k int, in *vec.Vector, lanes []int32, laneGroup []int32) {
	for j, lane := range lanes {
		i := int(lane)
		if !in.IsNull(i) {
			p.groups[laneGroup[j]].bufs[k].Update(in.Get(i))
		}
	}
}

func (p *partialAgg) renderRow(g *partialGroup) sql.Row {
	row := make(sql.Row, 0, len(g.key)+len(g.bufs))
	row = append(row, g.key...)
	for _, b := range g.bufs {
		row = append(row, codec.EncodeValues(b.Serialize()))
	}
	return row
}

func (p *partialAgg) shuffleRows() []sql.Row {
	out := make([]sql.Row, 0, len(p.groups))
	for gi := range p.groups {
		out = append(out, p.renderRow(&p.groups[gi]))
	}
	return out
}

// scatter renders the groups straight into shuffle partitions, routing by
// the cached key bytes. codec.HashBytes(keyBytes) == codec.HashKey(key),
// so the buckets match what per-row KeyEvals + HashKey routing produces.
func (p *partialAgg) scatter(nPart int) [][]sql.Row {
	buckets := make([][]sql.Row, nPart)
	for gi := range p.groups {
		g := &p.groups[gi]
		part := int(codec.HashBytes(g.keyBytes) % uint64(nPart))
		buckets[part] = append(buckets[part], p.renderRow(g))
	}
	return buckets
}

// encodeAggState packs all aggregate buffers into one state-store value.
func encodeAggState(bufs []sql.AggBuffer) []byte {
	return appendAggState(nil, codec.NewEncoder(16), bufs)
}

// appendAggState is encodeAggState appending to dst, with enc as scratch for
// one buffer's values at a time — the batched merge passes its mergeState's
// own, so the only allocation per group is the value the store retains.
func appendAggState(dst []byte, enc *codec.Encoder, bufs []sql.AggBuffer) []byte {
	for _, b := range bufs {
		enc.Reset()
		for _, v := range b.Serialize() {
			enc.PutValue(v)
		}
		dst = binary.AppendUvarint(dst, uint64(len(enc.Bytes())))
		dst = append(dst, enc.Bytes()...)
	}
	return dst
}

func (a *StatefulAggregate) decodeAggState(data []byte) ([]sql.AggBuffer, error) {
	bufs := make([]sql.AggBuffer, len(a.Aggs))
	for i, agg := range a.Aggs {
		bufs[i] = agg.NewBuffer()
	}
	if err := a.decodeAggStateInto(data, bufs, new([]sql.Value)); err != nil {
		return nil, err
	}
	return bufs, nil
}

// decodeAggStateInto overwrites bufs with a stored state value. Like
// decodeShuffleInto, Deserialize fully replaces buffer state, so callers
// may reuse one buffer set across groups — and, since no Deserialize keeps
// the slice it is handed, one decoded-values slice (vals) across calls.
func (a *StatefulAggregate) decodeAggStateInto(data []byte, bufs []sql.AggBuffer, vals *[]sql.Value) error {
	pos := 0
	for i := range a.Aggs {
		n, w := binary.Uvarint(data[pos:])
		if w <= 0 || pos+w+int(n) > len(data) {
			return fmt.Errorf("incremental: corrupt aggregate state for %s", a.OpName)
		}
		pos += w
		var err error
		if *vals, err = codec.AppendValues((*vals)[:0], data[pos:pos+int(n)]); err != nil {
			return fmt.Errorf("incremental: %v", err)
		}
		pos += int(n)
		if err := bufs[i].Deserialize(*vals); err != nil {
			return err
		}
	}
	return nil
}

// decodeShuffleBufs decodes the serialized partial buffers carried by one
// shuffle row into fresh buffers.
func (a *StatefulAggregate) decodeShuffleBufs(r sql.Row) ([]sql.AggBuffer, error) {
	incoming := make([]sql.AggBuffer, len(a.Aggs))
	for i, agg := range a.Aggs {
		incoming[i] = agg.NewBuffer()
	}
	if err := a.decodeShuffleInto(r, incoming, new([]sql.Value)); err != nil {
		return nil, err
	}
	return incoming, nil
}

// decodeShuffleInto overwrites bufs with the partials carried by one
// shuffle row. Every Deserialize fully replaces buffer state and no Merge
// retains references into its argument, so callers may reuse one buffer
// set across rows — the merge loop leans on this to avoid allocating a
// buffer per incoming row.
func (a *StatefulAggregate) decodeShuffleInto(r sql.Row, bufs []sql.AggBuffer, vals *[]sql.Value) error {
	for i := range a.Aggs {
		enc, ok := r[a.NumKeys+i].([]byte)
		if !ok {
			return fmt.Errorf("incremental: bad shuffle row for %s", a.OpName)
		}
		var err error
		if *vals, err = codec.AppendValues((*vals)[:0], enc); err != nil {
			return err
		}
		if err := bufs[i].Deserialize(*vals); err != nil {
			return err
		}
	}
	return nil
}

// survivorSel computes which input rows survive the watermark gate using
// the vectorized expiry kernel: the event-time key column is unpacked into
// timestamp/kind/validity slabs once, and vec.ExpirySel selects the
// surviving lanes. Returns nil when no gating applies (all rows live).
func (a *StatefulAggregate) survivorSel(ctx *EpochContext, rows []sql.Row) []int32 {
	if a.EventKeyIdx < 0 || ctx.Watermark <= 0 || len(rows) == 0 {
		return nil
	}
	n := len(rows)
	evt := make([]int64, n)
	isWin := make([]bool, n)
	valid := make([]bool, n)
	for i, r := range rows {
		switch x := r[a.EventKeyIdx].(type) {
		case sql.Window:
			evt[i], isWin[i], valid[i] = x.End, true, true
		case int64:
			evt[i], valid[i] = x, true
		}
	}
	return vec.ExpirySel(evt, isWin, valid, ctx.Watermark, false, make([]int32, 0, n))
}

// mergeGroup is one distinct grouping key's worth of this epoch's shuffle
// rows in the row-path baseline merge: the boxed key (from the first row
// seen) and the latest merged buffers.
type mergeGroup struct {
	key      []sql.Value
	keyBytes []byte
	bufs     []sql.AggBuffer
}

// mergeState is the pooled scratch behind the batched reduce merge: the
// group slab, the open-addressed bucket table, per-row chain links, the
// GetBatch key vector, the key-bytes arena, and two reusable aggregate
// buffer sets. One mergeState serves one Process call; a sync.Pool on the
// operator recycles them across epochs and concurrent state partitions,
// so a steady-state epoch allocates only what it must hand off — emit
// rows and encoded state values.
type mergeState struct {
	groups  []vecMergeGroup
	slots   []int32 // power-of-2 buckets: group index + 1, 0 = empty
	rowNext []int32 // chains a group's rows in arrival order, -1 ends
	keys    [][]byte
	arena   []byte // backing storage for group keyBytes
	dst     []sql.AggBuffer
	src     []sql.AggBuffer
	enc     codec.Encoder // key bytes while grouping, then appendAggState's scratch
	val     []byte        // one group's encoded state before the store's copy is cut
	vals    []sql.Value   // one buffer's decoded values, between decode and Deserialize
}

// vecMergeGroup is one distinct key in the batched merge. Rows reach the
// merge loop via the firstRow/rowNext chain instead of a per-group index
// slice, and the Update-mode emit row is built during the merge while the
// shared dst buffers still hold the group's final state.
type vecMergeGroup struct {
	keyBytes          []byte
	h                 uint64
	firstRow, lastRow int32
	next              int32
	row               sql.Row
}

func (ms *mergeState) reset() {
	for i := range ms.groups {
		ms.groups[i].row = nil // release emitted rows to the GC
	}
	ms.groups = ms.groups[:0]
	clear(ms.slots)
	ms.arena = ms.arena[:0]
}

func (ms *mergeState) grow() {
	ms.slots = make([]int32, 2*len(ms.slots))
	mask := uint64(len(ms.slots) - 1)
	for gi := range ms.groups {
		g := &ms.groups[gi]
		b := g.h & mask
		g.next = ms.slots[b] - 1
		ms.slots[b] = int32(gi) + 1
	}
}

// mergeRowsBaseline is the reduce-side merge with vectorization off: a
// per-row watermark check, one store Get and Put per shuffle row, and a
// fresh decoded buffer set per row — the engine's original behavior,
// kept as the reference the batched merge is differentially tested
// against. Returns the changed groups in first-seen order, same as the
// batched pass.
func (a *StatefulAggregate) mergeRowsBaseline(ctx *EpochContext, store *state.Store, rows []sql.Row) ([]*mergeGroup, error) {
	changed := make(map[string]*mergeGroup, len(rows))
	var groups []*mergeGroup
	for _, r := range rows {
		keyVals := r[:a.NumKeys:a.NumKeys]
		// Drop data later than the watermark allows: its group was (or
		// will be) finalized and evicted, and merging it would resurrect
		// the group and violate append-mode's emit-once guarantee.
		if a.EventKeyIdx >= 0 && ctx.Watermark > 0 && groupExpired(keyVals[a.EventKeyIdx], ctx.Watermark) {
			continue
		}
		keyBytes := codec.EncodeValues(keyVals)
		incoming, err := a.decodeShuffleBufs(r)
		if err != nil {
			return nil, err
		}
		var merged []sql.AggBuffer
		if existing, ok := store.Get(keyBytes); ok {
			bufs, err := a.decodeAggState(existing)
			if err != nil {
				return nil, err
			}
			for i := range bufs {
				bufs[i].Merge(incoming[i])
			}
			merged = bufs
		} else {
			merged = incoming
		}
		store.Put(keyBytes, encodeAggState(merged))
		if g, seen := changed[string(keyBytes)]; seen {
			g.bufs = merged
		} else {
			g := &mergeGroup{key: append([]sql.Value(nil), keyVals...), keyBytes: keyBytes, bufs: merged}
			changed[string(keyBytes)] = g
			groups = append(groups, g)
		}
	}
	return groups, nil
}

// Process implements StatefulOp. With ctx.Vectorize set the merge is
// batched: rows are gated by the vectorized watermark kernel, grouped by
// encoded key with one hash-table pass, read from the store with a single
// GetBatch over the distinct keys, merged per group in row order, and
// written back with one Put per group — per-row store locking, codec
// round-trips between duplicate rows, and (for LSM) per-key memtable/bloom
// probes all amortize across the vector. With it clear the original
// per-row merge runs instead; emission is shared and both merges must
// yield byte-identical output.
func (a *StatefulAggregate) Process(ctx *EpochContext, store *state.Store, inputs [][]sql.Row) ([]sql.Row, error) {
	rows := inputs[0]
	if !ctx.Vectorize {
		groups, err := a.mergeRowsBaseline(ctx, store, rows)
		if err != nil {
			return nil, err
		}
		return a.emit(ctx, store, groups)
	}
	// Watermark gate: data later than the watermark allows is dropped —
	// its group was (or will be) finalized and evicted, and merging it
	// would resurrect the group and violate append-mode's emit-once
	// guarantee.
	sel := a.survivorSel(ctx, rows)

	ms, _ := a.mergePool.Get().(*mergeState)
	if ms == nil {
		ms = &mergeState{slots: make([]int32, 1024)}
	}
	if cap(ms.rowNext) < len(rows) {
		ms.rowNext = make([]int32, len(rows))
	}

	// Grouping pass over survivors: first-seen order of distinct keys
	// matches the row-path baseline's emission order. Rows chain onto
	// their group through rowNext; new keys land in the arena-backed slab.
	addRow := func(ri int32) {
		r := rows[ri]
		keyVals := r[:a.NumKeys:a.NumKeys]
		ms.enc.Reset()
		for _, v := range keyVals {
			ms.enc.PutValue(v)
		}
		keyBytes := ms.enc.Bytes()
		h := codec.HashBytes(keyBytes)
		ms.rowNext[ri] = -1
		b := h & uint64(len(ms.slots)-1)
		for gi := ms.slots[b] - 1; gi >= 0; gi = ms.groups[gi].next {
			g := &ms.groups[gi]
			if g.h == h && bytes.Equal(g.keyBytes, keyBytes) {
				ms.rowNext[g.lastRow] = ri
				g.lastRow = ri
				return
			}
		}
		if 2*len(ms.groups) >= len(ms.slots) {
			ms.grow()
			b = h & uint64(len(ms.slots)-1)
		}
		an := len(ms.arena)
		ms.arena = append(ms.arena, keyBytes...)
		gi := int32(len(ms.groups))
		ms.groups = append(ms.groups, vecMergeGroup{
			keyBytes: ms.arena[an:len(ms.arena):len(ms.arena)],
			h:        h,
			firstRow: ri,
			lastRow:  ri,
			next:     ms.slots[b] - 1,
		})
		ms.slots[b] = gi + 1
	}
	if sel != nil {
		for _, i := range sel {
			addRow(i)
		}
	} else {
		for ri := range rows {
			addRow(int32(ri))
		}
	}

	// One batched state read over the distinct keys, then merge each
	// group's rows in arrival order and write back once per group. The
	// dst/src buffer sets are reused for every group and row (Deserialize
	// fully overwrites buffer state; Merge never retains references into
	// its argument), so the merge's only allocations are the encoded state
	// values the store retains and the emit rows handed downstream.
	if len(ms.groups) > 0 {
		if cap(ms.keys) < len(ms.groups) {
			ms.keys = make([][]byte, len(ms.groups))
		}
		keys := ms.keys[:len(ms.groups)]
		for gi := range ms.groups {
			keys[gi] = ms.groups[gi].keyBytes
		}
		vals, oks := store.GetBatch(keys)
		if ms.dst == nil {
			ms.dst = make([]sql.AggBuffer, len(a.Aggs))
			ms.src = make([]sql.AggBuffer, len(a.Aggs))
			for i, agg := range a.Aggs {
				ms.dst[i] = agg.NewBuffer()
				ms.src[i] = agg.NewBuffer()
			}
		}
		for gi := range ms.groups {
			g := &ms.groups[gi]
			ri := g.firstRow
			if oks[gi] {
				if err := a.decodeAggStateInto(vals[gi], ms.dst, &ms.vals); err != nil {
					return nil, err
				}
			} else {
				if err := a.decodeShuffleInto(rows[ri], ms.dst, &ms.vals); err != nil {
					return nil, err
				}
				ri = ms.rowNext[ri]
			}
			for ; ri >= 0; ri = ms.rowNext[ri] {
				if err := a.decodeShuffleInto(rows[ri], ms.src, &ms.vals); err != nil {
					return nil, err
				}
				for i := range ms.dst {
					ms.dst[i].Merge(ms.src[i])
				}
			}
			ms.val = appendAggState(ms.val[:0], &ms.enc, ms.dst)
			store.Put(g.keyBytes, append([]byte(nil), ms.val...))
			if ctx.Mode == logical.Update {
				r := rows[g.firstRow]
				row := make(sql.Row, 0, a.NumKeys+len(ms.dst))
				row = append(row, r[:a.NumKeys]...)
				for _, b := range ms.dst {
					row = append(row, b.Result())
				}
				g.row = row
			}
		}
	}
	if err := store.Err(); err != nil {
		return nil, err
	}

	var out []sql.Row
	emitRow := func(key []sql.Value, bufs []sql.AggBuffer) {
		row := make(sql.Row, 0, len(key)+len(bufs))
		row = append(row, key...)
		for _, b := range bufs {
			row = append(row, b.Result())
		}
		out = append(out, row)
	}
	switch ctx.Mode {
	case logical.Complete:
		if err := a.emitComplete(store, emitRow); err != nil {
			return nil, err
		}
	case logical.Update:
		// Rows were rendered during the merge, while the shared buffers
		// still held each group's final state.
		for gi := range ms.groups {
			out = append(out, ms.groups[gi].row)
		}
	case logical.Append:
		// Emission happens only via watermark finalization below.
	}
	if err := a.finalizeExpired(ctx, store, emitRow); err != nil {
		return nil, err
	}
	ms.reset()
	a.mergePool.Put(ms)
	return out, nil
}

// emit is the output half of Process, shared by both merge
// implementations: mode-dependent emission over the changed groups plus
// the watermark finalize/evict pass.
func (a *StatefulAggregate) emit(ctx *EpochContext, store *state.Store, groups []*mergeGroup) ([]sql.Row, error) {
	if err := store.Err(); err != nil {
		return nil, err
	}

	var out []sql.Row
	emitRow := func(key []sql.Value, bufs []sql.AggBuffer) {
		row := make(sql.Row, 0, len(key)+len(bufs))
		row = append(row, key...)
		for _, b := range bufs {
			row = append(row, b.Result())
		}
		out = append(out, row)
	}

	switch ctx.Mode {
	case logical.Complete:
		if err := a.emitComplete(store, emitRow); err != nil {
			return nil, err
		}
	case logical.Update:
		// The merge loop kept each group's final buffers; nothing in this
		// epoch can have removed a changed key (eviction runs below), so
		// emission needs no second store read.
		for _, g := range groups {
			emitRow(g.key, g.bufs)
		}
	case logical.Append:
		// Emission happens only via watermark finalization below.
	}
	if err := a.finalizeExpired(ctx, store, emitRow); err != nil {
		return nil, err
	}
	return out, nil
}

// emitComplete emits the whole store, Complete mode's contract.
func (a *StatefulAggregate) emitComplete(store *state.Store, emitRow func([]sql.Value, []sql.AggBuffer)) error {
	var iterErr error
	store.Iterate(func(k, v []byte) bool {
		key, err := codec.DecodeValues(k)
		if err != nil {
			iterErr = err
			return false
		}
		bufs, err := a.decodeAggState(v)
		if err != nil {
			iterErr = err
			return false
		}
		emitRow(key, bufs)
		return true
	})
	return iterErr
}

// finalizeExpired is the watermark pass shared by both merge paths:
// groups entirely below the watermark are evicted, and Append mode emits
// them on the way out (its once-per-group finalization).
func (a *StatefulAggregate) finalizeExpired(ctx *EpochContext, store *state.Store, emitRow func([]sql.Value, []sql.AggBuffer)) error {
	if ctx.Watermark <= 0 || a.EventKeyIdx < 0 {
		return nil
	}
	type expired struct {
		key []sql.Value
		raw []byte
	}
	var dead []expired
	var iterErr error
	store.Iterate(func(k, v []byte) bool {
		key, err := codec.DecodeValues(k)
		if err != nil {
			iterErr = err
			return false
		}
		if groupExpired(key[a.EventKeyIdx], ctx.Watermark) {
			dead = append(dead, expired{key: key, raw: append([]byte(nil), k...)})
			if ctx.Mode == logical.Append {
				bufs, err := a.decodeAggState(v)
				if err != nil {
					iterErr = err
					return false
				}
				emitRow(key, bufs)
			}
		}
		return true
	})
	if iterErr != nil {
		return iterErr
	}
	for _, d := range dead {
		store.Remove(d.raw)
	}
	return nil
}

// groupExpired reports whether an event-time key value is entirely below
// the watermark: a window is expired once its End has passed; a raw
// timestamp once the timestamp itself has. vec.ExpirySel is the slab form
// of exactly this predicate.
func groupExpired(v sql.Value, watermark int64) bool {
	switch x := v.(type) {
	case sql.Window:
		return x.End <= watermark
	case int64:
		return x < watermark
	default:
		return false
	}
}

// ---------------------------------------------------------------- dedup

// StreamingDedup implements streaming SELECT DISTINCT and
// dropDuplicates(cols): the first row per key is emitted, later duplicates
// are dropped, and when an event-time column is watermarked, keys older
// than the watermark are forgotten (bounding state, §4.3.1).
type StreamingDedup struct {
	OpName string
	// KeyIdxs selects the duplicate-key columns; nil keys on the whole row.
	KeyIdxs []int
	// EventIdx is the watermarked event-time column within the row; -1
	// disables eviction (state grows without bound, as in Spark when
	// deduplicating without a watermark).
	EventIdx int
	Out      sql.Schema
}

// Name implements StatefulOp.
func (d *StreamingDedup) Name() string { return d.OpName }

// OutputSchema implements StatefulOp.
func (d *StreamingDedup) OutputSchema() sql.Schema { return d.Out }

// Process implements StatefulOp. Late rows are gated by the vectorized
// expiry kernel up front (a late row never emits and never marks its key
// seen, so pre-filtering is exactly equivalent to the per-row gate), then
// the seen-checks run as one batched store read; duplicates within the
// epoch are caught by an epoch-local set, mirroring the visibility the
// per-row path got from staged Puts.
func (d *StreamingDedup) Process(ctx *EpochContext, store *state.Store, inputs [][]sql.Row) ([]sql.Row, error) {
	rows := inputs[0]

	// Vectorized late-row gate.
	var sel []int32
	if d.EventIdx >= 0 && ctx.Watermark > 0 && len(rows) > 0 {
		n := len(rows)
		evt := make([]int64, n)
		valid := make([]bool, n)
		for i, r := range rows {
			if v, ok := r[d.EventIdx].(int64); ok && v >= 0 {
				evt[i], valid[i] = v, true
			}
		}
		sel = vec.ExpirySel(evt, make([]bool, n), valid, ctx.Watermark, false, make([]int32, 0, n))
	}
	live := make([]int, 0, len(rows))
	if sel != nil {
		for _, i := range sel {
			live = append(live, int(i))
		}
	} else {
		for i := range rows {
			live = append(live, i)
		}
	}

	// Batched seen-check over the surviving rows' keys.
	keys := make([][]byte, len(live))
	for j, ri := range live {
		r := rows[ri]
		if d.KeyIdxs == nil {
			keys[j] = codec.EncodeValues(r)
		} else {
			keys[j] = codec.EncodeValues(r.Project(d.KeyIdxs))
		}
	}
	_, oks := store.GetBatch(keys)
	if err := store.Err(); err != nil {
		return nil, err
	}

	var out []sql.Row
	seenNow := make(map[string]bool, len(live))
	for j, ri := range live {
		if oks[j] || seenNow[string(keys[j])] {
			continue
		}
		r := rows[ri]
		var ts int64 = -1
		if d.EventIdx >= 0 {
			if v, ok := r[d.EventIdx].(int64); ok {
				ts = v
			}
		}
		seenNow[string(keys[j])] = true
		store.Put(keys[j], binary.AppendVarint(nil, ts))
		out = append(out, r)
	}
	// Evict keys whose event time has passed the watermark.
	if d.EventIdx >= 0 && ctx.Watermark > 0 {
		var dead [][]byte
		store.Iterate(func(k, v []byte) bool {
			ts, _ := binary.Varint(v)
			if ts >= 0 && ts < ctx.Watermark {
				dead = append(dead, append([]byte(nil), k...))
			}
			return true
		})
		for _, k := range dead {
			store.Remove(k)
		}
	}
	return out, nil
}
