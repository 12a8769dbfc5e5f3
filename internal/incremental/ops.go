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
	// NumKeys is the grouping-key arity. A shuffle row is one partialCell.
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

// partialCell is the one column of an aggregate's shuffle row: a map-side
// partial group in the form the reduce side consumes without decoding
// anything it does not merge. Aggregates are monoid homomorphisms, so a
// partial is a state value: state holds the buffers in the state-store value
// layout (appendAggState), key is the state-store key, and hash — the
// shuffle-routing hash of key — also groups the cell on the reduce side. A
// group that arrives as a single partial and is new to the store is stored
// by handing state to Store.Put as it is.
//
// Cells are engine-private and immutable once rendered. key and state are
// cut from slabs that partialAgg.scatter allocates per bucket per call and
// never reuses: the store may keep a state slice until its memtable flushes.
type partialCell struct {
	hash  uint64
	key   []byte
	state []byte
}

func (c *partialCell) String() string { return fmt.Sprintf("partial(%x: %x)", c.key, c.state) }

// partialAgg is a small map-side hash aggregator that renders its groups
// as shuffle rows: an aggregate pipeline's terminal (aggTerminal) folds
// each map task's output into one. Groups live in one contiguous slab in first-seen
// (= emission) order, reached through an open-addressed bucket table that
// chains colliding groups by slab index; each group caches its lookup hash
// and its encoded key bytes (sliced out of a shared arena), so a hit never
// boxes the key. Lookup and routing are two hashes: a group is looked up by
// a typed hash of the key vectors and a typed compare, its key encoded only
// when the group is new; scatter routes every group by the FNV hash of its
// key bytes, once per group. The slab, table, arena, and aggregate-pass
// scratch all survive reset(), so a pooled instance processes an epoch's
// batch with near-zero per-group bookkeeping allocations.
type partialAgg struct {
	aggs     []sql.BoundAgg
	kernels  []aggKernel
	groups   []partialGroup // the slab; index is the group id
	slots    []int32        // power-of-2 buckets: chain-head index + 1, 0 = empty
	arena    []byte         // backing storage for group keyBytes
	bufArena []sql.AggBuffer
	enc      *codec.Encoder
	// aggregate-pass scratch, reused across batches
	laneIdx   []int32
	laneGroup []int32
	counts    []int64
	isums     []int64
	fsums     []float64
	// scatter's scratch: every group's state bytes back to back, and where
	// each group's end and where it routes
	states   []byte
	rendered []renderedGroup
}

// renderedGroup is scatter's record of one group between its two passes.
type renderedGroup struct {
	stateEnd int
	route    uint64 // codec.HashBytes of the group's key bytes
}

// partialGroup is one slab entry. It is 64 bytes, a cache line: lane sits
// in what would otherwise be padding, and the routing hash is not kept.
type partialGroup struct {
	keyBytes []byte // cached codec encoding of the key, which scatter ships
	bufs     []sql.AggBuffer
	h        uint64 // lookup hash; resolves bucket collisions and rebuilds
	next     int32  // next group in this bucket's chain, -1 ends the chain
	lane     int32  // updateBatch: the batch lane the group was first seen at
}

func newPartialAgg(aggs []sql.BoundAgg) *partialAgg {
	kernels := make([]aggKernel, len(aggs))
	for i, a := range aggs {
		kernels[i] = kernelFor(a)
	}
	return &partialAgg{
		aggs:    aggs,
		kernels: kernels,
		slots:   make([]int32, 1024),
		enc:     codec.NewEncoder(64),
	}
}

// aggTerminal is the map-side partial aggregate as a pipeline's terminal.
// Tables are pooled across map tasks: a scattered cell aliases nothing
// inside its table (scatter copies every group's key and state bytes into
// slabs it allocates per call), so a reset table serves the next task.
type aggTerminal struct {
	aggs []sql.BoundAgg
	vec  *VecAggPlan
	pool sync.Pool // *partialAgg
}

func (t *aggTerminal) scatter(b *vec.Batch, nPart int) [][]sql.Row {
	h, ok := t.pool.Get().(*partialAgg)
	if !ok {
		h = newPartialAgg(t.aggs)
	}
	h.updateBatch(b, t.vec)
	buckets := h.scatter(nPart)
	h.reset()
	t.pool.Put(h)
	return buckets
}

// reset clears the groups while keeping every allocation (slab, bucket
// table, arenas, scratch slabs) for reuse. Nothing rendered from the
// previous generation points into them: scatter copies.
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

// laneHashMask is ANDed into every lookup hash. Tests clear it to force
// every key onto one full 64-bit hash.
var laneHashMask = ^uint64(0)

// lookupLane resolves the group for the key at lane i of the key vectors by
// its lookup hash h (vec.HashLanes), comparing typed cells against each
// candidate group's first lane. Only a miss encodes the key.
func (p *partialAgg) lookupLane(h uint64, keys []*vec.Vector, i int32) int32 {
	for gi := p.slots[h&uint64(len(p.slots)-1)] - 1; gi >= 0; gi = p.groups[gi].next {
		g := &p.groups[gi]
		if g.h == h && vec.KeysEqual(keys, int(g.lane), keys, int(i)) {
			return gi
		}
	}
	p.enc.Reset()
	codec.VectorKeyString(p.enc, keys, int(i))
	return p.addGroup(h, p.enc.Bytes(), i)
}

// addGroup appends a new group for the encoded key kb under lookup hash h
// and prepends it to its bucket's chain. The key bytes are copied into the
// arena: kb usually aliases a reused encoder buffer.
func (p *partialAgg) addGroup(h uint64, kb []byte, lane int32) int32 {
	if 2*len(p.groups) >= len(p.slots) {
		p.grow()
	}
	b := h & uint64(len(p.slots)-1)
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
		lane:     lane,
	})
	p.slots[b] = gi + 1
	return gi
}

// updateBatch folds the live rows of a column batch into the hash table
// without boxing: a grouping pass hashes every live lane's key straight
// from the key vectors, a column at a time over chunks of vec.HashChunk
// lanes (vec.HashLanes, the map side's one typed key hash), finds its group by that hash and a typed compare
// (lookupLane) and records the group index, encoding a key only for a new
// group; then per-aggregate kernels fold whole lane runs into each group —
// counts and sums accumulate in typed slabs and land in the buffer via one
// bulk call per group. Lanes whose aggregate lacks a bulk kernel fall back
// to boxed per-lane Update, skipping NULL lanes.
//
// updateBatch must be the first and only feeder of this instance between
// get and reset: a group's lane points into this batch's key vectors, and
// bulk float sums are bit-identical to per-row Update only when the
// buffers start fresh. The engine takes one partialAgg per batch.
func (p *partialAgg) updateBatch(b *vec.Batch, plan *VecAggPlan) {
	if len(p.groups) != 0 {
		panic("incremental: updateBatch on a partial aggregate that already holds groups")
	}
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

	// Grouping pass: one typed hash and one typed compare per live lane, one
	// encode per group, no boxing.
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
	var hs [vec.HashChunk]uint64
	for from := 0; from < len(lanes); from += vec.HashChunk {
		chunk := lanes[from:min(from+vec.HashChunk, len(lanes))]
		vec.HashLanes(hs[:len(chunk)], keys, chunk)
		for j, lane := range chunk {
			laneGroup[from+j] = p.lookupLane(hs[j]&laneHashMask, keys, lane)
		}
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
// lane and Update.
func (p *partialAgg) updateLanesBoxed(k int, in *vec.Vector, lanes []int32, laneGroup []int32) {
	for j, lane := range lanes {
		i := int(lane)
		if !in.IsNull(i) {
			p.groups[laneGroup[j]].bufs[k].Update(in.Get(i))
		}
	}
}

// scatter renders the groups as shuffle rows — one partial cell each, in
// first-seen order — into nPart buckets, routed by and stamped with each
// group's routing hash, computed here once per group from its key bytes:
// codec.HashBytes(keyBytes) == codec.HashKey(key), so the buckets are those
// boxing the key and hashing it would give. A counting pass renders every
// group's state bytes once into pooled scratch and sizes each bucket; the
// copy pass cuts cells, row headers, key bytes and state bytes out of one
// slab each per bucket, so a call allocates O(buckets) and nothing per
// group. The slabs are fresh on every call and never pooled (see
// partialCell); state bytes have a slab of their own because they are what
// the store may keep, and a kept value pins its slab.
func (p *partialAgg) scatter(nPart int) [][]sql.Row {
	type bucket struct {
		cells                 []partialCell
		vals                  []sql.Value // row i is vals[i : i+1]
		keys, states          []byte
		n, keySize, stateSize int
	}
	slabs := make([]bucket, nPart)
	p.states, p.rendered = p.states[:0], p.rendered[:0]
	for gi := range p.groups {
		g := &p.groups[gi]
		from := len(p.states)
		p.states = appendAggState(p.states, g.bufs)
		h := codec.HashBytes(g.keyBytes)
		p.rendered = append(p.rendered, renderedGroup{len(p.states), h})
		b := &slabs[h%uint64(nPart)]
		b.n++
		b.keySize += len(g.keyBytes)
		b.stateSize += len(p.states) - from
	}
	buckets := make([][]sql.Row, nPart)
	for part := range slabs {
		if b := &slabs[part]; b.n > 0 {
			b.cells = make([]partialCell, 0, b.n)
			b.vals = make([]sql.Value, 0, b.n)
			b.keys = make([]byte, 0, b.keySize)
			b.states = make([]byte, 0, b.stateSize)
			buckets[part] = make([]sql.Row, 0, b.n)
		}
	}
	from := 0
	for gi := range p.groups {
		g := &p.groups[gi]
		r := p.rendered[gi]
		part := r.route % uint64(nPart)
		b := &slabs[part]
		k, st := len(b.keys), len(b.states)
		b.keys = append(b.keys, g.keyBytes...)
		b.states = append(b.states, p.states[from:r.stateEnd]...)
		from = r.stateEnd
		i := len(b.cells)
		b.cells = append(b.cells, partialCell{
			hash:  r.route,
			key:   b.keys[k:len(b.keys):len(b.keys)],
			state: b.states[st:len(b.states):len(b.states)],
		})
		b.vals = append(b.vals, &b.cells[i])
		buckets[part] = append(buckets[part], b.vals[i:i+1:i+1])
	}
	return buckets
}

// appendAggState appends the state-store value of one group: each aggregate
// buffer's state bytes behind their uvarint length. The length is written
// after the bytes it counts: one byte is reserved for it, which nearly every
// buffer fits, and a longer state (HLL registers, a large distinct set) is
// moved up to make room.
func appendAggState(dst []byte, bufs []sql.AggBuffer) []byte {
	for _, b := range bufs {
		at := len(dst)
		dst = b.AppendState(append(dst, 0))
		n := len(dst) - at - 1
		if n < 0x80 {
			dst[at] = byte(n)
			continue
		}
		var length [binary.MaxVarintLen64]byte
		w := binary.PutUvarint(length[:], uint64(n))
		dst = append(dst, length[:w-1]...)
		copy(dst[at+w:], dst[at+1:at+1+n])
		copy(dst[at:], length[:w])
	}
	return dst
}

func (a *StatefulAggregate) errCorruptState() error {
	return fmt.Errorf("incremental: corrupt aggregate state for %s", a.OpName)
}

// newBuffers allocates one empty buffer per aggregate.
func (a *StatefulAggregate) newBuffers() []sql.AggBuffer {
	bufs := make([]sql.AggBuffer, len(a.Aggs))
	for i, agg := range a.Aggs {
		bufs[i] = agg.NewBuffer()
	}
	return bufs
}

// loadAggState overwrites bufs with a state value — one read back from the
// store, or the one a partial cell carries. Every LoadState fully replaces
// its buffer and keeps nothing of data, so callers may reuse one buffer set
// across groups. The lengths come off disk: they are compared unsigned, since
// int(n) of a corrupt one can wrap negative and pass a signed bound.
func (a *StatefulAggregate) loadAggState(data []byte, bufs []sql.AggBuffer) error {
	pos := 0
	for _, b := range bufs {
		n, w := binary.Uvarint(data[pos:])
		if w <= 0 || n > uint64(len(data)-pos-w) {
			return a.errCorruptState()
		}
		pos += w
		if err := b.LoadState(data[pos : pos+int(n)]); err != nil {
			return fmt.Errorf("%w: %v", a.errCorruptState(), err)
		}
		pos += int(n)
	}
	if pos != len(data) {
		return a.errCorruptState()
	}
	return nil
}

// cellsOf unwraps one partition's shuffle rows.
func (a *StatefulAggregate) cellsOf(rows []sql.Row, cells []*partialCell) ([]*partialCell, error) {
	cells = cells[:0]
	for _, r := range rows {
		c, ok := partialOf(r)
		if !ok {
			return nil, fmt.Errorf("incremental: bad shuffle row for %s", a.OpName)
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// partialOf reports the partial cell a shuffle row consists of.
func partialOf(r sql.Row) (*partialCell, bool) {
	if len(r) != 1 {
		return nil, false
	}
	c, ok := r[0].(*partialCell)
	return c, ok && c != nil
}

// keyValueAt returns where value idx of an encoded grouping key starts, or
// -1 when the key does not decode that far.
func keyValueAt(key []byte, idx int) int {
	pos := 0
	for i := 0; i < idx && pos >= 0; i++ {
		pos = sql.SkipValue(key, pos)
	}
	return pos
}

// keyEventTime reads the event-time value at position idx of an encoded
// grouping key without boxing it: a window (its end, isWin set) or a raw
// timestamp. valid is false for anything else (a NULL timestamp never
// expires); a key that does not decode that far is an error.
func (a *StatefulAggregate) keyEventTime(key []byte) (evt int64, isWin, valid bool, err error) {
	pos := keyValueAt(key, a.EventKeyIdx)
	if pos < 0 || sql.SkipValue(key, pos) < 0 {
		return 0, false, false, fmt.Errorf("incremental: corrupt aggregate state key for %s", a.OpName)
	}
	if _, end, next := sql.ReadWindow(key, pos); next >= 0 {
		return end, true, true, nil
	}
	ts, next := sql.ReadInt64(key, pos)
	return ts, false, next >= 0, nil
}

// expired reports whether an event-time key value is entirely below the
// watermark: a window is expired once its End has passed; a raw timestamp
// once the timestamp itself has. vec.ExpirySel is the slab form of exactly
// this predicate.
func expired(evt int64, isWin, valid bool, watermark int64) bool {
	if isWin {
		return valid && evt <= watermark
	}
	return valid && evt < watermark
}

// survivorSel computes which cells survive the watermark gate using the
// vectorized expiry kernel: the event-time key is read out of each cell's
// key bytes into timestamp/kind/validity slabs once, and vec.ExpirySel
// selects the surviving lanes. Returns nil when no gating applies (all
// cells live).
func (a *StatefulAggregate) survivorSel(ctx *EpochContext, cells []*partialCell) ([]int32, error) {
	if a.EventKeyIdx < 0 || ctx.Watermark <= 0 || len(cells) == 0 {
		return nil, nil
	}
	n := len(cells)
	evt := make([]int64, n)
	isWin := make([]bool, n)
	valid := make([]bool, n)
	for i, c := range cells {
		var err error
		if evt[i], isWin[i], valid[i], err = a.keyEventTime(c.key); err != nil {
			return nil, err
		}
	}
	return vec.ExpirySel(evt, isWin, valid, ctx.Watermark, false, make([]int32, 0, n)), nil
}

// mergeState is the pooled scratch behind the batched reduce merge: the
// unwrapped cells, the group slab, the open-addressed bucket table, per-row
// chain links, the GetBatch key vector, and two reusable aggregate buffer
// sets. One mergeState serves one Process call; a sync.Pool on the operator
// recycles them across epochs and concurrent state partitions, so a
// steady-state epoch allocates only what it must hand off — emit rows and
// merged state values.
type mergeState struct {
	cells   []*partialCell
	groups  []vecMergeGroup
	slots   []int32 // power-of-2 buckets: group index + 1, 0 = empty
	rowNext []int32 // chains a group's rows in arrival order, -1 ends
	keys    [][]byte
	dst     []sql.AggBuffer
	src     []sql.AggBuffer
	val     []byte // one group's merged state before the store's copy is cut
}

// vecMergeGroup is one distinct key in the batched merge: its rows, which
// reach the merge loop via the firstRow/rowNext chain instead of a per-group
// index slice. The key is the first row's cell's; its hash is kept here so a
// probe that misses touches no cell.
type vecMergeGroup struct {
	h                 uint64
	firstRow, lastRow int32
	next              int32
}

func (ms *mergeState) reset() {
	clear(ms.cells) // release the epoch's slabs to the GC
	clear(ms.keys)
	ms.groups = ms.groups[:0]
	clear(ms.slots)
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

// resultRow renders one group's output row: the key decoded out of its
// encoding, then each buffer's result.
func (a *StatefulAggregate) resultRow(key []byte, bufs []sql.AggBuffer) (sql.Row, error) {
	row, err := codec.AppendValues(make(sql.Row, 0, a.NumKeys+len(bufs)), key)
	if err != nil {
		return nil, fmt.Errorf("incremental: corrupt aggregate state key for %s: %v", a.OpName, err)
	}
	for _, b := range bufs {
		row = append(row, b.Result())
	}
	return row, nil
}

// mergeBatched is the reduce-side merge: cells are
// gated by the vectorized watermark kernel, grouped by their carried hash and
// key bytes with one hash-table pass, read from the store with a single
// GetBatch over the distinct keys, merged per group in row order, and
// written back with one Put per group — per-row store locking, state
// round-trips between duplicate rows, and (for LSM) per-key memtable/bloom
// probes all amortize across the vector. Returns Update mode's rows,
// rendered while the shared buffers still hold each group's final state.
func (a *StatefulAggregate) mergeBatched(ctx *EpochContext, store *state.Store, ms *mergeState) ([]sql.Row, error) {
	cells := ms.cells
	// Watermark gate: data later than the watermark allows is dropped —
	// its group was (or will be) finalized and evicted, and merging it
	// would resurrect the group and violate append-mode's emit-once
	// guarantee.
	sel, err := a.survivorSel(ctx, cells)
	if err != nil {
		return nil, err
	}
	if cap(ms.rowNext) < len(cells) {
		ms.rowNext = make([]int32, len(cells))
	}

	// Grouping pass over survivors: distinct keys in first-seen order, which
	// is Update mode's emission order. Rows chain onto their group through
	// rowNext.
	addRow := func(ri int32) {
		c := cells[ri]
		ms.rowNext[ri] = -1
		b := c.hash & uint64(len(ms.slots)-1)
		for gi := ms.slots[b] - 1; gi >= 0; gi = ms.groups[gi].next {
			g := &ms.groups[gi]
			if g.h == c.hash && bytes.Equal(cells[g.firstRow].key, c.key) {
				ms.rowNext[g.lastRow] = ri
				g.lastRow = ri
				return
			}
		}
		if 2*len(ms.groups) >= len(ms.slots) {
			ms.grow()
			b = c.hash & uint64(len(ms.slots)-1)
		}
		gi := int32(len(ms.groups))
		ms.groups = append(ms.groups, vecMergeGroup{h: c.hash, firstRow: ri, lastRow: ri, next: ms.slots[b] - 1})
		ms.slots[b] = gi + 1
	}
	if sel != nil {
		for _, i := range sel {
			addRow(i)
		}
	} else {
		for ri := range cells {
			addRow(int32(ri))
		}
	}
	if len(ms.groups) == 0 {
		return nil, nil
	}

	// One batched state read over the distinct keys, then merge each
	// group's rows in arrival order and write back once per group. The
	// dst/src buffer sets are reused for every group and row (LoadState
	// fully overwrites buffer state; Merge never retains references into
	// its argument), so the merge's only allocations are the merged state
	// values the store retains and the emit rows handed downstream.
	if cap(ms.keys) < len(ms.groups) {
		ms.keys = make([][]byte, len(ms.groups))
	}
	keys := ms.keys[:len(ms.groups)]
	for gi := range ms.groups {
		keys[gi] = cells[ms.groups[gi].firstRow].key
	}
	vals, oks := store.GetBatch(keys)
	if ms.dst == nil {
		ms.dst, ms.src = a.newBuffers(), a.newBuffers()
	}
	var updated []sql.Row
	if ctx.Mode == logical.Update {
		updated = make([]sql.Row, 0, len(ms.groups))
	}
	for gi := range ms.groups {
		ri := ms.groups[gi].firstRow
		var value []byte // what the store gets
		if oks[gi] {
			err = a.loadAggState(vals[gi], ms.dst)
		} else {
			// A group new to the store starts from its first partial. When
			// that is its only one, the carried bytes are the state value,
			// and the buffers are loaded only if a result is wanted of them.
			first := cells[ri]
			if ri = ms.rowNext[ri]; ri < 0 {
				value = first.state
			}
			if value == nil || ctx.Mode == logical.Update {
				err = a.loadAggState(first.state, ms.dst)
			}
		}
		if err != nil {
			return nil, err
		}
		for ; ri >= 0; ri = ms.rowNext[ri] {
			if err := a.loadAggState(cells[ri].state, ms.src); err != nil {
				return nil, err
			}
			for i := range ms.dst {
				ms.dst[i].Merge(ms.src[i])
			}
		}
		if value == nil {
			ms.val = appendAggState(ms.val[:0], ms.dst)
			value = append([]byte(nil), ms.val...)
		}
		if oks[gi] {
			store.PutLive(keys[gi], value)
		} else {
			store.PutNew(keys[gi], value)
		}
		if ctx.Mode == logical.Update {
			row, err := a.resultRow(keys[gi], ms.dst)
			if err != nil {
				return nil, err
			}
			updated = append(updated, row)
		}
	}
	return updated, nil
}

// Process implements StatefulOp: merge this epoch's partial cells into the
// store, then emit according to the output mode and run the watermark
// finalize/evict pass.
func (a *StatefulAggregate) Process(ctx *EpochContext, store *state.Store, inputs [][]sql.Row) ([]sql.Row, error) {
	ms, _ := a.mergePool.Get().(*mergeState)
	if ms == nil {
		ms = &mergeState{slots: make([]int32, 1024)}
	}
	var err error
	if ms.cells, err = a.cellsOf(inputs[0], ms.cells); err != nil {
		return nil, err
	}
	updated, err := a.mergeBatched(ctx, store, ms)
	ms.reset()
	a.mergePool.Put(ms)
	if err != nil {
		return nil, err
	}
	if err := store.Err(); err != nil {
		return nil, err
	}

	var out []sql.Row
	switch ctx.Mode {
	case logical.Complete:
		if out, err = a.emitComplete(store); err != nil {
			return nil, err
		}
	case logical.Update:
		// Nothing in this epoch can have removed a changed key (eviction
		// runs below), so emission needs no second store read.
		out = updated
	case logical.Append:
		// Emission happens only via watermark finalization below.
	}
	return a.finalizeExpired(ctx, store, out)
}

// emitComplete emits the whole store, Complete mode's contract.
func (a *StatefulAggregate) emitComplete(store *state.Store) ([]sql.Row, error) {
	var out []sql.Row
	var iterErr error
	bufs := a.newBuffers()
	store.Iterate(func(k, v []byte) bool {
		var row sql.Row
		if iterErr = a.loadAggState(v, bufs); iterErr == nil {
			row, iterErr = a.resultRow(k, bufs)
		}
		out = append(out, row)
		return iterErr == nil
	})
	return out, iterErr
}

// finalizeExpired is the watermark pass: groups entirely below the
// watermark are evicted, and Append mode emits them onto out on the way
// (its once-per-group finalization).
func (a *StatefulAggregate) finalizeExpired(ctx *EpochContext, store *state.Store, out []sql.Row) ([]sql.Row, error) {
	if ctx.Watermark <= 0 || a.EventKeyIdx < 0 {
		return out, nil
	}
	var dead [][]byte
	var iterErr error
	var bufs []sql.AggBuffer
	store.Iterate(func(k, v []byte) bool {
		evt, isWin, valid, err := a.keyEventTime(k)
		if err != nil {
			iterErr = err
			return false
		}
		if !expired(evt, isWin, valid, ctx.Watermark) {
			return true
		}
		dead = append(dead, append([]byte(nil), k...))
		if ctx.Mode != logical.Append {
			return true
		}
		if bufs == nil {
			bufs = a.newBuffers()
		}
		var row sql.Row
		if iterErr = a.loadAggState(v, bufs); iterErr == nil {
			row, iterErr = a.resultRow(k, bufs)
		}
		out = append(out, row)
		return iterErr == nil
	})
	if iterErr != nil {
		return nil, iterErr
	}
	for _, k := range dead {
		store.Remove(k)
	}
	return out, nil
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
		store.PutNew(keys[j], binary.AppendVarint(nil, ts))
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
