package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"structream/internal/fsx"
	"structream/internal/incremental"
	"structream/internal/lsm"
	"structream/internal/msgbus"
	"structream/internal/serve"
	"structream/internal/shard"
	"structream/internal/sinks"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
	"structream/internal/state"
	"structream/internal/wal"
)

// Isolated drivers replay a sample of a workload's own input through one
// layer at a time, on one goroutine, calling only the layer's public
// functions. Each runs for at least isolatedMin.
const (
	isolatedSampleRows = 1_000_000
	isolatedChunk      = 65_536
	isolatedMin        = 500 * time.Millisecond
)

// timed accumulates wall time around selected calls.
type timed struct {
	ns    int64
	units int64
}

func (t *timed) do(units int64, fn func()) {
	st := time.Now()
	fn()
	t.ns += int64(time.Since(st))
	t.units += units
}

func (t *timed) perUnit() float64 { return ratio(float64(t.ns), float64(t.units)) }

// sampleChunks fetches up to isolatedSampleRows records of topic as
// per-partition chunks.
func sampleChunks(e *env, topic *msgbus.Topic) ([][]msgbus.Record, error) {
	limit := e.cfg.scaled(isolatedSampleRows, 4096)
	latest := topic.LatestOffsets()
	var chunks [][]msgbus.Record
	var got int64
	for off := int64(0); got < limit; off += isolatedChunk {
		any := false
		for p := 0; p < topic.Partitions() && got < limit; p++ {
			to := off + isolatedChunk
			if to > latest[p] {
				to = latest[p]
			}
			if to <= off {
				continue
			}
			recs, err := topic.FetchRange(p, off, to)
			if err != nil {
				return nil, err
			}
			chunks = append(chunks, recs)
			got += int64(len(recs))
			any = true
		}
		if !any {
			break
		}
	}
	if len(chunks) == 0 {
		return nil, fmt.Errorf("isolated drivers: topic %s is empty", topic.Name())
	}
	return chunks, nil
}

// decodeChunk decodes one chunk of codec-framed records into a batch,
// exactly as the bus source's columnar read does.
func decodeChunk(recs []msgbus.Record, schema sql.Schema) (*vec.Batch, error) {
	b := vec.NewBatch(schema, len(recs))
	n := 0
	for _, rec := range recs {
		added, compat := codec.DecodeRowToBatchShared(rec.Value, b.Cols, n, len(recs))
		if !compat {
			return nil, fmt.Errorf("isolated drivers: a record does not match the schema")
		}
		if added {
			n++
		}
	}
	b.Len = n
	return b, nil
}

// isolatedFetchDecode drives msgbus fetch and codec decode.
func isolatedFetchDecode(e *env, topic *msgbus.Topic, schema sql.Schema, out map[string]float64) ([][]msgbus.Record, error) {
	minDur := e.cfg.shrink(isolatedMin)
	chunks, err := sampleChunks(e, topic)
	if err != nil {
		return nil, err
	}
	latest := topic.LatestOffsets()
	var fetch timed
	for start := time.Now(); time.Since(start) < minDur; {
		for p := 0; p < topic.Partitions(); p++ {
			for off := int64(0); off < latest[p] && off < e.cfg.scaled(isolatedSampleRows, 4096); off += isolatedChunk {
				to := off + isolatedChunk
				if to > latest[p] {
					to = latest[p]
				}
				var ferr error
				fetch.do(to-off, func() { _, ferr = topic.FetchRange(p, off, to) })
				if ferr != nil {
					return nil, ferr
				}
			}
		}
	}
	out["msgbus.fetch_ns_row"] = fetch.perUnit()

	var decode timed
	var bytes int64
	for start := time.Now(); time.Since(start) < minDur; {
		for _, recs := range chunks {
			var derr error
			decode.do(int64(len(recs)), func() { _, derr = decodeChunk(recs, schema) })
			if derr != nil {
				return nil, derr
			}
			for _, r := range recs {
				bytes += int64(len(r.Value))
			}
		}
	}
	out["codec.decode_ns_row"] = decode.perUnit()
	out["codec.decode_bytes_row"] = ratio(float64(bytes), float64(decode.units))
	return chunks, nil
}

// isolatedKernels drives the pipeline's vector ops (filter, project, join
// probe, window assignment — everything before any partial aggregation).
func isolatedKernels(e *env, chunks [][]msgbus.Record, schema sql.Schema, pipe *incremental.Pipeline, out map[string]float64) error {
	minDur := e.cfg.shrink(isolatedMin)
	if pipe.Vec == nil || len(pipe.Vec.Ops) == 0 {
		return nil
	}
	var k timed
	for start := time.Now(); time.Since(start) < minDur; {
		for _, recs := range chunks {
			b, err := decodeChunk(recs, schema)
			if err != nil {
				return err
			}
			k.do(int64(b.Len), func() {
				for _, op := range pipe.Vec.Ops {
					b = op.Apply(b)
				}
			})
		}
	}
	out["vec.kernel_ns_row"] = k.perUnit()
	return nil
}

// isolatedMap is the map-only workloads' driver set.
func isolatedMap(e *env, topic *msgbus.Topic, schema sql.Schema) (map[string]float64, error) {
	out := map[string]float64{}
	chunks, err := isolatedFetchDecode(e, topic, schema, out)
	if err != nil {
		return nil, err
	}
	q, err := mapQuery(false)
	if err != nil {
		return nil, err
	}
	return out, isolatedKernels(e, chunks, schema, q.Pipelines[0], out)
}

// isolatedAggPath drives the map-side partial aggregate, the exchange's
// public hash/scatter functions and the reduce-side merge on a memory store.
func isolatedAggPath(e *env, chunks [][]msgbus.Record, schema sql.Schema, q *incremental.Query, out map[string]float64) error {
	minDur := e.cfg.shrink(isolatedMin)
	pipe := q.Pipelines[0]
	if pipe.Vec == nil {
		return fmt.Errorf("isolated drivers: the aggregate pipeline has no vector plan")
	}
	const nPart = 4
	// mapTask is one map task's work on a decoded batch, taking the branch
	// the engine takes: a columnar partial aggregate scatters by cached key
	// bytes; otherwise rows leave the vector prefix, run the remaining row
	// stages and are routed by hashing their key columns.
	key := make([]sql.Value, len(pipe.KeyEvals))
	mapTask := func(b *vec.Batch) [][]sql.Row {
		if pipe.Vec.Agg != nil && pipe.KeyIdxs != nil {
			return pipe.ProcessBatchScatter(b, nPart)
		}
		buckets := make([][]sql.Row, nPart)
		pipe.ProcessBatchTo(b, func(row sql.Row) {
			for k, ev := range pipe.KeyEvals {
				key[k] = ev(row)
			}
			p := int(codec.HashKey(key) % nPart)
			buckets[p] = append(buckets[p], row)
		})
		return buckets
	}
	var mapT timed
	var groups int64
	var buckets [][][]sql.Row // one scatter result per chunk, kept for the reduce driver
	partRows := make([]float64, nPart)
	for start, first := time.Now(), true; time.Since(start) < minDur; first = false {
		for _, recs := range chunks {
			b, err := decodeChunk(recs, schema)
			if err != nil {
				return err
			}
			var bk [][]sql.Row
			mapT.do(int64(b.Len), func() { bk = mapTask(b) })
			for p, rows := range bk {
				groups += int64(len(rows))
				if first {
					partRows[p] += float64(len(rows))
				}
			}
			if first {
				buckets = append(buckets, bk)
			}
		}
	}
	out["incremental.map_ns_row"] = mapT.perUnit()
	out["incremental.groups_per_row"] = ratio(float64(groups), float64(mapT.units))
	sort.Float64s(partRows)
	out["shard.skew_max_over_median"] = ratio(partRows[nPart-1], (partRows[nPart/2-1]+partRows[nPart/2])/2)

	// Exchange: hash and scatter the rows the aggregate groups, keyed on the
	// first column of the ops' output (the routing key's position).
	var hashT, scatterT timed
	for start := time.Now(); time.Since(start) < minDur; {
		for _, recs := range chunks {
			b, err := decodeChunk(recs, schema)
			if err != nil {
				return err
			}
			for _, op := range pipe.Vec.Ops {
				b = op.Apply(b)
			}
			live := int64(b.NumLive())
			if live == 0 {
				continue
			}
			keyIdxs := []int{0}
			hashT.do(live, func() { shard.HashLanes(b, keyIdxs, make([]uint64, 0, live)) })
			scatterT.do(live, func() { shard.Scatter(b, keyIdxs, nPart) })
		}
	}
	out["shard.hash_ns_row"] = hashT.perUnit()
	out["shard.scatter_ns_row"] = scatterT.perUnit() // hashing included

	// Reduce: merge the scattered partial aggregates into a memory store.
	dir, err := e.newDir("reduce")
	if err != nil {
		return err
	}
	prov := state.NewProviderFS(e.fs, dir)
	defer prov.Close()
	stores := make([]*state.Store, nPart)
	for p := range stores {
		if stores[p], err = prov.Open(state.ID{Operator: q.Stateful.Name(), Partition: p}, -1); err != nil {
			return err
		}
	}
	var red timed
	version := int64(0)
	for start := time.Now(); time.Since(start) < minDur; {
		for _, bk := range buckets {
			ctx := &incremental.EpochContext{Epoch: version, Mode: logical.Update, Vectorize: true}
			for p, rows := range bk {
				var perr error
				red.do(int64(len(rows)), func() { _, perr = q.Stateful.Process(ctx, stores[p], [][]sql.Row{rows, nil}) })
				if perr != nil {
					return perr
				}
				if err := stores[p].Commit(version); err != nil {
					return err
				}
			}
			version++
		}
	}
	out["incremental.reduce_ns_row"] = red.perUnit()
	return nil
}

func isolatedYSB(e *env, topic *msgbus.Topic) (map[string]float64, error) {
	out := map[string]float64{}
	chunks, err := isolatedFetchDecode(e, topic, ysbEventSchema, out)
	if err != nil {
		return nil, err
	}
	q, err := ysbQuery()
	if err != nil {
		return nil, err
	}
	if err := isolatedKernels(e, chunks, ysbEventSchema, q.Pipelines[0], out); err != nil {
		return nil, err
	}
	return out, isolatedAggPath(e, chunks, ysbEventSchema, q, out)
}

// isolatedAgg adds the state and LSM drivers: batched read-modify-write
// through state.Store on the workload's backend settings, point reads on
// the finished run's own SSTables, and the reopen path recovery takes.
func isolatedAgg(e *env, topic *msgbus.Topic, ckpt string) (map[string]float64, error) {
	minDur := e.cfg.shrink(isolatedMin)
	out := map[string]float64{}
	chunks, err := isolatedFetchDecode(e, topic, aggSchema, out)
	if err != nil {
		return nil, err
	}
	q, err := aggQuery()
	if err != nil {
		return nil, err
	}
	if err := isolatedKernels(e, chunks, aggSchema, q.Pipelines[0], out); err != nil {
		return nil, err
	}
	if err := isolatedAggPath(e, chunks, aggSchema, q, out); err != nil {
		return nil, err
	}

	// state.Store batched access on an lsm-backed store with the
	// workload's memtable and block-cache sizes: ApplyBatch a chunk of keys,
	// commit, then GetBatch them back.
	dir, err := e.newDir("state")
	if err != nil {
		return nil, err
	}
	prov := state.NewProviderFS(e.fs, dir)
	prov.Backend = state.BackendLSM
	prov.MemtableBytes = aggMemtableBytes
	prov.BlockCacheBytes = aggBlockCacheBytes
	prov.BackgroundMaintenance = true
	defer prov.Close()
	store, err := prov.Open(state.ID{Operator: "iso", Partition: 0}, -1)
	if err != nil {
		return nil, err
	}
	var apply, get, commit timed
	version := int64(0)
	value := make([]byte, 16)
	for start := time.Now(); time.Since(start) < 2*minDur; {
		for _, recs := range chunks {
			keys := dedupKeys(recs)
			apply.do(int64(len(keys)), func() {
				store.ApplyBatch(keys, func(int, []byte, bool) []byte { return value })
			})
			var cerr error
			commit.do(1, func() { cerr = store.Commit(version) })
			if cerr != nil {
				return nil, cerr
			}
			version++
			get.do(int64(len(keys)), func() { store.GetBatch(keys) })
			if time.Since(start) >= 2*minDur {
				break
			}
		}
	}
	out["state.applybatch_ns_key"] = apply.perUnit()
	out["state.getbatch_ns_key"] = get.perUnit()

	// The finished run's checkpoint: reopen cost and point reads.
	if err := isolatedReopen(e.fs, ckpt, q.Stateful.Name(), aggMemtableBytes, aggBlockCacheBytes, out); err != nil {
		return nil, err
	}
	return out, isolatedLSMReads(e, ckpt, q.Stateful.Name(), chunks, out)
}

// dedupKeys returns the distinct first-column byte strings of a chunk (the
// group key as the codec framed it), as state keys.
func dedupKeys(recs []msgbus.Record) [][]byte {
	seen := make(map[string]struct{}, len(recs))
	keys := make([][]byte, 0, len(recs))
	for _, r := range recs {
		k := firstField(r.Value)
		if _, dup := seen[string(k)]; dup {
			continue
		}
		seen[string(k)] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

// firstField is the state key the aggregate keeps for a record: its first
// column, codec-encoded on its own.
func firstField(row []byte) []byte {
	vals, err := codec.DecodeRow(row)
	if err != nil || len(vals) == 0 {
		return row
	}
	return codec.EncodeValues(vals[:1])
}

// storeVersion is the newest committed version on disk for a store.
func storeVersion(prov *state.Provider, id state.ID) (int64, error) {
	vs, err := prov.Versions(id)
	if err != nil {
		return -1, err
	}
	if len(vs) == 0 {
		return -1, nil
	}
	return vs[len(vs)-1], nil
}

// isolatedReopen times what a restart pays before its first epoch:
// state.Provider.Open of every partition of an lsm-backed operator, and
// lsm.Tree Open+Load underneath it.
func isolatedReopen(fsys fsx.FS, ckpt, operator string, memtable, cache int64, out map[string]float64) error {
	var open timed
	for round := 0; round < 3; round++ {
		prov := state.NewProviderFS(fsys, ckpt)
		prov.Backend = state.BackendLSM
		prov.MemtableBytes = memtable
		prov.BlockCacheBytes = cache
		prov.ReadOnly = true
		var oerr error
		open.do(1, func() {
			for p := 0; p < 4 && oerr == nil; p++ {
				id := state.ID{Operator: operator, Partition: p}
				var v int64
				if v, oerr = storeVersion(prov, id); oerr == nil {
					_, oerr = prov.Open(id, v)
				}
			}
		})
		prov.Close()
		if oerr != nil {
			return fmt.Errorf("state reopen: %w", oerr)
		}
	}
	out["state.open_ms"] = open.perUnit() / 1e6
	var load timed
	for round := 0; round < 3; round++ {
		for p := 0; p < 4; p++ {
			dir := filepath.Join(ckpt, "state", operator, strconv.Itoa(p))
			prov := state.NewProviderFS(fsys, ckpt)
			v, err := storeVersion(prov, state.ID{Operator: operator, Partition: p})
			if err != nil {
				return err
			}
			var lerr error
			var tree *lsm.Tree
			load.do(1, func() {
				if tree, lerr = lsm.Open(lsm.Options{FS: fsys, Dir: dir, MemtableBytes: memtable}); lerr == nil {
					lerr = tree.Load(v)
				}
			})
			if tree != nil {
				tree.Close()
			}
			if lerr != nil {
				return fmt.Errorf("lsm load: %w", lerr)
			}
		}
	}
	out["lsm.load_ms"] = load.perUnit() / 1e6 * 4 // all four partitions, as a restart loads them
	return nil
}

// isolatedWALRecover times wal.OpenFS + Recover on a finished checkpoint.
func isolatedWALRecover(fsys fsx.FS, ckpt string, out map[string]float64) error {
	var rec timed
	for round := 0; round < 5; round++ {
		var rerr error
		rec.do(1, func() {
			var l *wal.Log
			if l, rerr = wal.OpenFS(fsys, ckpt); rerr == nil {
				_, rerr = l.Recover()
			}
		})
		if rerr != nil {
			return fmt.Errorf("wal recover: %w", rerr)
		}
	}
	out["wal.recover_ms"] = rec.perUnit() / 1e6
	return nil
}

// isolatedLSMReads opens partition 0 of the finished run's state as an
// lsm.Tree (with a block cache of the workload's size) and times point
// reads of keys that are present and of keys that are not, plus a commit of
// an epoch-sized batch.
func isolatedLSMReads(e *env, ckpt, operator string, chunks [][]msgbus.Record, out map[string]float64) error {
	minDur := e.cfg.shrink(isolatedMin)
	fsys := e.fs
	src := filepath.Join(ckpt, "state", operator, "0")
	dir, err := e.newDir("lsm")
	if err != nil {
		return err
	}
	if err := copyDir(fsys, src, dir); err != nil {
		return err
	}
	prov := state.NewProviderFS(fsys, ckpt)
	v, err := storeVersion(prov, state.ID{Operator: operator, Partition: 0})
	if err != nil {
		return err
	}
	tree, err := lsm.Open(lsm.Options{FS: fsys, Dir: dir, MemtableBytes: aggMemtableBytes, Cache: lsm.NewBlockCache(aggBlockCacheBytes)})
	if err != nil {
		return err
	}
	defer tree.Close()
	if err := tree.Load(v); err != nil {
		return err
	}
	var keys [][]byte
	for _, recs := range chunks {
		keys = append(keys, dedupKeys(recs)...)
		if len(keys) >= 200_000 {
			break
		}
	}
	var hit, miss timed
	for start := time.Now(); time.Since(start) < minDur; {
		for _, k := range keys {
			var ok bool
			var gerr error
			st := time.Now()
			_, ok, gerr = tree.GetBytes(k)
			d := int64(time.Since(st))
			if gerr != nil {
				return gerr
			}
			if ok {
				hit.ns += d
				hit.units++
			} else {
				// Keys the engine routed to other partitions are absent
				// here: the bloom-filter-and-miss path.
				miss.ns += d
				miss.units++
			}
		}
	}
	out["lsm.get_ns_key_hit"] = hit.perUnit()
	out["lsm.get_ns_key_miss"] = miss.perUnit()

	var commit timed
	for round := int64(1); round <= 8; round++ {
		puts := map[string][]byte{}
		for _, k := range keys[:min(len(keys), aggPerEpoch/4)] {
			puts[string(k)] = []byte("0123456789abcdef")
		}
		var cerr error
		commit.do(1, func() { cerr = tree.Commit(v+round, puts, nil) })
		if cerr != nil {
			return cerr
		}
	}
	out["lsm.commit_ms"] = commit.perUnit() / 1e6
	return nil
}

// copyDir copies the regular files of src into dst (state store directories
// are flat).
func copyDir(fsys fsx.FS, src, dst string) error {
	entries, err := fsys.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		data, err := fsys.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := fsys.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// isolatedJoin drives the stream-stream join operator on an lsm-backed store
// with sampled impressions and clicks, then a full Iterate of what it
// buffered.
func isolatedJoin(e *env, imps, clicks *msgbus.Topic) (map[string]float64, error) {
	minDur := e.cfg.shrink(isolatedMin)
	out := map[string]float64{}
	impChunks, err := isolatedFetchDecode(e, imps, impSchema, out)
	if err != nil {
		return nil, err
	}
	clickChunks, err := sampleChunks(e, clicks)
	if err != nil {
		return nil, err
	}
	q, err := joinQuery()
	if err != nil {
		return nil, err
	}
	dir, err := e.newDir("join")
	if err != nil {
		return nil, err
	}
	prov := state.NewProviderFS(e.fs, dir)
	prov.Backend = state.BackendLSM
	prov.MemtableBytes = joinMemtableBytes
	prov.BackgroundMaintenance = true
	defer prov.Close()
	store, err := prov.Open(state.ID{Operator: q.Stateful.Name(), Partition: 0}, -1)
	if err != nil {
		return nil, err
	}
	// Shuffle rows come from the query's own map pipelines; one partition
	// takes them all, in slices of one engine epoch.
	shuffle := func(chunks [][]msgbus.Record, schema sql.Schema, pipe *incremental.Pipeline) ([]sql.Row, error) {
		var rows []sql.Row
		for _, recs := range chunks {
			b, err := decodeChunk(recs, schema)
			if err != nil {
				return nil, err
			}
			rows = append(rows, pipe.Process(b.AppendRows(nil))...)
		}
		return rows, nil
	}
	left, err := shuffle(impChunks, impSchema, q.Pipelines[0])
	if err != nil {
		return nil, err
	}
	right, err := shuffle(clickChunks, clickSchema, q.Pipelines[1])
	if err != nil {
		return nil, err
	}
	n := min(len(left), len(right))
	step := int(e.cfg.scaled(joinPerEpoch, 256))
	var join, iter timed
	version := int64(0)
	for off := 0; off+step <= n; off += step {
		l, r := left[off:off+step], right[off:off+step]
		// The watermark trails the newest event time by the declared delay.
		wm := l[len(l)-1][1].(int64) - joinWatermarkLag.Microseconds()
		if wm < 0 {
			wm = 0
		}
		ctx := &incremental.EpochContext{Epoch: version, Watermark: wm, Mode: logical.Append, Vectorize: true}
		var perr error
		join.do(int64(2*step), func() { _, perr = q.Stateful.Process(ctx, store, [][]sql.Row{l, r}) })
		if perr != nil {
			return nil, perr
		}
		if err := store.Commit(version); err != nil {
			return nil, err
		}
		version++
		iter.do(1, func() { store.Iterate(func(_, _ []byte) bool { return true }) })
		if time.Duration(join.ns) > 4*minDur {
			break
		}
	}
	out["incremental.join_ns_row"] = join.perUnit()
	out["state.iterate_ms_epoch"] = iter.perUnit() / 1e6
	return out, nil
}

// isolatedSSE drives the hub's SSE transport on its own: a subscriber that
// resumes at the sink's retention floor is sent every retained epoch again,
// one `event:`/`data:` frame each, by Hub.ServeSubscribe, into a writer that
// only counts them. The time from the request to the last frame, per row
// sent, is the transport's replay, encoding and write cost.
func isolatedSSE(sink *sinks.MemorySink, minDur time.Duration) (float64, error) {
	floor, last := sink.Floor(), sink.LastEpoch()
	var rows int64
	for ep := floor + 1; ep <= last; ep++ {
		r, _ := sink.EpochRows(ep)
		rows += int64(len(r))
	}
	if rows == 0 {
		return 0, fmt.Errorf("isolated SSE driver: the sink retains no rows")
	}
	target := "/subscribe?from=start"
	if floor >= 0 {
		target = "/subscribe?cursor=" + strconv.FormatInt(floor, 10)
	}
	var sse timed
	for sse.ns < int64(minDur) {
		hub := serve.NewHub("isolated-sse", sink, serve.HubOptions{})
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
		if err != nil {
			cancel()
			hub.Close()
			return 0, err
		}
		w := &frameCounter{header: http.Header{}, want: last - floor, done: make(chan struct{})}
		served := make(chan struct{})
		start := time.Now()
		go func() {
			defer close(served)
			hub.ServeSubscribe(w, req)
		}()
		var timedOut bool
		select {
		case <-w.done:
			sse.ns += int64(w.lastWrite.Sub(start))
			sse.units += rows
		case <-served:
			timedOut = true // the handler returned before the last epoch
		case <-time.After(30 * time.Second):
			timedOut = true
		}
		cancel()
		<-served
		hub.Close()
		if timedOut {
			return 0, fmt.Errorf("isolated SSE driver: %d of %d epoch frames arrived", w.frames, w.want)
		}
	}
	return sse.perUnit(), nil
}

// frameCounter is the http.ResponseWriter isolatedSSE hands the transport:
// it discards what is written and closes done at the want-th epoch frame.
// The handler writes from one goroutine; lastWrite is read after done.
type frameCounter struct {
	header    http.Header
	frames    int64
	want      int64
	lastWrite time.Time
	done      chan struct{}
}

func (w *frameCounter) Header() http.Header { return w.header }
func (w *frameCounter) WriteHeader(int)     {}
func (w *frameCounter) Flush()              {}

func (w *frameCounter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("event: "+serve.FrameEpoch+"\n")) {
		w.frames++
		if w.frames == w.want {
			w.lastWrite = time.Now()
			close(w.done)
		}
	}
	return len(p), nil
}
