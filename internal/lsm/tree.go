package lsm

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"structream/internal/fsx"
)

// Options configures a Tree.
type Options struct {
	FS  fsx.FS
	Dir string
	// MemtableBytes is the seal threshold: once the memtable's state, or
	// the delta log it holds, reaches it, the memtable is sealed and queued
	// for flush. Default 4 MiB.
	MemtableBytes int64
	// BlockBytes is the SSTable data-block target size. Default 4 KiB.
	BlockBytes int
	// MaxTierTables is the minimum merge width: compaction fires once the
	// newest tables form a run of at least this many whose sizes are within
	// compactionSizeRatio of one another (see pickRunLocked). Default 4.
	MaxTierTables int
	// Cache is the shared block cache; nil disables block caching.
	Cache *BlockCache
	// BackgroundCompaction moves flush, compaction, and manifest publication
	// onto a supervised background goroutine: Commit waits only on its own
	// delta's durability and seals full memtables into a flush queue behind
	// it. The engine enables it by default; crash safety holds either way
	// because the delta log, not the manifest, is the durability point.
	BackgroundCompaction bool
	// Scheduler overrides maintenance scheduling. nil picks the background
	// goroutine when BackgroundCompaction is set and fully synchronous
	// inline maintenance otherwise. A seeded scheduler (NewSeededScheduler)
	// runs the background code path inline at commit boundaries, keeping the
	// mutating-op schedule reproducible for crash sweeps.
	Scheduler MaintenanceScheduler
	// MaxPendingMemtables is the hard ceiling on sealed-but-unflushed
	// memtables (default 4). Past it, Commit runs flush steps synchronously —
	// the last-resort fallback when maintenance cannot keep up. Time spent
	// there is surfaced in Stats.MaintenanceStallUs so the engine's admission
	// control can shed intake before this point is reached.
	MaxPendingMemtables int
}

// Stats is a point-in-time view of a tree's shape and write amplification.
type Stats struct {
	Version  int64
	LiveKeys int64
	// MemtableBytes counts all committed-but-unflushed state: the active
	// memtable plus sealed memtables awaiting background flush.
	MemtableBytes int64
	MemtableKeys  int64
	Tables        int64
	TableBytes    int64
	Flushes       int64
	Compactions   int64
	// CompactionBytes is the cumulative input rewritten by compaction.
	CompactionBytes int64
	// FlushBacklog is the number of sealed memtables waiting for flush.
	FlushBacklog int64
	// MaintenanceStallUs is cumulative time Commit spent blocked on the
	// MaxPendingMemtables ceiling running maintenance synchronously.
	MaintenanceStallUs int64
}

// sealedMem is one immutable memtable awaiting background flush, with the
// delta-version extent it covers and the tree-wide live-key count as of its
// seal — the accounting the manifest needs when the flush installs.
type sealedMem struct {
	mem    *memtable
	from   int64 // first delta version folded into this memtable
	to     int64 // last delta version (the commit that sealed it)
	liveAt int64 // tree-wide live keys as of version `to`
}

// Tree is one keyed state partition stored as an LSM: a mutable memtable
// over a queue of sealed memtables over immutable SSTables, with per-version
// delta logs and manifests making every committed version individually
// loadable.
type Tree struct {
	fsys  fsx.FS
	dir   string
	opts  Options
	sched MaintenanceScheduler

	// maintMu serializes maintenance steps (flush, compaction, manifest
	// publication, GC) against each other and against timeline changes
	// (Load, Close, Maintain): a step never interleaves with a reload, so
	// its snapshot of inputs and its allocated table sequence stay valid
	// from snapshot to install. Lock order: maintMu before mu, never the
	// reverse.
	maintMu sync.Mutex
	// builder writes every table of this tree, one step at a time (under
	// maintMu): its image is handed to WriteFile and overwritten by the next
	// step.
	builder *tableBuilder

	mu      sync.Mutex
	mem     *memtable
	memFrom int64 // first delta version in the active memtable
	// logBytes counts the delta files from memFrom on, as written or
	// replayed: the log a restart replays until the memtable seals.
	logBytes int64
	// spare is the last flushed memtable, emptied: the next seal makes it the
	// active one instead of building a map and a slot array of the same size
	// again.
	spare *memtable
	// deltaBuf is the last commit's delta image, footer included; the next
	// commit encodes over it.
	deltaBuf  []byte
	sealed    []*sealedMem // oldest first: the flush queue
	tables    []*Table     // oldest first; list order is the shadowing authority
	version   int64
	nextSeq   int64
	liveKeys  int64
	tableLive int64 // live keys in the table set alone

	flushes         int64
	compactions     int64
	compactionBytes int64
	stallUs         int64 // cumulative Commit time stalled on the backlog ceiling

	// GetBatchBytes scratch, reused from call to call under mu.
	batchPending []int
	batchHashes  []uint64

	// maintErr latches a background-maintenance failure. The next Commit
	// fails with it, so the query fails and its caller restarts it from the
	// checkpoint — an asynchronous flush error must surface as a restart, never as silent
	// data loss. Load clears it: a reload re-derives everything the failed
	// step would have installed.
	maintErr error

	// pruned records that stale manifests (and snapshots) from an abandoned
	// timeline were swept since the last Load. Manifests are sparse (one per maintenance
	// step), so after a rollback a leftover higher-version manifest could
	// out-anchor the new timeline's older one on a future Load — it must go
	// before the first diverging commit. Pruning waits for that commit:
	// loading an old version for a historical read must not destroy the
	// newer manifests it did not supersede.
	pruned bool

	closed bool
	bgWake chan struct{} // signals the maintenance goroutine; closed on Close
	bgDone chan struct{}
}

// Open prepares a tree rooted at opts.Dir. The tree starts empty; call Load
// to position it at a committed version.
func Open(opts Options) (*Tree, error) {
	if opts.FS == nil || opts.Dir == "" {
		return nil, fmt.Errorf("lsm: Options.FS and Options.Dir are required")
	}
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = defaultMemtableCap
	}
	if opts.BlockBytes <= 0 {
		opts.BlockBytes = defaultBlockBytes
	}
	if opts.MaxTierTables < 2 {
		opts.MaxTierTables = defaultTierTables
	}
	if opts.MaxPendingMemtables <= 0 {
		opts.MaxPendingMemtables = defaultMaxPendingMemtables
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	t := &Tree{fsys: opts.FS, dir: opts.Dir, opts: opts, mem: newMemtable(), version: -1}
	t.builder = newTableBuilder(opts.BlockBytes, bloomBitsPerKey)
	t.sched = opts.Scheduler
	if t.sched == nil {
		if opts.BackgroundCompaction {
			t.sched = asyncScheduler{}
		} else {
			t.sched = syncScheduler{}
		}
	}
	if t.sched.Async() {
		t.bgWake = make(chan struct{}, 1)
		t.bgDone = make(chan struct{})
		go t.maintLoop()
	}
	return t, nil
}

const defaultMaxPendingMemtables = 4

// Load positions the tree at a committed version (-1 = empty): the newest
// manifest at or below it supplies the table set, and the delta-log suffix
// replays on top.
// A missing manifest for the exact version is normal — manifests are
// published per maintenance step, not per commit, and the crash window
// between delta (durable) and manifest is part of the recovery contract.
// A directory the retired map store wrote has no manifests but periodic
// .snapshot files, each the whole state as one record batch: when the
// newest one at or below version is newer than the newest manifest, it is
// the base and only the deltas after it replay.
func (t *Tree) Load(version int64) error {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	l, err := listDir(t.fsys, t.dir)
	if err != nil {
		return err
	}
	t.dropTablesLocked(t.tables)
	t.tables = nil
	t.mem = newMemtable()
	t.sealed = nil
	t.maintErr = nil
	t.pruned = false
	t.version, t.nextSeq, t.memFrom, t.logBytes = version, 0, 0, 0
	t.liveKeys, t.tableLive = 0, 0

	mv, haveManifest := latestAtOrBelow(l.manifests, version)
	if sv, ok := latestAtOrBelow(l.snapshots, version); ok && (!haveManifest || sv > mv) {
		if err := t.replayLocked(fmt.Sprintf("%d.snapshot", sv)); err != nil {
			return err
		}
		t.memFrom = sv + 1
	} else if haveManifest {
		m, err := readManifest(t.fsys, t.dir, mv)
		if err != nil {
			return err
		}
		for _, mt := range m.Tables {
			tbl, err := openTable(t.fsys, tablePath(t.dir, mt.Seq), mt.Seq, t.opts.Cache)
			if err != nil {
				return err
			}
			t.tables = append(t.tables, tbl)
		}
		t.nextSeq, t.memFrom = m.NextSeq, m.LogFrom
		// Start from the table-set count; replay re-derives the memtable's
		// contribution with the same has-key checks the original commits ran.
		t.liveKeys, t.tableLive = m.TableLive, m.TableLive
	}
	for _, dv := range l.deltas {
		if dv < t.memFrom || dv > version {
			continue
		}
		if err := t.replayLocked(fmt.Sprintf("%d.delta", dv)); err != nil {
			return err
		}
	}
	return nil
}

// replayLocked folds one record-batch file of the directory into the
// memtable, counting its bytes into the log the next seal retires.
func (t *Tree) replayLocked(name string) error {
	path := filepath.Join(t.dir, name)
	data, err := t.fsys.ReadFile(path)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	body, err := fsx.Verify(path, data)
	if err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	b, err := DecodeBatch(body)
	if err != nil {
		return fmt.Errorf("lsm: %w: file %s: %v", fsx.ErrCorrupt, path, err)
	}
	t.logBytes += int64(len(data))
	return t.applyLocked(b)
}

// hasLocked reports whether key is live in committed state.
func (t *Tree) hasLocked(key string) (bool, error) {
	if e := t.mem.get(key); e != nil {
		return !e.tomb, nil
	}
	for i := len(t.sealed) - 1; i >= 0; i-- {
		if e := t.sealed[i].mem.get(key); e != nil {
			return !e.tomb, nil
		}
	}
	if len(t.tables) == 0 {
		return false, nil
	}
	kb := keyBytes(key)
	h := keyHash(kb)
	for i := len(t.tables) - 1; i >= 0; i-- {
		_, tomb, ok, err := t.tables[i].get(kb, h)
		if err != nil {
			return false, err
		}
		if ok {
			return !tomb, nil
		}
	}
	return false, nil
}

// applyLocked folds one version's batch into the active memtable, keeping
// the live-key count. An entry that carries what its committer read (Known,
// Live) skips the lookup that would otherwise dominate commit cost; replay
// carries none and runs the same has-key checks the original commits ran or
// were spared. The keys new to the memtable take its next slots, in the
// batch's ascending order, and leave as one run. The batch itself is not
// kept: the committer may reuse it.
func (t *Tree) applyLocked(b Batch) error {
	first := t.mem.len()
	var err error
	for i := range b {
		e := &b[i]
		has := e.Live
		if !e.Known {
			if has, err = t.hasLocked(e.Key); err != nil {
				break
			}
		}
		if has && e.Tomb {
			t.liveKeys--
		} else if !has && !e.Tomb {
			t.liveKeys++
		}
		t.mem.put(e.Key, e.Value, e.Tomb)
	}
	t.mem.addRun(first) // the runs hold every slot, even after an error
	return err
}

// GetBytes returns the committed value for key; the slice aliases internal
// storage and must not be mutated. It is the per-row read path: memtable
// lookups elide the string conversion and table probes take the bytes
// directly, so a lookup allocates nothing.
func (t *Tree) GetBytes(key []byte) ([]byte, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.mem.get(string(key)); e != nil {
		v, ok := e.live()
		return v, ok, nil
	}
	for i := len(t.sealed) - 1; i >= 0; i-- {
		if e := t.sealed[i].mem.get(string(key)); e != nil {
			v, ok := e.live()
			return v, ok, nil
		}
	}
	if len(t.tables) == 0 {
		return nil, false, nil
	}
	h := keyHash(key)
	for i := len(t.tables) - 1; i >= 0; i-- {
		v, tomb, ok, err := t.tables[i].get(key, h)
		if err != nil {
			return nil, false, err
		}
		if ok {
			if tomb {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	return nil, false, nil
}

// GetBatchBytes resolves a vector of keys under ONE lock acquisition,
// probing structure-at-a-time instead of key-at-a-time: all unresolved
// keys sweep the active memtable, then each sealed memtable newest-first,
// then each table newest-first. Per-key shadowing order is identical to
// GetBytes — a key resolves at the newest structure that knows it, and a
// tombstone there is a definitive miss — but the per-structure sweep means
// a batch pays the lock once and each SSTable's bloom filter and index
// stay hot in cache while every remaining key probes them. A key that
// reaches the tables is hashed once, whatever the number of filters it then
// meets. Results land in values/oks positionally (both must be len(keys));
// value slices alias internal storage and must not be mutated.
func (t *Tree) GetBatchBytes(keys [][]byte, values [][]byte, oks []bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// pending holds the positions still unresolved after each structure.
	if cap(t.batchPending) < len(keys) {
		t.batchPending = make([]int, len(keys))
		t.batchHashes = make([]uint64, len(keys))
	}
	pending := t.batchPending[:len(keys)]
	for i := range keys {
		values[i], oks[i] = nil, false
		pending[i] = i
	}
	resolve := func(m *memtable) {
		next := pending[:0]
		for _, i := range pending {
			if e := m.get(string(keys[i])); e != nil {
				values[i], oks[i] = e.live()
				continue
			}
			next = append(next, i)
		}
		pending = next
	}
	resolve(t.mem)
	for s := len(t.sealed) - 1; s >= 0 && len(pending) > 0; s-- {
		resolve(t.sealed[s].mem)
	}
	if len(pending) == 0 || len(t.tables) == 0 {
		return nil
	}
	// hashes is positional like values: pending shrinks, positions do not.
	hashes := t.batchHashes[:len(keys)]
	for _, i := range pending {
		hashes[i] = keyHash(keys[i])
	}
	for ti := len(t.tables) - 1; ti >= 0 && len(pending) > 0; ti-- {
		tbl := t.tables[ti]
		next := pending[:0]
		for _, i := range pending {
			v, tomb, ok, err := tbl.get(keys[i], hashes[i])
			if err != nil {
				return err
			}
			if ok {
				if !tomb {
					values[i], oks[i] = v, true
				}
				continue
			}
			next = append(next, i)
		}
		pending = next
	}
	return nil
}

// Commit is CommitBatch for mutations held in maps; a key in both maps is a
// delete.
func (t *Tree) Commit(version int64, puts map[string][]byte, dels map[string]bool) error {
	return t.CommitBatch(version, BatchOf(puts, dels))
}

// CommitBatch durably applies one version's mutations. An entry's Known/Live
// pair must be a fact read from this tree at its current version: the state
// layer passes the reads its operators already performed, so live-key
// accounting skips a second lookup per mutated key; entries without one fall
// back to a real lookup.
//
// The delta-log write is the durability point and the epoch-commit
// handshake: once it returns, the version is recoverable regardless of what
// background maintenance has or has not done. Everything after — sealing a
// full memtable, flush, compaction, manifest publication — is bookkeeping
// the commit does not wait for, except the MaxPendingMemtables ceiling.
func (t *Tree) CommitBatch(version int64, b Batch) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("lsm: tree is closed")
	}
	if err := t.maintErr; err != nil {
		t.mu.Unlock()
		return fmt.Errorf("lsm: background maintenance failed, reload required: %w", err)
	}
	if version <= t.version {
		t.mu.Unlock()
		return fmt.Errorf("lsm: commit version %d not after current %d", version, t.version)
	}
	if !t.pruned {
		// First commit since Load: the timeline diverges here. Any manifest
		// newer than the loaded version describes the abandoned timeline
		// and must never anchor a future Load — and its table sequences are
		// about to be reused with different contents.
		if err := t.pruneStaleAnchorsLocked(); err != nil {
			t.mu.Unlock()
			return err
		}
		t.pruned = true
	}
	path := filepath.Join(t.dir, fmt.Sprintf("%d.delta", version))
	t.deltaBuf = fsx.Seal(EncodeBatch(t.deltaBuf, b))
	if err := fsx.WriteAtomic(t.fsys, path, t.deltaBuf, 0o644); err != nil {
		t.mu.Unlock()
		return fmt.Errorf("lsm: %w", err)
	}
	t.logBytes += int64(len(t.deltaBuf))
	prev := t.version
	if err := t.applyLocked(b); err != nil {
		t.mu.Unlock()
		return err
	}
	t.version = version
	// The memtable seals when it is full, and also when the log it holds
	// is: overwrites of a small state fill the log, not the memtable, and
	// until a seal the log can be neither collected nor skipped on restart.
	if max(t.mem.bytes, t.logBytes) >= t.opts.MemtableBytes {
		t.sealLocked()
	}
	backlog := len(t.sealed)
	async := t.sched.Async()
	if async && backlog > 0 && !t.closed {
		select {
		case t.bgWake <- struct{}{}:
		default:
		}
	}
	t.mu.Unlock()

	var err error
	if async {
		if backlog <= t.opts.MaxPendingMemtables {
			return nil
		}
		// Hard ceiling: maintenance is not keeping up with intake. Run
		// flush steps on the committing goroutine until the queue is back
		// under the ceiling — the last-resort synchronous fallback. The
		// stall is metered so admission control can react before the next
		// one.
		start := time.Now()
		err = t.drainTo(t.opts.MaxPendingMemtables)
		t.mu.Lock()
		t.stallUs += time.Since(start).Microseconds()
		t.mu.Unlock()
	} else {
		// Inline modes: the scheduler decides how much maintenance runs at
		// this commit boundary; the ceiling still bounds the backlog.
		err = t.runInlineSteps(t.sched.StepsAfterCommit(backlog))
		if err == nil {
			err = t.drainTo(t.opts.MaxPendingMemtables)
		}
	}
	if err != nil {
		// The delta is durable and the memtable absorbed the batch, but the
		// commit as a whole failed: restore the prior version so the tree
		// does not claim a version its caller never saw commit. In-memory
		// state is not unwound — callers must reload before retrying.
		t.mu.Lock()
		t.version = prev
		t.mu.Unlock()
		return err
	}
	return nil
}

// pruneStaleAnchorsLocked removes manifests and snapshots newer than the
// current version: both are recovery anchors, and one left from the
// abandoned timeline would out-anchor the new one. A crash mid-prune is
// safe: recovery reloads a version at or below the current one, whose
// anchor search ignores newer files, and the next first-commit prunes
// whatever remains.
func (t *Tree) pruneStaleAnchorsLocked() error {
	l, err := listDir(t.fsys, t.dir)
	if err != nil {
		return err
	}
	for _, mv := range l.manifests {
		if mv > t.version {
			if err := t.fsys.Remove(manifestPath(t.dir, mv)); err != nil {
				return fmt.Errorf("lsm: pruning stale manifest %d: %w", mv, err)
			}
		}
	}
	for _, sv := range l.snapshots {
		if sv > t.version {
			if err := t.fsys.Remove(filepath.Join(t.dir, fmt.Sprintf("%d.snapshot", sv))); err != nil {
				return fmt.Errorf("lsm: pruning stale snapshot %d: %w", sv, err)
			}
		}
	}
	return nil
}

// sealLocked freezes the active memtable into the flush queue. The
// replacement is the last flushed memtable when there is one — memtables
// seal at one size, so its map and slots fit the next fill without growing.
func (t *Tree) sealLocked() {
	t.sealed = append(t.sealed, &sealedMem{
		mem:    t.mem,
		from:   t.memFrom,
		to:     t.version,
		liveAt: t.liveKeys,
	})
	if t.mem, t.spare = t.spare, nil; t.mem == nil {
		t.mem = newMemtable()
	}
	t.memFrom, t.logBytes = t.version+1, 0
}

// logFromLocked is the first delta version not yet covered by the table
// set: the replay floor every manifest records.
func (t *Tree) logFromLocked() int64 {
	if len(t.sealed) > 0 {
		return t.sealed[0].from
	}
	return t.memFrom
}

// runInlineSteps runs up to n maintenance steps (all pending work if n < 0)
// on the calling goroutine.
func (t *Tree) runInlineSteps(n int) error {
	for i := 0; n < 0 || i < n; i++ {
		did, err := t.step()
		if err != nil {
			return err
		}
		if !did {
			return nil
		}
	}
	return nil
}

// drainTo runs maintenance steps until the flush backlog is at most max.
func (t *Tree) drainTo(max int) error {
	for {
		t.mu.Lock()
		if err := t.maintErr; err != nil {
			t.mu.Unlock()
			return fmt.Errorf("lsm: background maintenance failed, reload required: %w", err)
		}
		if len(t.sealed) <= max || t.closed {
			t.mu.Unlock()
			return nil
		}
		t.mu.Unlock()
		did, err := t.step()
		if err != nil {
			return err
		}
		if !did {
			return nil
		}
	}
}

// step performs one maintenance step: flush the oldest sealed memtable, or,
// with nothing queued, one compaction merge — then publishes a manifest
// pinning the result. It reports whether it did anything. The heavy work
// (merging, block building, the table write) runs outside t.mu against
// immutable inputs; only the snapshot and the install take the lock.
func (t *Tree) step() (bool, error) {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	t.mu.Lock()
	if t.closed || t.maintErr != nil {
		// An in-flight step finishes past this point; after Close no new
		// step starts, so Close waits for at most one install.
		t.mu.Unlock()
		return false, nil
	}
	if len(t.sealed) > 0 {
		sm := t.sealed[0]
		seq := t.nextSeq
		t.mu.Unlock()
		return true, t.flushStep(sm, seq)
	}
	i, j := t.pickRunLocked()
	if i < 0 {
		t.mu.Unlock()
		return false, nil
	}
	run := append([]*Table(nil), t.tables[i:j]...)
	seq := t.nextSeq
	t.mu.Unlock()
	return true, t.compactStep(i, j, run, seq)
}

// flushStep writes one sealed memtable as the newest SSTable and installs
// it. Tombstones are kept — they must keep shadowing older tables until
// compaction can prove nothing older remains. Between snapshot and install
// only Commit can run (steps and reloads are serialized by maintMu), and
// Commit never touches the sealed queue's head or the table list, so the
// install point sees exactly the snapshotted structures.
//
// The install is also where the flushed memtable is emptied and kept as the
// next active one: readers reach a sealed memtable only through t.sealed and
// only under t.mu, so once it has left the queue nothing can still hold it.
// (Values they took from it earlier are their own slices; emptying the slots
// does not touch them.)
func (t *Tree) flushStep(sm *sealedMem, seq int64) error {
	path := tablePath(t.dir, seq)
	if err := fsx.WriteAtomic(t.fsys, path, t.buildFlush(sm.mem), 0o644); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	tbl, err := openTable(t.fsys, path, seq, t.opts.Cache)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.nextSeq = seq + 1
	t.tables = append(t.tables, tbl)
	t.sealed = t.sealed[1:]
	sm.mem.reset()
	t.spare = sm.mem
	t.tableLive = sm.liveAt
	t.flushes++
	m := t.manifestLocked()
	t.mu.Unlock()
	return writeManifest(t.fsys, t.dir, m)
}

// buildFlush renders a sealed memtable as a table image in the tree's
// builder, merging its runs: each entry is read from its slot and written
// once.
func (t *Tree) buildFlush(mem *memtable) []byte {
	t.builder.reset(mem.bytes, int64(mem.len()))
	for mi := newMergeIter(mem.iters("")); mi.next(); {
		t.builder.add(mi.entry())
	}
	return t.builder.finish()
}

// compactStep merges one run of tables into a replacement and installs it.
// The inputs stay readable (and on disk) throughout: they leave the table
// list only at the install point, which is also when their cached blocks
// are evicted — the moment the manifest stops referencing them. Input files
// are NOT deleted; older manifests still reference them, and Maintain
// garbage-collects unreferenced tables once retention allows.
func (t *Tree) compactStep(i, j int, run []*Table, seq int64) error {
	srcs := make([]kvIter, 0, len(run))
	var inBytes, inEntries int64
	for k := len(run) - 1; k >= 0; k-- { // newest first
		srcs = append(srcs, run[k].mergeInput())
		inBytes += run[k].size
		inEntries += run[k].entries
	}
	mi := newMergeIter(srcs)
	// Tombstones drop only when the run includes the oldest table, i.e.
	// when nothing older could be resurrected.
	dropTombs := i == 0
	b := t.builder
	b.reset(inBytes, inEntries)
	for mi.next() {
		k, v, tomb := mi.entry()
		if tomb && dropTombs {
			continue
		}
		b.add(k, v, tomb)
	}
	if err := mi.error(); err != nil {
		return err
	}
	var out []*Table
	if b.entries > 0 {
		path := tablePath(t.dir, seq)
		if err := fsx.WriteAtomic(t.fsys, path, b.finish(), 0o644); err != nil {
			return fmt.Errorf("lsm: %w", err)
		}
		tbl, err := openTable(t.fsys, path, seq, t.opts.Cache)
		if err != nil {
			return err
		}
		out = []*Table{tbl}
	}
	t.mu.Lock()
	if b.entries > 0 {
		t.nextSeq = seq + 1
	}
	merged := make([]*Table, 0, len(t.tables)-(j-i)+1)
	merged = append(merged, t.tables[:i]...)
	merged = append(merged, out...)
	merged = append(merged, t.tables[j:]...)
	t.tables = merged
	t.compactions++
	t.compactionBytes += inBytes
	m := t.manifestLocked()
	t.dropTablesLocked(run)
	t.mu.Unlock()
	return writeManifest(t.fsys, t.dir, m)
}

// dropTablesLocked evicts the cached blocks of tables leaving the table list.
// A block is cached under its open table's number, and a table is opened
// once per install, so a file written later under the same path — a sequence
// number reused after a rollback — starts with nothing cached.
func (t *Tree) dropTablesLocked(tables []*Table) {
	if t.opts.Cache == nil {
		return
	}
	for _, tbl := range tables {
		t.opts.Cache.dropTable(tbl)
	}
}

// manifestLocked snapshots the manifest describing the current install.
func (t *Tree) manifestLocked() manifest {
	m := manifest{
		Version:   t.version,
		NextSeq:   t.nextSeq,
		LogFrom:   t.logFromLocked(),
		LiveKeys:  t.liveKeys,
		TableLive: t.tableLive,
	}
	for _, tbl := range t.tables {
		m.Tables = append(m.Tables, manifestTable{Seq: tbl.seq, Bytes: tbl.size, Entries: tbl.entries})
	}
	return m
}

// maintLoop is the supervised background maintenance goroutine: it drains
// the flush queue and merges a due run whenever a commit signals work,
// publishing a manifest after every step. A failure (or panic) is latched
// into maintErr and fails the next Commit — the query fails and its caller
// restarts it from the checkpoint; background maintenance must never decay
// into silent data loss.
func (t *Tree) maintLoop() {
	defer close(t.bgDone)
	defer func() {
		if r := recover(); r != nil {
			t.mu.Lock()
			if t.maintErr == nil {
				t.maintErr = fmt.Errorf("lsm: maintenance panic: %v", r)
			}
			t.mu.Unlock()
		}
	}()
	for range t.bgWake {
		for {
			did, err := t.step()
			if err != nil {
				t.mu.Lock()
				if t.maintErr == nil {
					t.maintErr = err
				}
				t.mu.Unlock()
				break
			}
			if !did {
				break
			}
		}
	}
}

// compactionSizeRatio bounds how much larger than everything newer a table
// may be and still join a merge run. Above 1 it is what makes the table
// count logarithmic: where a run stops, the next older table outweighs the
// whole run by more than this factor.
const compactionSizeRatio = 2

// pickRunLocked selects the tables to merge, as a half-open range of
// t.tables, or [-1,-1) when nothing is due. The run is always a suffix: it
// starts at the newest table and takes the next older one while that table
// is no larger than compactionSizeRatio times the run so far, and it is due
// once it is MaxTierTables wide. Only age-adjacent tables may merge —
// skipping one in the middle would reorder shadowing — and a suffix is
// age-adjacent by construction.
//
// Sizes are compared with each other, never with fixed bands, so flushes of
// any size pattern merge. And since a merge's output is again the newest
// table, the list is a stack: whenever maintenance has caught up it is made
// of groups narrower than MaxTierTables, each older group more than
// compactionSizeRatio times the bytes of the one above it — at most
// MaxTierTables-1 tables per doubling of the data.
func (t *Tree) pickRunLocked() (int, int) {
	n := len(t.tables)
	if n < t.opts.MaxTierTables {
		return -1, -1
	}
	i, sum := n-1, t.tables[n-1].size
	for i > 0 && t.tables[i-1].size <= compactionSizeRatio*sum {
		i--
		sum += t.tables[i].size
	}
	if n-i < t.opts.MaxTierTables {
		return -1, -1
	}
	return i, n
}

// Range invokes fn for every live key in [from, to] ascending; empty bounds
// are open. Tombstones and shadowed versions never surface. Key and value
// are views of the tree's storage (a block, a memtable entry): fn may keep
// them, and must not write through them.
func (t *Tree) Range(from, to string, fn func(key, value []byte) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	srcs := t.mem.iters(from)
	for i := len(t.sealed) - 1; i >= 0; i-- {
		srcs = append(srcs, t.sealed[i].mem.iters(from)...)
	}
	for i := len(t.tables) - 1; i >= 0; i-- {
		srcs = append(srcs, t.tables[i].iter(from))
	}
	mi := newMergeIter(srcs)
	for mi.next() {
		k, v, tomb := mi.entry()
		if to != "" && cmpStringBytes(to, k) < 0 {
			break
		}
		if tomb {
			continue
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return mi.error()
}

// NumKeys is the live key count, maintained incrementally — O(1), no scan.
func (t *Tree) NumKeys() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.liveKeys
}

// Stats snapshots the tree's shape.
func (t *Tree) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Stats{
		Version:            t.version,
		LiveKeys:           t.liveKeys,
		MemtableBytes:      t.mem.bytes,
		MemtableKeys:       int64(t.mem.len()),
		Tables:             int64(len(t.tables)),
		Flushes:            t.flushes,
		Compactions:        t.compactions,
		CompactionBytes:    t.compactionBytes,
		FlushBacklog:       int64(len(t.sealed)),
		MaintenanceStallUs: t.stallUs,
	}
	for _, sm := range t.sealed {
		s.MemtableBytes += sm.mem.bytes
		s.MemtableKeys += int64(sm.mem.len())
	}
	for _, tbl := range t.tables {
		s.TableBytes += tbl.size
	}
	return s
}

// Maintain garbage-collects files no committed version >= keepFrom needs:
// manifests older than the recovery anchor for keepFrom, the delta-log
// prefix absorbed by every surviving manifest, and SSTables referenced by
// none of them. It holds maintMu so GC never interleaves with a maintenance
// step — a freshly written table that has not installed yet must not be
// swept. The open tree's own tables stay pinned; a table it removes left the
// table list, and the block cache with it, at an earlier install or Load.
// Returns the removed file names.
func (t *Tree) Maintain(keepFrom int64) ([]string, error) {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	t.mu.Lock()
	pin := map[int64]bool{}
	for _, tbl := range t.tables {
		pin[tbl.seq] = true
	}
	logFloor := t.logFromLocked()
	t.mu.Unlock()
	return maintainDir(t.fsys, t.dir, keepFrom, pin, logFloor)
}

// Close releases the tree. In background mode the maintenance goroutine is
// stopped and an in-flight step is drained to completion — its manifest is
// either fully published or never started, not partial — before Close
// returns and the directory is reusable. Sealed-but-unflushed memtables are
// simply dropped: their deltas are durable and replay on the next Load.
// Cached blocks are evicted last, after the final install.
func (t *Tree) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	if t.bgWake != nil {
		// Closing under mu pairs with the wake send in Commit, which also
		// holds mu: a send on a closed channel is impossible.
		close(t.bgWake)
	}
	t.mu.Unlock()
	if t.bgDone != nil {
		<-t.bgDone
	}
	t.maintMu.Lock()
	t.mu.Lock()
	t.dropTablesLocked(t.tables)
	t.mu.Unlock()
	t.maintMu.Unlock()
}
