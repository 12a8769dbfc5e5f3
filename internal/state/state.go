// Package state implements Structured Streaming's versioned state store
// (§6.1 of the paper): the durable key-value storage behind stateful
// operators (aggregations, dedup, stream joins, mapGroupsWithState). Each
// (operator, partition) pair owns one store. Commits are keyed by epoch:
// committing version v durably records that version's mutations, and any
// committed version can be reloaded — which is what makes recovery-to-epoch
// and manual rollback (§7.2) work.
//
// Every store is an embedded log-structured merge tree (internal/lsm): each
// commit writes the version's delta file, the working set stays in the
// memtable and block cache, and state beyond the memtable budget spills to
// bloom-filtered SSTables, with per-version manifests keeping every
// committed version loadable.
package state

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"structream/internal/fsx"
	"structream/internal/lsm"
)

// ID identifies one operator's state for one partition.
type ID struct {
	Operator  string
	Partition int
}

// String renders the ID for paths and errors.
func (id ID) String() string { return fmt.Sprintf("%s/%d", id.Operator, id.Partition) }

// Backend names the state storage engine. There is one, the LSM tree; the
// type is declared only for Provider.Backend.
type Backend string

// BackendLSM names the one storage engine.
const BackendLSM Backend = "lsm"

// Provider manages the stores under one checkpoint directory.
type Provider struct {
	fs  fsx.FS
	dir string
	// Backend is ignored: every store is the LSM tree. The field is declared
	// only because benchmark/isolated.go (frozen) sets it.
	Backend Backend
	// MemtableBytes is each store's memtable budget (0 = the lsm package
	// default, 4 MiB): state beyond it spills to SSTables, and a store seals
	// its memtable once the state or the delta log it holds reaches it.
	MemtableBytes int64
	// BlockCacheBytes bounds the lsm block cache shared across this
	// provider's stores (0 = 32 MiB).
	BlockCacheBytes int64
	// BackgroundMaintenance moves each lsm tree's flush/compaction onto a
	// supervised background goroutine, so Commit waits only on its own
	// delta's durability. The engine enables this by default; the zero
	// value keeps maintenance synchronous inside Commit.
	BackgroundMaintenance bool
	// Scheduler overrides lsm maintenance scheduling (crash-sweep tests
	// inject a seeded deterministic scheduler). nil = derive from
	// BackgroundMaintenance.
	Scheduler lsm.MaintenanceScheduler
	// ReadOnly marks the provider as a point-in-time reader of a checkpoint
	// another (possibly live) provider owns: Open skips directory creation
	// and orphaned-tmp reclamation — mutating a live query's store
	// directory from a concurrent reader could delete a temp file the
	// engine is about to rename into place — and callers must not Commit.
	// Loads racing the owner's GC or compaction may fail; treat such
	// errors as transient and retry.
	ReadOnly bool

	// mu guards only the maps and flags below; it is never held across
	// tree I/O. Open serializes per store through locks[id] instead, so
	// the pool's reduce tasks can load and reconstruct different
	// partitions' stores concurrently without queueing behind one global
	// lock. Lock order where both are taken: locks[id] before mu.
	mu         sync.Mutex
	cache      map[ID]*Store
	locks      map[ID]*sync.Mutex
	closed     bool
	blockCache *lsm.BlockCache

	// Observability counters (§7.4): how often Open was served by the live
	// cached store vs. reconstructed from disk, and how many delta files
	// commits have written. Exposed via Stats for the per-operator state
	// section of QueryProgress.
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	deltasWritten atomic.Int64
}

// ProviderStats is a point-in-time snapshot of the provider's activity
// counters. The tree fields aggregate over the provider's live stores.
type ProviderStats struct {
	CacheHits     int64
	CacheMisses   int64
	DeltasWritten int64

	MemtableBytes    int64 // unflushed state across stores (incl. sealed memtables)
	SSTables         int64
	SSTableBytes     int64
	Flushes          int64
	Compactions      int64
	CompactionBytes  int64 // cumulative bytes rewritten by compaction
	BlockCacheHits   int64
	BlockCacheMisses int64
	BlockCacheBytes  int64 // resident cached block payload
	// FlushBacklog counts sealed memtables awaiting background flush across
	// stores; MaintenanceStallUs is cumulative commit time spent blocked on
	// the per-tree backlog ceiling running maintenance synchronously.
	FlushBacklog       int64
	MaintenanceStallUs int64
}

// Stats reports the provider's cumulative cache and file activity.
func (p *Provider) Stats() ProviderStats {
	st := ProviderStats{
		CacheHits:     p.cacheHits.Load(),
		CacheMisses:   p.cacheMisses.Load(),
		DeltasWritten: p.deltasWritten.Load(),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range p.cache {
		ts := s.tree.Stats()
		st.MemtableBytes += ts.MemtableBytes
		st.SSTables += ts.Tables
		st.SSTableBytes += ts.TableBytes
		st.Flushes += ts.Flushes
		st.Compactions += ts.Compactions
		st.CompactionBytes += ts.CompactionBytes
		st.FlushBacklog += ts.FlushBacklog
		st.MaintenanceStallUs += ts.MaintenanceStallUs
	}
	if p.blockCache != nil {
		cs := p.blockCache.Stats()
		st.BlockCacheHits = cs.Hits
		st.BlockCacheMisses = cs.Misses
		st.BlockCacheBytes = cs.Bytes
	}
	return st
}

// NewProvider creates a provider rooted at dir on the hardened real
// filesystem.
func NewProvider(dir string) *Provider { return NewProviderFS(fsx.Real(), dir) }

// NewProviderFS creates a provider rooted at dir on an explicit filesystem
// (fault injection in tests, alternate durability policies).
func NewProviderFS(fsys fsx.FS, dir string) *Provider {
	return &Provider{fs: fsys, dir: dir, cache: map[ID]*Store{}}
}

// Dir returns the provider's root directory.
func (p *Provider) Dir() string { return p.dir }

func (p *Provider) storeDir(id ID) string {
	return filepath.Join(p.dir, "state", id.Operator, strconv.Itoa(id.Partition))
}

// Open returns the store for id positioned at the given committed version.
// Version -1 means empty (before any epoch). When the cached live store is
// already at that version it is reused without touching disk; otherwise —
// including after a failed commit, which may have left the tree's
// in-memory structures with partially absorbed changes — the state is
// reconstructed from the tree's files.
func (p *Provider) Open(id ID, version int64) (*Store, error) {
	lk, err := p.lockFor(id)
	if err != nil {
		return nil, err
	}
	lk.Lock()
	defer lk.Unlock()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("state: provider for %s is closed", p.dir)
	}
	s, cached := p.cache[id]
	p.mu.Unlock()

	if cached && s.version == version && !s.dirty {
		p.cacheHits.Add(1)
		return s, nil
	}
	p.cacheMisses.Add(1)
	dir := p.storeDir(id)
	if !p.ReadOnly {
		if err := p.fs.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("state: %w", err)
		}
		// Reclaim orphaned temp files from an atomic write a crash
		// interrupted, so they cannot accumulate across restarts.
		if _, err := fsx.CleanupTmp(p.fs, dir); err != nil {
			return nil, fmt.Errorf("state: reclaiming orphaned tmp files: %w", err)
		}
	}
	if !cached {
		tree, err := p.openTree(dir)
		if err != nil {
			return nil, err
		}
		s = &Store{id: id, dir: dir, provider: p, tree: tree, version: -1}
	}
	s.Abort()
	if err := s.tree.Load(version); err != nil {
		if !cached {
			s.tree.Close()
		}
		return nil, fmt.Errorf("state: %w", err)
	}
	s.version, s.dirty = version, false

	p.mu.Lock()
	if p.closed {
		// Close ran while we were loading. A cached store is on Close's
		// list — it closes the tree once it wins our id lock; a fresh
		// one is ours alone to release.
		p.mu.Unlock()
		if !cached {
			s.tree.Close()
		}
		return nil, fmt.Errorf("state: provider for %s is closed", p.dir)
	}
	p.cache[id] = s
	p.mu.Unlock()
	return s, nil
}

// lockFor returns the per-store open lock for id, creating it on first
// use. The lock outlives evictions: a store's disk directory is a
// singleton even when its in-memory incarnation is not.
func (p *Provider) lockFor(id ID) (*sync.Mutex, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("state: provider for %s is closed", p.dir)
	}
	lk := p.locks[id]
	if lk == nil {
		if p.locks == nil {
			p.locks = map[ID]*sync.Mutex{}
		}
		lk = &sync.Mutex{}
		p.locks[id] = lk
	}
	return lk, nil
}

func (p *Provider) openTree(dir string) (*lsm.Tree, error) {
	// Concurrent Opens of different stores share the lazily built block
	// cache; creation needs p.mu, which Open does not hold here.
	p.mu.Lock()
	if p.blockCache == nil {
		capBytes := p.BlockCacheBytes
		if capBytes <= 0 {
			capBytes = 32 << 20
		}
		p.blockCache = lsm.NewBlockCache(capBytes)
	}
	cache := p.blockCache
	p.mu.Unlock()
	tree, err := lsm.Open(lsm.Options{
		FS:                   p.fs,
		Dir:                  dir,
		MemtableBytes:        p.MemtableBytes,
		Cache:                cache,
		BackgroundCompaction: p.BackgroundMaintenance,
		Scheduler:            p.Scheduler,
	})
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	return tree, nil
}

// Close releases every live store and rejects further Opens. Stopped
// queries must close their provider, otherwise each restart would keep the
// previous run's stores — and their block-cache residency — alive forever.
func (p *Provider) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	type closing struct {
		lk *sync.Mutex
		s  *Store
	}
	var list []closing
	for id, s := range p.cache {
		list = append(list, closing{p.locks[id], s})
		delete(p.cache, id)
	}
	p.mu.Unlock()
	// Trees close outside p.mu but under each store's open lock, so an Open
	// that was mid-load when we flipped closed finishes (and fails at its
	// own closed re-check) before its tree is torn down.
	for _, c := range list {
		if c.lk != nil {
			c.lk.Lock()
		}
		c.s.tree.Close()
		if c.lk != nil {
			c.lk.Unlock()
		}
	}
}

// Evict drops one store from the live cache, releasing its resources. The
// next Open reconstructs it from disk.
func (p *Provider) Evict(id ID) {
	p.mu.Lock()
	lk := p.locks[id]
	p.mu.Unlock()
	if lk != nil {
		// Respect the lock order (locks[id] before mu) and wait out any
		// in-flight Open of the same store.
		lk.Lock()
		defer lk.Unlock()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.cache[id]; ok {
		s.tree.Close()
		delete(p.cache, id)
	}
}

// Maintenance deletes state files no longer needed to reconstruct any
// version newer than keepFrom, across all stores on disk, by manifest and
// table reachability. A directory with no manifest yet holds nothing to
// delete: its delta log since version 0 is what reconstructs it.
func (p *Provider) Maintenance(keepFrom int64) error {
	dirs := map[string]bool{}
	err := fsx.Walk(p.fs, filepath.Join(p.dir, "state"), func(path string, d fs.DirEntry) error {
		if strings.HasSuffix(d.Name(), ".manifest") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	byDir := map[string]*Store{}
	p.mu.Lock()
	for _, s := range p.cache {
		byDir[s.dir] = s
	}
	p.mu.Unlock()
	for dir := range dirs {
		if s, ok := byDir[dir]; ok {
			// The live tree prunes its own directory so its open tables
			// stay pinned and their cached blocks are dropped with them.
			if _, err := s.tree.Maintain(keepFrom); err != nil {
				return err
			}
			continue
		}
		if _, err := lsm.MaintainDir(p.fs, dir, keepFrom); err != nil {
			return err
		}
	}
	return nil
}

// parseStateFile reads the version a delta file is named for, or a
// snapshot's: a checkpoint the retired map store wrote still holds them.
func parseStateFile(name string) (version int64, ok bool) {
	for _, suffix := range []string{".delta", ".snapshot"} {
		if strings.HasSuffix(name, suffix) {
			v, err := strconv.ParseInt(strings.TrimSuffix(name, suffix), 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

var errStopIterate = errors.New("state: stop iteration")

// Store is the live state for one (operator, partition). It is not safe
// for concurrent use; each partition is processed by one task at a time.
type Store struct {
	id       ID
	dir      string
	provider *Provider
	tree     *lsm.Tree
	version  int64 // last committed version

	// dirty marks a store whose commit failed partway: the tree's
	// in-memory structures may have absorbed some of the batch even though
	// the version never advanced, so the next Open must reconstruct the
	// state from disk instead of reusing the live store. A retried epoch
	// that reused it would read half-applied state (and trip the tree's own
	// version guard with a misleading error).
	dirty bool

	// table is the epoch's one record of every key the operator has written:
	// index finds a key's slot in it. A slot holds the staged mutation and
	// what its first write said of the key's committed existence, so each
	// write is one lookup and each distinct key is copied once. Reads only
	// look: a key that is read and never written leaves no slot. Commit
	// sorts the slots into the version's delta and empties the table; Abort
	// and Open drop it.
	index map[string]int32
	table []slot
	// pass numbers the Iterate calls, for slot.seen.
	pass uint32
	// probes counts slotFor's index lookups; tests read it.
	probes int64
	// keys is the chunk the table's key strings are cut from (lsm.CutKey):
	// one allocation per 64 KiB of keys, not one per key. A full chunk stays
	// reachable for as long as one of its keys does, which is until the
	// Commit that empties the table — the tree's memtable copies the keys it
	// keeps.
	keys strings.Builder
	// batch and handles are Commit's delta and its sort scratch, kept from
	// epoch to epoch.
	batch   lsm.Batch
	handles [][2]uint64

	// err latches the first tree read failure (e.g. a corrupt SSTable
	// block). Get keeps its (value, ok) signature for operator code, so the
	// failure surfaces at Commit, failing the epoch instead of silently
	// committing results computed from wrong state.
	err error
}

// slot is one key of the staging table. The embedded entry is the staged
// put (Value) or delete (Tomb); its Known/Live pair is what the key's first
// write this epoch said of its committed existence, when that write said
// anything (PutNew, PutLive, RemoveLive), and what NumKeys looked up
// otherwise. The table is dropped whenever committed state can change
// underneath (commit, abort, reload).
type slot struct {
	lsm.Entry
	seen uint32 // the Iterate pass that met the key in committed state
}

// ID returns the store's identity.
func (s *Store) ID() ID { return s.id }

// slotFor returns key's slot and whether the epoch's first write of the key
// made it — the one place a key is copied.
func (s *Store) slotFor(key []byte) (e *slot, fresh bool) {
	s.probes++
	// The string conversion in the map index expression is allocation-elided.
	if i, ok := s.index[string(key)]; ok {
		return &s.table[i], false
	}
	if s.index == nil {
		s.index = map[string]int32{}
	}
	k := lsm.CutKey(&s.keys, key)
	s.index[k] = int32(len(s.table))
	s.table = append(s.table, slot{Entry: lsm.Entry{Key: k}})
	return &s.table[len(s.table)-1], true
}

// staged returns key's staged mutation, nil when the epoch has not written
// the key. It only looks: the table is not touched.
func (s *Store) staged(key []byte) *slot {
	if i, ok := s.index[string(key)]; ok {
		return &s.table[i]
	}
	return nil
}

// Get returns the value for key, honoring uncommitted changes. A tree read
// error reports absent and latches the error for Commit.
func (s *Store) Get(key []byte) ([]byte, bool) {
	if e := s.staged(key); e != nil {
		return e.Value, !e.Tomb
	}
	v, ok, err := s.tree.GetBytes(key)
	if err != nil {
		s.fail(err)
		return nil, false
	}
	return v, ok
}

// GetBatch resolves a vector of keys in one pass: staged mutations answer
// first (exactly like Get), and every remaining key goes to the tree in one
// batched lookup, which pays the lock and each structure's probes once for
// the batch. Results are positionally aligned with keys; duplicate keys are
// allowed and resolve independently. A tree read error reports the affected
// keys absent and latches the error for Commit, matching Get's contract.
// Like Get it stages nothing and remembers nothing: a caller that writes a
// key it read says what the read found with the write (PutNew, PutLive,
// RemoveLive).
func (s *Store) GetBatch(keys [][]byte) (values [][]byte, oks []bool) {
	if len(s.table) == 0 {
		return s.lookup(keys) // nothing staged: the tree answers every key
	}
	values = make([][]byte, len(keys))
	oks = make([]bool, len(keys))
	needIdx := make([]int, 0, len(keys))
	needKeys := make([][]byte, 0, len(keys))
	for i, key := range keys {
		if e := s.staged(key); e != nil {
			values[i], oks[i] = e.Value, !e.Tomb
			continue
		}
		needIdx = append(needIdx, i)
		needKeys = append(needKeys, key)
	}
	if len(needIdx) == 0 {
		return values, oks
	}
	bv, bok := s.lookup(needKeys)
	for j, i := range needIdx {
		values[i], oks[i] = bv[j], bok[j]
	}
	return values, oks
}

// lookup reads committed state for keys into slices of its own; a read error
// reports every key absent and latches the error.
func (s *Store) lookup(keys [][]byte) ([][]byte, []bool) {
	values, oks := make([][]byte, len(keys)), make([]bool, len(keys))
	if err := s.tree.GetBatchBytes(keys, values, oks); err != nil {
		s.fail(err)
		clear(values)
		clear(oks)
	}
	return values, oks
}

// ApplyBatch reads a vector of keys with one batched tree probe and
// stages merge(i, existing, ok) as each key's new value. A nil result from
// merge stages a deletion. Duplicate keys all observe the pre-batch state;
// callers that need read-your-write semantics within the batch must
// deduplicate first. Each write says what the read found.
func (s *Store) ApplyBatch(keys [][]byte, merge func(i int, existing []byte, ok bool) []byte) {
	values, oks := s.GetBatch(keys)
	for i, key := range keys {
		if v := merge(i, values[i], oks[i]); v != nil {
			s.stageKnown(key, v, false, oks[i])
		} else if oks[i] {
			s.RemoveLive(key)
		} else {
			s.Remove(key)
		}
	}
}

func (s *Store) fail(err error) {
	if s.err == nil {
		s.err = fmt.Errorf("state: %w", err)
	}
}

// Put stages a key/value write for the current epoch. The store retains
// the value slice — callers must not mutate it afterward. (Every operator
// passes a freshly encoded buffer; copying it again here would double the
// hot path's allocation rate.)
func (s *Store) Put(key, value []byte) {
	e, _ := s.slotFor(key)
	e.Value, e.Tomb = value, false
}

// Remove stages a deletion.
func (s *Store) Remove(key []byte) {
	e, _ := s.slotFor(key)
	e.Value, e.Tomb = nil, true
}

// PutNew, PutLive and RemoveLive are the writes that say what their caller
// knows of the key in committed state, because it read the key (GetBatch)
// or one derived from it, or made the key new by construction (a join's
// next entry index): PutNew puts a key committed state does not hold,
// PutLive one it holds, RemoveLive deletes one it holds. The fact spares
// Commit and NumKeys the lookup they would otherwise pay for the key (a
// sweep over the memtables and every SSTable), and it costs nothing beyond the
// write's one staging lookup. Only the epoch's first write of a key can
// state it — a later one's read may have been answered by the staged write,
// which says nothing of committed state — and a wrong claim can skew the
// key count, never stored data.
func (s *Store) PutNew(key, value []byte) { s.stageKnown(key, value, false, false) }

// PutLive puts a key committed state holds; see PutNew.
func (s *Store) PutLive(key, value []byte) { s.stageKnown(key, value, false, true) }

// RemoveLive deletes a key committed state holds; see PutNew.
func (s *Store) RemoveLive(key []byte) { s.stageKnown(key, nil, true, true) }

// stageKnown stages a write whose caller vouches that the key is (live) or
// is not in committed state.
func (s *Store) stageKnown(key, value []byte, tomb, live bool) {
	e, fresh := s.slotFor(key)
	if fresh {
		e.Known, e.Live = true, live
	}
	e.Value, e.Tomb = value, tomb
}

// Iterate visits every live key/value (committed plus staged), stopping
// early when fn returns false: committed keys in ascending order, each
// overlaid with its staged write, then the staged puts new to committed
// state in staging order.
func (s *Store) Iterate(fn func(key, value []byte) bool) {
	stopped := false
	s.pass++
	err := s.scan(nil, nil, func(k, v []byte) bool {
		if e := s.staged(k); e != nil {
			if e.Tomb {
				return true
			}
			e.seen, v = s.pass, e.Value
		}
		stopped = !fn(k, v)
		return !stopped
	})
	if err != nil {
		s.fail(err)
		return
	}
	// What is left are the staged puts committed state does not hold. fn
	// may stage more while it runs, so the table is walked by position.
	for i := 0; i < len(s.table) && !stopped; i++ {
		if e := &s.table[i]; !e.Tomb && e.seen != s.pass {
			stopped = !fn([]byte(e.Key), e.Value)
		}
	}
}

// Range visits the live keys in [from, to) in ascending key order — committed
// state overlaid with staged puts and deletes exactly as Iterate does —
// stopping early when fn returns false. nil bounds are open. The staged puts
// inside the bounds are picked out of the table and ordered per call: a walk
// of the table, and a sort only of what the window holds (for an eviction
// scan, the epoch's late rows). It memoizes nothing about the keys it
// yields, and fn may keep the key slice it is handed.
func (s *Store) Range(from, to []byte, fn func(key, value []byte) bool) {
	var staged lsm.Batch
	for i := range s.table {
		e := &s.table[i]
		if !e.Tomb && inBounds(e.Key, from, to) {
			staged = append(staged, e.Entry)
		}
	}
	s.handles = lsm.SortBatch(staged, s.handles)
	stopped := false
	// yieldStaged emits the staged keys below limit (all of them when nil).
	yieldStaged := func(limit []byte) {
		for !stopped && len(staged) > 0 && (limit == nil || staged[0].Key < string(limit)) {
			stopped = !fn([]byte(staged[0].Key), staged[0].Value)
			staged = staged[1:]
		}
	}
	err := s.scan(from, to, func(k, v []byte) bool {
		if yieldStaged(k); stopped {
			return false
		}
		if len(staged) > 0 && staged[0].Key == string(k) {
			v, staged = staged[0].Value, staged[1:]
		} else if e := s.staged(k); e != nil && e.Tomb {
			return true
		}
		stopped = !fn(k, v)
		return !stopped
	})
	if err != nil {
		s.fail(err)
		return
	}
	yieldStaged(nil)
}

// inBounds reports whether key lies in [from, to); nil bounds are open.
func inBounds(key string, from, to []byte) bool {
	return (from == nil || key >= string(from)) && (to == nil || key < string(to))
}

// scan visits the committed keys in [from, to) in ascending order (nil
// bounds are open) until fn returns false.
func (s *Store) scan(from, to []byte, fn func(key, value []byte) bool) error {
	// The tree's upper bound is inclusive; this one's is not.
	err := s.tree.Range(string(from), string(to), func(key, value []byte) error {
		if (to != nil && bytes.Compare(key, to) >= 0) || !fn(key, value) {
			return errStopIterate
		}
		return nil
	})
	if errors.Is(err, errStopIterate) {
		return nil
	}
	return err
}

// NumKeys reports the live key count including staged changes. A staged key
// whose write said nothing of committed state is looked up, once.
func (s *Store) NumKeys() int {
	n := int(s.tree.NumKeys())
	for i := range s.table {
		e := &s.table[i]
		if !e.Known {
			_, ok, err := s.tree.GetBytes([]byte(e.Key))
			if err != nil {
				s.fail(err)
				return 0
			}
			e.Known, e.Live = true, ok
		}
		if e.Tomb && e.Live {
			n--
		} else if !e.Tomb && !e.Live {
			n++
		}
	}
	return n
}

// Commit durably writes the staged changes as the version's delta and folds
// them into the tree. This is where the epoch's delta is ordered, once:
// the delta file, the memtable's runs and through them the flush all read
// the batch built here. Committing with no staged changes still records the
// (empty) version so recovery can find it. A latched read error from
// earlier in the epoch fails the commit: results computed from unreadable
// state must not become durable.
func (s *Store) Commit(version int64) error {
	if s.err != nil {
		return fmt.Errorf("state: commit %d for %s aborted by earlier read failure: %w", version, s.id, s.err)
	}
	if version <= s.version {
		return fmt.Errorf("state: commit version %d not after current %d for %s", version, s.version, s.id)
	}
	b := s.batch[:0]
	for i := range s.table {
		b = append(b, s.table[i].Entry)
	}
	s.handles = lsm.SortBatch(b, s.handles)
	err := s.tree.CommitBatch(version, b)
	clear(b) // the tree holds what it keeps; the batch pins nothing
	s.batch = b
	if err != nil {
		s.dirty = true
		return fmt.Errorf("state: %w", err)
	}
	s.provider.deltasWritten.Add(1)
	s.version = version
	if 4*len(s.table) < cap(s.table) {
		s.Abort() // emptying costs the capacity; an outsized epoch's is not worth keeping
		return nil
	}
	// Epoch batches are similar-sized: the emptied table serves the next one
	// without allocating, growing or rehashing on the row path.
	clear(s.index)
	clear(s.table)
	s.table = s.table[:0]
	return nil
}

// Err returns the latched tree read error, if any. Point-in-time
// readers check it after Get/Iterate — reads racing the owning query's
// GC or compaction fail here and should be retried against a fresh open.
func (s *Store) Err() error { return s.err }

// Abort discards staged changes (and any latched read error with them).
func (s *Store) Abort() {
	s.index, s.table = nil, nil
	s.err = nil
}

// Versions lists the committed versions reconstructable on disk for id.
func (p *Provider) Versions(id ID) ([]int64, error) {
	entries, err := p.fs.ReadDir(p.storeDir(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("state: %w", err)
	}
	seen := map[int64]bool{}
	for _, e := range entries {
		if v, ok := parseStateFile(e.Name()); ok {
			seen[v] = true
		}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// DiskUsage reports total bytes of state files under the provider, for
// monitoring.
func (p *Provider) DiskUsage() (int64, error) {
	var total int64
	err := fsx.Walk(p.fs, filepath.Join(p.dir, "state"), func(path string, d fs.DirEntry) error {
		info, err := d.Info()
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		total += info.Size()
		return nil
	})
	if err == io.EOF {
		err = nil
	}
	return total, err
}
