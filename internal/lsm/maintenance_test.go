package lsm

import (
	"bytes"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"structream/internal/fsx"
)

// gateFS blocks the first write whose path contains match until release is
// closed, signalling arrived when the write is parked. It models a slow or
// stuck disk under exactly one maintenance step.
type gateFS struct {
	fsx.FS
	match   string
	arrived chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateFS(base fsx.FS, match string) *gateFS {
	return &gateFS{FS: base, match: match,
		arrived: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	if strings.Contains(path, g.match) {
		g.once.Do(func() { close(g.arrived) })
		<-g.release
	}
	return g.FS.WriteFile(path, data, perm)
}

// failFS fails writes whose path contains match while armed.
type failFS struct {
	fsx.FS
	match string
	armed atomic.Bool
}

func (f *failFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	if f.armed.Load() && strings.Contains(path, f.match) {
		return fmt.Errorf("injected: disk full writing %s", filepath.Base(path))
	}
	return f.FS.WriteFile(path, data, perm)
}

// cachedTables lists the numbers of the tables with blocks resident in a cache.
func cachedTables(c *BlockCache) map[uint64]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[uint64]bool{}
	for k := range c.items {
		out[k.table] = true
	}
	return out
}

// TestCompactionEvictsRetiredTables pins the eviction point: a retired
// compaction input's blocks leave the shared cache at the install — the
// moment the manifest stops referencing the table — so the cache only ever
// holds blocks of tables the current manifest can still read.
func TestCompactionEvictsRetiredTables(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 512
	opts.MaxTierTables = 2
	tr := mustOpen(t, opts)
	big := bytes.Repeat([]byte("x"), 200)
	for v := int64(1); v <= 16; v++ {
		commit(t, tr, v, map[string][]byte{fmt.Sprintf("k%02d", v): big})
		// Warm the cache through the current table set, then check the
		// residency invariant: every cached block belongs to a live table.
		if err := tr.Range("", "", func(_, _ []byte) error { return nil }); err != nil {
			t.Fatalf("Range: %v", err)
		}
		live := map[uint64]bool{}
		tr.mu.Lock()
		for _, tbl := range tr.tables {
			live[tbl.id] = true
		}
		tr.mu.Unlock()
		for id := range cachedTables(opts.Cache) {
			if !live[id] {
				t.Fatalf("after commit %d the cache still holds blocks of a retired table (opened %dth)", v, id)
			}
		}
	}
	st := tr.Stats()
	if st.Compactions == 0 {
		t.Fatalf("workload never compacted (stats %+v); the eviction point was not exercised", st)
	}
	cs := opts.Cache.Stats()
	if cs.Entries == 0 || cs.Bytes == 0 {
		t.Fatalf("cache empty after warm reads: %+v", cs)
	}
	// Closing the tree retires the remaining tables; nothing may stay pinned.
	tr.Close()
	if cs := opts.Cache.Stats(); cs.Entries != 0 || cs.Bytes != 0 {
		t.Fatalf("cache still holds %d blocks (%d bytes) after Close", cs.Entries, cs.Bytes)
	}
}

// TestCloseDrainsInflightFlush parks the background flush mid-SSTable-write
// and calls Close: Close must wait for the in-flight step to finish its
// install and manifest publication — never return with a half-published
// manifest — and the drained flush must be fully usable by the next Load.
func TestCloseDrainsInflightFlush(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 1 // every commit seals
	opts.BackgroundCompaction = true
	g := newGateFS(opts.FS, ".sst")
	opts.FS = g
	tr := mustOpen(t, opts)
	commit(t, tr, 1, map[string][]byte{"a": []byte("1")})
	<-g.arrived // background flush is parked inside the table write

	done := make(chan struct{})
	go func() { tr.Close(); close(done) }()
	select {
	case <-done:
		t.Fatal("Close returned while a flush write was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the parked write was released")
	}

	// The drained step must have published completely: manifest for version
	// 1 present, referencing the flushed table, with no temp droppings.
	m, err := readManifest(opts.FS, opts.Dir, 1)
	if err != nil {
		t.Fatalf("manifest after drained Close: %v", err)
	}
	if len(m.Tables) != 1 {
		t.Fatalf("manifest references %d tables, want 1: %+v", len(m.Tables), m)
	}
	ents, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), fsx.TmpSuffix) {
			t.Fatalf("temp file %s left behind after Close", e.Name())
		}
	}
	tr2 := mustOpen(t, Options{FS: fsx.Real(), Dir: opts.Dir})
	if err := tr2.Load(1); err != nil {
		t.Fatalf("Load after drained Close: %v", err)
	}
	if v, ok, err := tr2.GetBytes([]byte("a")); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get(a) = %q,%v,%v after drained Close", v, ok, err)
	}
}

// TestCloseDuringCompaction is the close-during-maintenance regression for
// the merge path: Close arrives while a compaction output write is parked.
func TestCloseDuringCompaction(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 512
	opts.MaxTierTables = 2
	tr := mustOpen(t, opts)
	big := bytes.Repeat([]byte("x"), 200)
	// Build a compactable tier synchronously, then hand the merge itself to
	// the background goroutine of a fresh tree over the same directory.
	var v int64
	for v = 1; v <= 6; v++ {
		commit(t, tr, v, map[string][]byte{fmt.Sprintf("k%02d", v): big})
	}
	tr.Close()

	g := newGateFS(fsx.Real(), ".sst")
	bg := mustOpen(t, Options{FS: g, Dir: opts.Dir, MemtableBytes: 1,
		MaxTierTables: 2, BackgroundCompaction: true})
	if err := bg.Load(v - 1); err != nil {
		t.Fatalf("Load: %v", err)
	}
	commit(t, bg, v, map[string][]byte{"last": []byte("1")})
	<-g.arrived // a background table write (flush or merge output) is parked
	done := make(chan struct{})
	go func() { bg.Close(); close(done) }()
	close(g.release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	tr2 := mustOpen(t, Options{FS: fsx.Real(), Dir: opts.Dir})
	if err := tr2.Load(v); err != nil {
		t.Fatalf("Load after close-during-maintenance: %v", err)
	}
	if tr2.NumKeys() != v {
		t.Fatalf("NumKeys = %d, want %d", tr2.NumKeys(), v)
	}
}

// TestSeededSchedulerDeterministicSchedule: the same seed must reproduce the
// same mutating-op schedule op for op — that reproducibility is what lets
// the crash sweep place a fault inside the same maintenance step on every
// run.
func TestSeededSchedulerDeterministicSchedule(t *testing.T) {
	run := func(seed int64) []string {
		ffs := fsx.NewFaultFS(fsx.NoSync())
		opts := Options{FS: ffs, Dir: t.TempDir(), MemtableBytes: 256,
			BlockBytes: 128, MaxTierTables: 2, Scheduler: NewSeededScheduler(seed)}
		tr := mustOpen(t, opts)
		big := bytes.Repeat([]byte("x"), 100)
		for v := int64(1); v <= 24; v++ {
			commit(t, tr, v, map[string][]byte{fmt.Sprintf("k%02d", v): big})
		}
		tr.Close()
		var ops []string
		for _, op := range ffs.Trace() {
			ops = append(ops, fmt.Sprintf("%s %s", op.Kind, filepath.Base(op.Path)))
		}
		return ops
	}
	a, b := run(0x5EED), run(0x5EED)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("same seed produced different op schedules:\n--- first\n%s\n--- second\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
	var maint int
	for _, op := range a {
		if strings.Contains(op, ".sst") || strings.Contains(op, ".manifest") {
			maint++
		}
	}
	if maint == 0 {
		t.Fatal("seeded schedule ran no maintenance ops at all")
	}
}

// TestMaintenanceErrorFailsNextCommit: an error inside a background step
// must latch and fail an upcoming Commit — never decay into silent data
// loss — and a Load must clear the latch and recover everything whose delta
// was durable.
func TestMaintenanceErrorFailsNextCommit(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 1
	opts.BackgroundCompaction = true
	f := &failFS{FS: opts.FS, match: ".sst"}
	f.armed.Store(true)
	opts.FS = f
	tr := mustOpen(t, opts)

	var lastGood int64
	var commitErr error
	for v := int64(1); v <= 100; v++ {
		commitErr = tr.Commit(v, map[string][]byte{fmt.Sprintf("k%d", v): []byte("v")}, nil)
		if commitErr != nil {
			break
		}
		lastGood = v
		time.Sleep(time.Millisecond)
	}
	if commitErr == nil {
		t.Fatal("background flush failures never surfaced through Commit")
	}
	if !strings.Contains(commitErr.Error(), "background maintenance failed") {
		t.Fatalf("Commit error does not identify maintenance: %v", commitErr)
	}
	if lastGood == 0 {
		t.Fatal("no commit succeeded before the failure surfaced")
	}

	// Heal the disk and reload: the latch clears, every durable delta
	// replays, and commits resume.
	f.armed.Store(false)
	if err := tr.Load(lastGood); err != nil {
		t.Fatalf("Load(%d): %v", lastGood, err)
	}
	if err := tr.Commit(lastGood+1, map[string][]byte{"after": []byte("1")}, nil); err != nil {
		t.Fatalf("Commit after reload: %v", err)
	}
	if got := tr.NumKeys(); got != lastGood+1 {
		t.Fatalf("NumKeys = %d, want %d", got, lastGood+1)
	}
}

// TestCeilingStallMetered: with maintenance stuck, Commit hits the
// MaxPendingMemtables ceiling, falls back to a synchronous drain, and the
// time spent there lands in Stats.MaintenanceStallUs — the signal admission
// control keys off.
func TestCeilingStallMetered(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 1
	opts.MaxPendingMemtables = 1
	opts.BackgroundCompaction = true
	g := newGateFS(opts.FS, ".sst")
	opts.FS = g
	tr := mustOpen(t, opts)

	commit(t, tr, 1, map[string][]byte{"a": []byte("1")})
	<-g.arrived // the background flush is parked holding the step lock
	go func() {
		time.Sleep(25 * time.Millisecond)
		close(g.release)
	}()
	// Backlog goes to 2 > ceiling 1: this commit must stall until the parked
	// flush completes and the queue drains back under the ceiling.
	commit(t, tr, 2, map[string][]byte{"b": []byte("2")})
	if st := tr.Stats(); st.MaintenanceStallUs == 0 {
		t.Fatalf("ceiling stall not metered: %+v", st)
	}
}

// TestConcurrentAccessDuringBackgroundMaintenance hammers a background-mode
// tree with concurrent readers while commits drive flushes and compactions;
// run under -race this is the locking-protocol check for the maintenance
// goroutine. Correctness of the surviving data is verified by a reload.
func TestConcurrentAccessDuringBackgroundMaintenance(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 512
	opts.MaxTierTables = 2
	opts.BackgroundCompaction = true
	tr := mustOpen(t, opts)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 3 {
				case 0:
					if _, _, err := tr.GetBytes([]byte(fmt.Sprintf("k%02d", i%60))); err != nil {
						t.Errorf("reader %d Get: %v", r, err)
						return
					}
				case 1:
					if err := tr.Range("k10", "k40", func(_, _ []byte) error { return nil }); err != nil {
						t.Errorf("reader %d Range: %v", r, err)
						return
					}
				default:
					tr.Stats()
					tr.NumKeys()
				}
			}
		}(r)
	}
	big := bytes.Repeat([]byte("x"), 200)
	const versions = 60
	for v := int64(1); v <= versions; v++ {
		commit(t, tr, v, map[string][]byte{fmt.Sprintf("k%02d", v): big})
	}
	close(stop)
	wg.Wait()
	tr.Close()

	tr2 := mustOpen(t, Options{FS: fsx.Real(), Dir: opts.Dir})
	if err := tr2.Load(versions); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if tr2.NumKeys() != versions {
		t.Fatalf("NumKeys = %d, want %d", tr2.NumKeys(), versions)
	}
	for v := int64(1); v <= versions; v++ {
		if _, ok, err := tr2.GetBytes([]byte(fmt.Sprintf("k%02d", v))); err != nil || !ok {
			t.Fatalf("Get(k%02d) after concurrent run = ok=%v err=%v", v, ok, err)
		}
	}
}
