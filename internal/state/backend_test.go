package state

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structream/internal/fsx"
	"structream/internal/lsm"
)

// forEachBudget runs a subtest per memtable budget of the one store:
// "memory", the default, under which a test's state never leaves the
// memtable, and "lsm", a few KiB, which forces SSTables, flushes and
// compactions inside ordinary test workloads. (The names are those of the
// two backends the budgets replaced.)
func forEachBudget(t *testing.T, fn func(t *testing.T, mk func(dir string) *Provider)) {
	t.Helper()
	for _, budget := range []struct {
		name  string
		bytes int64
	}{{"memory", 0}, {"lsm", 2 << 10}} {
		t.Run(budget.name, func(t *testing.T) {
			fn(t, func(dir string) *Provider {
				p := NewProvider(dir)
				p.MemtableBytes = budget.bytes
				return p
			})
		})
	}
}

func TestBackendsRoundTrip(t *testing.T) {
	forEachBudget(t, func(t *testing.T, mk func(string) *Provider) {
		p := mk(t.TempDir())
		s := open(t, p, -1)
		s.Put([]byte("a"), []byte("1"))
		s.Put([]byte("b"), []byte("2"))
		if err := s.Commit(0); err != nil {
			t.Fatal(err)
		}
		s.Remove([]byte("a"))
		s.Put([]byte("c"), []byte("3"))
		if err := s.Commit(1); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get([]byte("a")); ok {
			t.Error("deleted key a still visible")
		}
		for k, want := range map[string]string{"b": "2", "c": "3"} {
			if v, ok := s.Get([]byte(k)); !ok || string(v) != want {
				t.Errorf("Get(%s) = %q,%v want %q", k, v, ok, want)
			}
		}
		if n := s.NumKeys(); n != 2 {
			t.Errorf("NumKeys = %d, want 2", n)
		}
	})
}

// TestBackendsAgree drives a store that never spills and one whose 1 KiB
// budget makes it flush and compact through one random op schedule, and
// requires identical logical state at the end and at every reloaded version:
// the memtable alone is the oracle for the tables.
func TestBackendsAgree(t *testing.T) {
	budgets := []int64{0, 1 << 10}
	var stores []*Store
	var provs []*Provider
	for _, budget := range budgets {
		p := NewProvider(t.TempDir())
		p.MemtableBytes = budget
		provs = append(provs, p)
		stores = append(stores, open(t, p, -1))
	}
	rng := rand.New(rand.NewSource(42))
	for v := int64(0); v < 30; v++ {
		type op struct {
			del  bool
			k, v string
		}
		var ops []op
		for n := 0; n < 15; n++ {
			k := fmt.Sprintf("key-%02d", rng.Intn(60))
			if rng.Intn(4) == 0 {
				ops = append(ops, op{del: true, k: k})
			} else {
				ops = append(ops, op{k: k, v: strings.Repeat("x", 20+rng.Intn(60))})
			}
		}
		for _, s := range stores {
			for _, o := range ops {
				if o.del {
					s.Remove([]byte(o.k))
				} else {
					s.Put([]byte(o.k), []byte(o.v))
				}
			}
			if err := s.Commit(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	snapshot := func(s *Store) map[string]string {
		out := map[string]string{}
		s.Iterate(func(k, v []byte) bool {
			out[string(k)] = string(v)
			return true
		})
		return out
	}
	for _, v := range []int64{0, 9, 17, 29} {
		var want map[string]string
		for i, p := range provs {
			st, err := p.Open(ID{Operator: "agg", Partition: 0}, v)
			if err != nil {
				t.Fatalf("budget %d reload at %d: %v", budgets[i], v, err)
			}
			got := snapshot(st)
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("version %d: budget %d has %d keys, the memtable alone %d", v, budgets[i], len(got), len(want))
			}
			for k, wv := range want {
				if got[k] != wv {
					t.Fatalf("version %d key %s: budget %d=%q memtable alone=%q", v, k, budgets[i], got[k], wv)
				}
			}
			if st.NumKeys() != len(want) {
				t.Fatalf("version %d: budget %d NumKeys=%d want %d", v, budgets[i], st.NumKeys(), len(want))
			}
		}
	}
	// The small budget must have spilled, and the default one not, for this
	// to mean anything.
	if st := provs[1].Stats(); st.SSTables == 0 || st.Flushes == 0 {
		t.Fatalf("small budget never spilled: %+v", st)
	}
	if st := provs[0].Stats(); st.Flushes != 0 {
		t.Fatalf("default budget spilled: %+v", st)
	}
}

func TestProviderClose(t *testing.T) {
	forEachBudget(t, func(t *testing.T, mk func(string) *Provider) {
		dir := t.TempDir()
		p := mk(dir)
		s := open(t, p, -1)
		s.Put([]byte("a"), []byte("1"))
		if err := s.Commit(0); err != nil {
			t.Fatal(err)
		}
		p.Close()
		p.Close() // idempotent
		if _, err := p.Open(ID{Operator: "agg", Partition: 0}, 0); err == nil {
			t.Fatal("Open after Close should fail")
		}
		// A fresh provider still reads the durable state.
		p2 := mk(dir)
		s2 := open(t, p2, 0)
		if v, ok := s2.Get([]byte("a")); !ok || string(v) != "1" {
			t.Fatalf("reload after Close = %q,%v", v, ok)
		}
	})
}

func TestProviderEvict(t *testing.T) {
	forEachBudget(t, func(t *testing.T, mk func(string) *Provider) {
		p := mk(t.TempDir())
		id := ID{Operator: "agg", Partition: 0}
		s := open(t, p, -1)
		s.Put([]byte("a"), []byte("1"))
		if err := s.Commit(0); err != nil {
			t.Fatal(err)
		}
		p.Evict(id)
		base := p.Stats().CacheHits
		s2, err := p.Open(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stats().CacheHits != base {
			t.Fatal("Open after Evict should not be a cache hit")
		}
		if v, ok := s2.Get([]byte("a")); !ok || string(v) != "1" {
			t.Fatalf("reopened store = %q,%v", v, ok)
		}
	})
}

// TestLSMStatsSurface checks the provider exposes the tree's shape: after a
// spilling workload, SSTable/flush/compaction counters and block-cache
// traffic are visible — the numbers the monitor endpoint reports.
func TestLSMStatsSurface(t *testing.T) {
	p := NewProvider(t.TempDir())
	p.MemtableBytes = 1 << 10
	s := open(t, p, -1)
	payload := bytes.Repeat([]byte("v"), 64)
	for v := int64(0); v < 40; v++ {
		for i := 0; i < 8; i++ {
			s.Put([]byte(fmt.Sprintf("key-%d-%d", v, i)), payload)
		}
		if err := s.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	for v := int64(0); v < 40; v++ {
		for i := 0; i < 8; i++ {
			if _, ok := s.Get([]byte(fmt.Sprintf("key-%d-%d", v, i))); !ok {
				t.Fatalf("key %d-%d lost", v, i)
			}
		}
	}
	st := p.Stats()
	if st.SSTables == 0 || st.SSTableBytes == 0 || st.Flushes == 0 {
		t.Fatalf("no spill visible in stats: %+v", st)
	}
	if st.Compactions == 0 || st.CompactionBytes == 0 {
		t.Fatalf("no compaction visible in stats: %+v", st)
	}
	if st.BlockCacheHits+st.BlockCacheMisses == 0 {
		t.Fatalf("no block cache traffic: %+v", st)
	}
	if st.DeltasWritten != 40 {
		t.Fatalf("DeltasWritten = %d, want 40", st.DeltasWritten)
	}
}

// TestMaintenanceLSM exercises retention GC for lsm directories through the
// provider path (live tree) and on a cold directory (no open store).
func TestMaintenanceLSM(t *testing.T) {
	dir := t.TempDir()
	p := NewProvider(dir)
	p.MemtableBytes = 512
	id := ID{Operator: "agg", Partition: 0}
	s, err := p.Open(id, -1)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 200)
	for v := int64(0); v < 30; v++ {
		s.Put([]byte(fmt.Sprintf("k%d", v)), payload)
		if err := s.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	countFiles := func() int {
		entries, err := os.ReadDir(storeDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	before := countFiles()
	if err := p.Maintenance(25); err != nil {
		t.Fatal(err)
	}
	if after := countFiles(); after >= before {
		t.Fatalf("live maintenance removed nothing: %d -> %d files", before, after)
	}
	for _, v := range []int64{25, 29} {
		if _, err := p.Open(id, v); err != nil {
			t.Fatalf("version %d unloadable after maintenance: %v", v, err)
		}
	}
	// Cold path: a fresh provider that has never opened the store.
	p2 := NewProvider(dir)
	before = countFiles()
	if err := p2.Maintenance(28); err != nil {
		t.Fatal(err)
	}
	if after := countFiles(); after >= before {
		t.Fatalf("cold maintenance removed nothing: %d -> %d files", before, after)
	}
	s3, err := p2.Open(id, 29)
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.NumKeys(); got != 30 {
		t.Fatalf("NumKeys after cold maintenance = %d, want 30", got)
	}
}

// deferScheduler postpones every maintenance step the scheduler is asked
// about: nothing flushes until the MaxPendingMemtables ceiling forces a
// synchronous drain. It makes the flush backlog deterministic and visible.
type deferScheduler struct{}

func (deferScheduler) Async() bool              { return false }
func (deferScheduler) StepsAfterCommit(int) int { return 0 }

// TestLSMBacklogStatsSurface pins the aggregation path of the flush
// backlog: per-tree FlushBacklog sums into ProviderStats, which the
// engine's progress event reports.
func TestLSMBacklogStatsSurface(t *testing.T) {
	p := NewProvider(t.TempDir())
	p.MemtableBytes = 1 // every commit seals a memtable
	p.Scheduler = deferScheduler{}
	s := open(t, p, -1)
	for v := int64(0); v < 8; v++ {
		s.Put([]byte(fmt.Sprintf("k%d", v)), []byte("v"))
		if err := s.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.FlushBacklog == 0 {
		t.Fatalf("FlushBacklog not surfaced: %+v", st)
	}
	// The ceiling (default 4 pending memtables) must have bounded it.
	if st.FlushBacklog > 4 {
		t.Fatalf("FlushBacklog = %d exceeds the default ceiling", st.FlushBacklog)
	}
	// Reads must see through the backlog: sealed memtables stay readable.
	for v := int64(0); v < 8; v++ {
		if _, ok := s.Get([]byte(fmt.Sprintf("k%d", v))); !ok {
			t.Fatalf("k%d unreadable while queued for flush", v)
		}
	}
}

// TestProviderBackgroundMaintenance round-trips the engine's default mode at
// the provider layer: background flush/compaction on, a Close that drains
// in-flight work, and a cold reopen that sees every committed key.
func TestProviderBackgroundMaintenance(t *testing.T) {
	dir := t.TempDir()
	p := NewProvider(dir)
	p.MemtableBytes = 256
	p.BackgroundMaintenance = true
	s := open(t, p, -1)
	payload := bytes.Repeat([]byte("x"), 100)
	const versions = 30
	for v := int64(0); v < versions; v++ {
		s.Put([]byte(fmt.Sprintf("k%02d", v)), payload)
		if err := s.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	p2 := NewProvider(dir)
	s2 := open(t, p2, versions-1)
	for v := int64(0); v < versions; v++ {
		if got, ok := s2.Get([]byte(fmt.Sprintf("k%02d", v))); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("k%02d after background run: ok=%v", v, ok)
		}
	}
	if n := s2.NumKeys(); n != versions {
		t.Fatalf("NumKeys = %d, want %d", n, versions)
	}
}

// TestUnorderedDeltaReplaysAsALog: a delta whose records are out of order
// and repeat keys — nothing Commit writes, but a valid frame, so something a
// disk or a hand can produce — is replayed at either budget as the log it
// is, the last record of a key winning, and the store it yields reads and
// scans like any other.
func TestUnorderedDeltaReplaysAsALog(t *testing.T) {
	type rec struct {
		key, value string
		del        bool
	}
	records := []rec{
		{key: "m", value: "1"}, {key: "c", value: "2"}, {key: "x", del: true}, {key: "a", value: "3"},
		{key: "m", del: true}, {key: "c", value: "4"}, {key: "m", value: "5"}, {key: "q", value: "6"}, {key: "q", del: true},
	}
	var body []byte
	want := map[string]string{}
	for _, r := range records {
		if r.del {
			body = append(body, lsm.OpDel)
			body = binary.AppendUvarint(body, uint64(len(r.key)))
			body = append(body, r.key...)
			delete(want, r.key)
			continue
		}
		body = append(body, lsm.OpPut)
		body = binary.AppendUvarint(body, uint64(len(r.key)))
		body = append(body, r.key...)
		body = binary.AppendUvarint(body, uint64(len(r.value)))
		body = append(body, r.value...)
		want[r.key] = r.value
	}
	forEachBudget(t, func(t *testing.T, mk func(string) *Provider) {
		root := t.TempDir()
		if err := os.MkdirAll(storeDir(root), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(storeDir(root), "0.delta"), fsx.Seal(body), 0o644); err != nil {
			t.Fatal(err)
		}
		p := mk(root)
		defer p.Close()
		s := open(t, p, 0)
		if s.NumKeys() != len(want) {
			t.Errorf("NumKeys = %d, want %d", s.NumKeys(), len(want))
		}
		for _, r := range records {
			v, ok := s.Get([]byte(r.key))
			if w, live := want[r.key]; ok != live || string(v) != w {
				t.Errorf("Get(%q) = %q, %v; want %q, %v", r.key, v, ok, w, live)
			}
		}
		var scanned []string
		s.Range(nil, nil, func(k, v []byte) bool {
			scanned = append(scanned, string(k)+"="+string(v))
			return true
		})
		if got := strings.Join(scanned, " "); got != "a=3 c=4 m=5" {
			t.Errorf("Range = %q, want %q", got, "a=3 c=4 m=5")
		}
	})
}
