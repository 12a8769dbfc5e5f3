package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"structream/internal/fsx"
)

// smallOpts returns options tuned so a handful of commits exercises flush
// and compaction.
func smallOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		FS:            fsx.Real(),
		Dir:           t.TempDir(),
		MemtableBytes: 2 << 10, // 2 KiB: spill fast
		BlockBytes:    256,
		MaxTierTables: 3,
		Cache:         NewBlockCache(64 << 10),
	}
}

func mustOpen(t *testing.T, opts Options) *Tree {
	t.Helper()
	tr, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(tr.Close)
	return tr
}

func commit(t *testing.T, tr *Tree, version int64, puts map[string][]byte, dels ...string) {
	t.Helper()
	dm := map[string]bool{}
	for _, d := range dels {
		dm[d] = true
	}
	if err := tr.Commit(version, puts, dm); err != nil {
		t.Fatalf("Commit(%d): %v", version, err)
	}
}

func TestTreeRoundTrip(t *testing.T) {
	tr := mustOpen(t, smallOpts(t))
	commit(t, tr, 1, map[string][]byte{"a": []byte("1"), "b": []byte("2")})
	commit(t, tr, 2, map[string][]byte{"a": []byte("3")}, "b")

	if v, ok, err := tr.GetBytes([]byte("a")); err != nil || !ok || string(v) != "3" {
		t.Fatalf("Get(a) = %q, %v, %v; want 3", v, ok, err)
	}
	if _, ok, err := tr.GetBytes([]byte("b")); err != nil || ok {
		t.Fatalf("Get(b) should be deleted, got ok=%v err=%v", ok, err)
	}
	if n := tr.NumKeys(); n != 1 {
		t.Fatalf("NumKeys = %d, want 1", n)
	}
}

// TestTreeModel drives the tree and a plain map through the same random
// commit schedule, checking Get/Range/NumKeys agreement and that reloading
// any committed version reproduces that version's model state exactly.
func TestTreeModel(t *testing.T) {
	opts := smallOpts(t)
	tr := mustOpen(t, opts)
	rng := rand.New(rand.NewSource(7))
	model := map[string][]byte{}
	history := map[int64]map[string][]byte{}

	key := func(i int) string { return fmt.Sprintf("key-%03d", i) }
	for version := int64(1); version <= 40; version++ {
		puts := map[string][]byte{}
		dels := map[string]bool{}
		for n := 0; n < 20; n++ {
			k := key(rng.Intn(120))
			if rng.Intn(5) == 0 {
				dels[k] = true
				delete(puts, k)
			} else {
				v := bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 10+rng.Intn(40))
				puts[k] = v
				delete(dels, k)
			}
		}
		if err := tr.Commit(version, puts, dels); err != nil {
			t.Fatalf("Commit(%d): %v", version, err)
		}
		for k, v := range puts {
			model[k] = v
		}
		for k := range dels {
			delete(model, k)
		}
		snap := map[string][]byte{}
		for k, v := range model {
			snap[k] = v
		}
		history[version] = snap
	}

	stats := tr.Stats()
	if stats.Flushes == 0 || stats.Tables == 0 {
		t.Fatalf("expected spills to SSTables, got stats %+v", stats)
	}
	if stats.Compactions == 0 {
		t.Fatalf("expected compaction to run, got stats %+v", stats)
	}

	checkAgainst := func(tr *Tree, want map[string][]byte) {
		t.Helper()
		for i := 0; i < 120; i++ {
			k := key(i)
			v, ok, err := tr.GetBytes([]byte(k))
			if err != nil {
				t.Fatalf("Get(%s): %v", k, err)
			}
			wv, wok := want[k]
			if ok != wok || (ok && !bytes.Equal(v, wv)) {
				t.Fatalf("Get(%s) = %q,%v; want %q,%v", k, v, ok, wv, wok)
			}
		}
		if got, want := tr.NumKeys(), int64(len(want)); got != want {
			t.Fatalf("NumKeys = %d, want %d", got, want)
		}
		var gotKeys []string
		if err := tr.Range("", "", func(kb, v []byte) error {
			k := string(kb)
			gotKeys = append(gotKeys, k)
			if !bytes.Equal(v, want[k]) {
				return fmt.Errorf("Range value mismatch at %s", k)
			}
			return nil
		}); err != nil {
			t.Fatalf("Range: %v", err)
		}
		wantKeys := make([]string, 0, len(want))
		for k := range want {
			wantKeys = append(wantKeys, k)
		}
		sort.Strings(wantKeys)
		if !sort.StringsAreSorted(gotKeys) {
			t.Fatalf("Range keys not sorted: %v", gotKeys)
		}
		if strings.Join(gotKeys, ",") != strings.Join(wantKeys, ",") {
			t.Fatalf("Range keys = %v, want %v", gotKeys, wantKeys)
		}
	}
	checkAgainst(tr, model)

	// Every committed version must be independently loadable.
	for _, version := range []int64{1, 7, 19, 23, 40} {
		tr2 := mustOpen(t, Options{FS: opts.FS, Dir: opts.Dir, MemtableBytes: opts.MemtableBytes,
			BlockBytes: opts.BlockBytes, MaxTierTables: opts.MaxTierTables, Cache: opts.Cache})
		if err := tr2.Load(version); err != nil {
			t.Fatalf("Load(%d): %v", version, err)
		}
		checkAgainst(tr2, history[version])
	}
}

func TestTreeRangeBounds(t *testing.T) {
	tr := mustOpen(t, smallOpts(t))
	puts := map[string][]byte{}
	for i := 0; i < 30; i++ {
		puts[fmt.Sprintf("k%02d", i)] = []byte{byte(i)}
	}
	commit(t, tr, 1, puts)
	var got []string
	if err := tr.Range("k05", "k10", func(kb, v []byte) error {
		k := string(kb)
		got = append(got, k)
		return nil
	}); err != nil {
		t.Fatalf("Range: %v", err)
	}
	want := []string{"k05", "k06", "k07", "k08", "k09", "k10"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Range[k05,k10] = %v, want %v", got, want)
	}
}

// TestTombstonesDropAtOldestCompaction checks deleted keys eventually leave
// disk: once a compaction run includes the oldest table, tombstones vanish.
func TestTombstonesDropAtOldestCompaction(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 512
	opts.MaxTierTables = 2
	tr := mustOpen(t, opts)
	version := int64(0)
	big := bytes.Repeat([]byte("x"), 200)
	for i := 0; i < 8; i++ {
		version++
		commit(t, tr, version, map[string][]byte{fmt.Sprintf("k%d", i): big})
	}
	for i := 0; i < 8; i++ {
		version++
		commit(t, tr, version, nil, fmt.Sprintf("k%d", i))
	}
	// Force merges down to a single table: everything is deleted, so the
	// surviving table set should carry no entries at all.
	for i := 0; i < 6; i++ {
		version++
		commit(t, tr, version, map[string][]byte{"pad": bytes.Repeat([]byte("p"), 600)})
	}
	if n := tr.NumKeys(); n != 1 {
		t.Fatalf("NumKeys = %d, want 1 (only pad)", n)
	}
	st := tr.Stats()
	if st.Compactions == 0 {
		t.Fatalf("expected compactions, got %+v", st)
	}
	var entries int64
	tr.mu.Lock()
	for _, tbl := range tr.tables {
		entries += tbl.entries
	}
	tr.mu.Unlock()
	// The deleted keys may still have tombstones if the oldest table wasn't
	// in the last run, but live entries must be bounded by pad + tombstones.
	if err := tr.Range("", "", func(kb, v []byte) error {
		k := string(kb)
		if k != "pad" {
			return fmt.Errorf("unexpected live key %s", k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = entries
}

func TestCorruptBlockDetected(t *testing.T) {
	opts := smallOpts(t)
	opts.Cache = nil // force disk reads
	tr := mustOpen(t, opts)
	puts := map[string][]byte{}
	for i := 0; i < 100; i++ {
		puts[fmt.Sprintf("key-%03d", i)] = bytes.Repeat([]byte("v"), 50)
	}
	commit(t, tr, 1, puts)
	commit(t, tr, 2, map[string][]byte{"spill": bytes.Repeat([]byte("s"), 4096)})
	if tr.Stats().Tables == 0 {
		t.Fatal("expected at least one SSTable")
	}
	// Flip a bit in the middle of the first table's data section.
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var sst string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sst") {
			sst = filepath.Join(opts.Dir, e.Name())
			break
		}
	}
	if sst == "" {
		t.Fatal("no .sst file on disk")
	}
	data, err := os.ReadFile(sst)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/4] ^= 0x40
	if err := os.WriteFile(sst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tr2 := mustOpen(t, Options{FS: opts.FS, Dir: opts.Dir})
	if err := tr2.Load(2); err != nil {
		// Meta section corruption is caught at open — also acceptable.
		if !errors.Is(err, fsx.ErrCorrupt) {
			t.Fatalf("Load after corruption: %v (want ErrCorrupt)", err)
		}
		return
	}
	sawCorrupt := false
	for i := 0; i < 100; i++ {
		if _, _, err := tr2.GetBytes([]byte(fmt.Sprintf("key-%03d", i))); err != nil {
			if !errors.Is(err, fsx.ErrCorrupt) {
				t.Fatalf("Get error not ErrCorrupt: %v", err)
			}
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("bit flip in data block went undetected")
	}
}

func TestBlockCacheServesRepeatReads(t *testing.T) {
	opts := smallOpts(t)
	tr := mustOpen(t, opts)
	puts := map[string][]byte{}
	for i := 0; i < 200; i++ {
		puts[fmt.Sprintf("key-%03d", i)] = bytes.Repeat([]byte("v"), 30)
	}
	commit(t, tr, 1, puts)
	commit(t, tr, 2, map[string][]byte{"spill": bytes.Repeat([]byte("s"), 4096)})
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			if _, ok, err := tr.GetBytes([]byte(fmt.Sprintf("key-%03d", i))); err != nil || !ok {
				t.Fatalf("Get: %v ok=%v", err, ok)
			}
		}
	}
	cs := opts.Cache.Stats()
	if cs.Hits == 0 {
		t.Fatalf("expected cache hits on repeated reads, got %+v", cs)
	}
	if cs.Hits <= cs.Misses {
		t.Fatalf("cache ineffective: %+v", cs)
	}
}

func TestMaintainGarbageCollects(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 512
	tr := mustOpen(t, opts)
	big := bytes.Repeat([]byte("x"), 300)
	for v := int64(1); v <= 20; v++ {
		commit(t, tr, v, map[string][]byte{fmt.Sprintf("k%d", v): big})
	}
	removed, err := tr.Maintain(15)
	if err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	if len(removed) == 0 {
		t.Fatal("Maintain removed nothing")
	}
	// Version 15..20 must still load; earlier versions may be gone.
	for _, v := range []int64{15, 20} {
		tr2 := mustOpen(t, Options{FS: opts.FS, Dir: opts.Dir})
		if err := tr2.Load(v); err != nil {
			t.Fatalf("Load(%d) after Maintain: %v", v, err)
		}
		if tr2.NumKeys() != v {
			t.Fatalf("Load(%d): NumKeys = %d, want %d", v, tr2.NumKeys(), v)
		}
	}
}

func TestBackgroundCompaction(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 512
	opts.MaxTierTables = 2
	opts.BackgroundCompaction = true
	tr := mustOpen(t, opts)
	big := bytes.Repeat([]byte("x"), 300)
	for v := int64(1); v <= 30; v++ {
		commit(t, tr, v, map[string][]byte{fmt.Sprintf("k%d", v): big})
	}
	tr.Close()
	// All data must survive whatever the compactor did.
	tr2 := mustOpen(t, Options{FS: opts.FS, Dir: opts.Dir})
	if err := tr2.Load(30); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if tr2.NumKeys() != 30 {
		t.Fatalf("NumKeys = %d, want 30", tr2.NumKeys())
	}
}

// TestLoadSurvivesMissingManifest models the crash window between the delta
// write (durable) and the manifest write: recovery anchors on the previous
// manifest and replays the delta suffix. MemtableBytes=1 forces a flush —
// and therefore a manifest — per commit, so removing the newest manifest
// reopens exactly that window.
func TestLoadSurvivesMissingManifest(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 1
	tr := mustOpen(t, opts)
	commit(t, tr, 1, map[string][]byte{"a": []byte("1")})
	commit(t, tr, 2, map[string][]byte{"b": []byte("2")})
	commit(t, tr, 3, map[string][]byte{"c": []byte("3")})
	if err := os.Remove(filepath.Join(opts.Dir, "3.manifest")); err != nil {
		t.Fatal(err)
	}
	tr2 := mustOpen(t, Options{FS: opts.FS, Dir: opts.Dir})
	if err := tr2.Load(3); err != nil {
		t.Fatalf("Load(3) without its manifest: %v", err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, ok, err := tr2.GetBytes([]byte(k)); err != nil || !ok {
			t.Fatalf("Get(%s) after recovery = ok=%v err=%v", k, ok, err)
		}
	}
	if tr2.NumKeys() != 3 {
		t.Fatalf("NumKeys = %d, want 3", tr2.NumKeys())
	}
}

// TestSmallStateKeepsBoundedLog: a store whose state stays far under its
// memtable budget while the log of its overwrites does not — one key
// rewritten every version — still seals, so Maintain collects the delta log
// and a reload replays only the suffix since the last seal. A delta here is
// 126 bytes with its footer, so the 4 KiB budget seals every 33 versions;
// an empty one is the 52-byte footer alone, and the log seals every 79.
func TestSmallStateKeepsBoundedLog(t *testing.T) {
	opts := Options{FS: fsx.NoSync(), Dir: t.TempDir(), MemtableBytes: 4 << 10}
	tr := mustOpen(t, opts)
	value := bytes.Repeat([]byte("v"), 64)
	check := func(last int64, bound int) {
		t.Helper()
		if _, err := tr.Maintain(last); err != nil {
			t.Fatal(err)
		}
		l, err := listDir(opts.FS, opts.Dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.deltas) > bound {
			t.Errorf("%d delta files left after Maintain(%d); want at most %d", len(l.deltas), last, bound)
		}
		re := mustOpen(t, Options{FS: opts.FS, Dir: opts.Dir, MemtableBytes: opts.MemtableBytes})
		if err := re.Load(last); err != nil {
			t.Fatal(err)
		}
		if replayed := last + 1 - re.memFrom; replayed > int64(bound) {
			t.Errorf("Load(%d) replays %d deltas; want at most %d", last, replayed, bound)
		}
		if v, ok, err := re.GetBytes([]byte("counter")); err != nil || !ok || !bytes.Equal(v, value) || re.NumKeys() != 1 {
			t.Fatalf("after reload at %d: Get = %q, %v, %v; NumKeys %d", last, v, ok, err, re.NumKeys())
		}
	}
	const versions = 500
	for v := int64(0); v < versions; v++ {
		commit(t, tr, v, map[string][]byte{"counter": append([]byte(nil), value...)})
	}
	check(versions-1, 40)
	// Empty versions, through a tree reopened every 20 of them: a restart
	// counts the log it replays, or no seal would ever come.
	for v := int64(versions); v < 2*versions; v++ {
		if v%20 == 0 {
			tr.Close()
			tr = mustOpen(t, opts)
			if err := tr.Load(v - 1); err != nil {
				t.Fatal(err)
			}
		}
		commit(t, tr, v, nil)
	}
	check(2*versions-1, 80)
}
