package state

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func open(t *testing.T, p *Provider, version int64) *Store {
	t.Helper()
	s, err := p.Open(ID{Operator: "agg", Partition: 0}, version)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetCommit(t *testing.T) {
	p := NewProvider(t.TempDir())
	s := open(t, p, -1)
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("b"), []byte("2"))
	if v, ok := s.Get([]byte("a")); !ok || string(v) != "1" {
		t.Errorf("get staged a = %q ok=%v", v, ok)
	}
	if err := s.Commit(0); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 0 {
		t.Errorf("version = %d", s.Version())
	}
	if v, ok := s.Get([]byte("b")); !ok || string(v) != "2" {
		t.Errorf("get committed b = %q ok=%v", v, ok)
	}
}

func TestRemoveAndOverwrite(t *testing.T) {
	p := NewProvider(t.TempDir())
	s := open(t, p, -1)
	s.Put([]byte("k"), []byte("v1"))
	s.Commit(0)
	s.Put([]byte("k"), []byte("v2"))
	if v, _ := s.Get([]byte("k")); string(v) != "v2" {
		t.Errorf("staged overwrite = %q", v)
	}
	s.Remove([]byte("k"))
	if _, ok := s.Get([]byte("k")); ok {
		t.Error("staged removal should hide key")
	}
	s.Commit(1)
	if _, ok := s.Get([]byte("k")); ok {
		t.Error("committed removal should delete key")
	}
	if s.NumKeys() != 0 {
		t.Errorf("NumKeys = %d", s.NumKeys())
	}
}

func TestAbortDiscardsStaged(t *testing.T) {
	p := NewProvider(t.TempDir())
	s := open(t, p, -1)
	s.Put([]byte("a"), []byte("1"))
	s.Commit(0)
	s.Put([]byte("a"), []byte("XXX"))
	s.Put([]byte("new"), []byte("y"))
	s.Remove([]byte("a"))
	s.Abort()
	if v, ok := s.Get([]byte("a")); !ok || string(v) != "1" {
		t.Errorf("after abort a = %q ok=%v", v, ok)
	}
	if _, ok := s.Get([]byte("new")); ok {
		t.Error("aborted put visible")
	}
}

func TestReloadAtVersion(t *testing.T) {
	dir := t.TempDir()
	p := NewProvider(dir)
	s := open(t, p, -1)
	for v := int64(0); v < 5; v++ {
		s.Put([]byte("counter"), []byte(fmt.Sprint(v)))
		s.Put([]byte(fmt.Sprintf("key%d", v)), []byte("x"))
		if err := s.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	// Reload each historical version from a fresh provider (simulating a
	// restart) and check its contents.
	for v := int64(0); v < 5; v++ {
		p2 := NewProvider(dir)
		s2, err := p2.Open(ID{Operator: "agg", Partition: 0}, v)
		if err != nil {
			t.Fatalf("open at %d: %v", v, err)
		}
		if got, _ := s2.Get([]byte("counter")); string(got) != fmt.Sprint(v) {
			t.Errorf("version %d counter = %q", v, got)
		}
		if s2.NumKeys() != int(v)+2 {
			t.Errorf("version %d keys = %d", v, s2.NumKeys())
		}
	}
}

func TestSnapshotAndDeltaChain(t *testing.T) {
	dir := t.TempDir()
	p := NewProvider(dir)
	p.MemtableBytes = 100 // a seal, and so a manifest, every few deltas
	s := open(t, p, -1)
	for v := int64(0); v <= 10; v++ {
		s.Put([]byte(fmt.Sprintf("k%d", v)), []byte("v"))
		if err := s.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	// Reload version 10: the newest manifest's tables plus the deltas after.
	p2 := NewProvider(dir)
	s2, err := p2.Open(ID{Operator: "agg", Partition: 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumKeys() != 11 {
		t.Errorf("keys = %d", s2.NumKeys())
	}
	// A version in the middle reconstructs too.
	p3 := NewProvider(dir)
	s3, _ := p3.Open(ID{Operator: "agg", Partition: 0}, 7)
	if s3.NumKeys() != 8 {
		t.Errorf("keys@7 = %d", s3.NumKeys())
	}
}

func TestMissingVersionsAreSkipped(t *testing.T) {
	// Operators may not commit on every epoch; gaps must reconstruct.
	dir := t.TempDir()
	p := NewProvider(dir)
	s := open(t, p, -1)
	s.Put([]byte("a"), []byte("1"))
	s.Commit(2) // first commit at version 2
	s.Put([]byte("b"), []byte("2"))
	s.Commit(7) // then version 7
	p2 := NewProvider(dir)
	s2, err := p2.Open(ID{Operator: "agg", Partition: 0}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumKeys() != 2 {
		t.Errorf("keys = %d", s2.NumKeys())
	}
}

func TestCommitMonotonic(t *testing.T) {
	p := NewProvider(t.TempDir())
	s := open(t, p, -1)
	s.Put([]byte("a"), []byte("1"))
	if err := s.Commit(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(3); err == nil {
		t.Error("re-committing same version should error")
	}
	if err := s.Commit(1); err == nil {
		t.Error("committing older version should error")
	}
}

func TestIterate(t *testing.T) {
	p := NewProvider(t.TempDir())
	s := open(t, p, -1)
	s.Put([]byte("a"), []byte("1"))
	s.Put([]byte("b"), []byte("2"))
	s.Commit(0)
	s.Put([]byte("c"), []byte("3")) // staged new key
	s.Remove([]byte("a"))           // staged delete
	s.Put([]byte("b"), []byte("9")) // staged overwrite
	got := map[string]string{}
	s.Iterate(func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if len(got) != 2 || got["b"] != "9" || got["c"] != "3" {
		t.Errorf("iterate = %v", got)
	}
	// Early stop.
	calls := 0
	s.Iterate(func(k, v []byte) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early-stop calls = %d", calls)
	}
}

func TestSeparateOperatorsAndPartitions(t *testing.T) {
	p := NewProvider(t.TempDir())
	a, _ := p.Open(ID{Operator: "agg", Partition: 0}, -1)
	b, _ := p.Open(ID{Operator: "agg", Partition: 1}, -1)
	c, _ := p.Open(ID{Operator: "dedup", Partition: 0}, -1)
	a.Put([]byte("k"), []byte("a"))
	b.Put([]byte("k"), []byte("b"))
	c.Put([]byte("k"), []byte("c"))
	a.Commit(0)
	b.Commit(0)
	c.Commit(0)
	for _, tc := range []struct {
		s    *Store
		want string
	}{{a, "a"}, {b, "b"}, {c, "c"}} {
		if v, _ := tc.s.Get([]byte("k")); string(v) != tc.want {
			t.Errorf("%v k = %q, want %q", tc.s.ID(), v, tc.want)
		}
	}
}

func TestVersionsListing(t *testing.T) {
	p := NewProvider(t.TempDir())
	s := open(t, p, -1)
	s.Put([]byte("x"), []byte("1"))
	s.Commit(0)
	s.Put([]byte("x"), []byte("2"))
	s.Commit(1)
	vs, err := p.Versions(ID{Operator: "agg", Partition: 0})
	if err != nil || len(vs) != 2 || vs[0] != 0 || vs[1] != 1 {
		t.Errorf("versions = %v err=%v", vs, err)
	}
	// Missing store has no versions, no error.
	vs, err = p.Versions(ID{Operator: "nope", Partition: 0})
	if err != nil || vs != nil {
		t.Errorf("versions of missing = %v err=%v", vs, err)
	}
}

func TestMaintenanceRemovesOldFiles(t *testing.T) {
	dir := t.TempDir()
	p := NewProvider(dir)
	p.MemtableBytes = 100 // a seal, and so a manifest, every few deltas
	s := open(t, p, -1)
	for v := int64(0); v <= 9; v++ {
		s.Put([]byte(fmt.Sprintf("k%d", v)), []byte("v"))
		s.Commit(v)
	}
	before, _ := p.Versions(ID{Operator: "agg", Partition: 0})
	if err := p.Maintenance(8); err != nil {
		t.Fatal(err)
	}
	after, _ := p.Versions(ID{Operator: "agg", Partition: 0})
	if len(after) >= len(before) {
		t.Errorf("maintenance removed nothing: before=%v after=%v", before, after)
	}
	// Version 9 (and 8) must still reconstruct.
	p2 := NewProvider(dir)
	s2, err := p2.Open(ID{Operator: "agg", Partition: 0}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumKeys() != 10 {
		t.Errorf("keys@9 after maintenance = %d", s2.NumKeys())
	}
}

func TestEmptyCommitStillRecorded(t *testing.T) {
	dir := t.TempDir()
	p := NewProvider(dir)
	s := open(t, p, -1)
	if err := s.Commit(0); err != nil {
		t.Fatal(err)
	}
	p2 := NewProvider(dir)
	if _, err := p2.Open(ID{Operator: "agg", Partition: 0}, 0); err != nil {
		t.Errorf("empty version did not reload: %v", err)
	}
}

func TestDiskUsage(t *testing.T) {
	p := NewProvider(t.TempDir())
	s := open(t, p, -1)
	s.Put([]byte("key"), make([]byte, 1000))
	s.Commit(0)
	n, err := p.DiskUsage()
	if err != nil || n < 1000 {
		t.Errorf("disk usage = %d err=%v", n, err)
	}
}

// TestRandomOpsMatchModel drives the store with random operations and
// compares against a plain map model, including a reload at every commit.
func TestRandomOpsMatchModel(t *testing.T) {
	dir := t.TempDir()
	p := NewProvider(dir)
	p.MemtableBytes = 1 << 10
	s := open(t, p, -1)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(1))
	version := int64(0)
	for step := 0; step < 2000; step++ {
		key := fmt.Sprintf("k%d", rng.Intn(50))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			val := fmt.Sprintf("v%d", rng.Intn(1000))
			s.Put([]byte(key), []byte(val))
			model[key] = val
		case 6, 7:
			s.Remove([]byte(key))
			delete(model, key)
		default:
			if err := s.Commit(version); err != nil {
				t.Fatal(err)
			}
			version++
		}
	}
	s.Commit(version)
	// Compare live contents to the model.
	if s.NumKeys() != len(model) {
		t.Fatalf("keys = %d, model = %d", s.NumKeys(), len(model))
	}
	for k, v := range model {
		if got, ok := s.Get([]byte(k)); !ok || string(got) != v {
			t.Errorf("key %s = %q ok=%v, want %q", k, got, ok, v)
		}
	}
	// Reload last version from disk and compare again.
	p2 := NewProvider(dir)
	s2, err := p2.Open(ID{Operator: "agg", Partition: 0}, version)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumKeys() != len(model) {
		t.Fatalf("reload keys = %d, model = %d", s2.NumKeys(), len(model))
	}
	for k, v := range model {
		if got, ok := s2.Get([]byte(k)); !ok || string(got) != v {
			t.Errorf("reload key %s = %q ok=%v, want %q", k, got, ok, v)
		}
	}
}

// TestBinaryValuesRoundTrip uses property testing over arbitrary byte
// values including empty and NUL-laden keys.
func TestBinaryValuesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := NewProvider(dir)
	s := open(t, p, -1)
	version := int64(0)
	f := func(key, value []byte) bool {
		if len(key) == 0 {
			key = []byte{0}
		}
		s.Put(key, value)
		if err := s.Commit(version); err != nil {
			return false
		}
		version++
		got, ok := s.Get(key)
		if !ok || string(got) != string(value) {
			return false
		}
		// Reload from disk too.
		p2 := NewProvider(dir)
		s2, err := p2.Open(ID{Operator: "agg", Partition: 0}, version-1)
		if err != nil {
			return false
		}
		got2, ok2 := s2.Get(key)
		return ok2 && string(got2) == string(value)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkCommitSmallDelta(b *testing.B) {
	p := NewProvider(b.TempDir())
	s, err := p.Open(ID{Operator: "agg", Partition: 0}, -1)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 100; k++ {
			s.Put([]byte(fmt.Sprintf("key%d", k)), val)
		}
		if err := s.Commit(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadVersion(b *testing.B) {
	dir := b.TempDir()
	p := NewProvider(dir)
	s, _ := p.Open(ID{Operator: "agg", Partition: 0}, -1)
	for v := int64(0); v < 20; v++ {
		for k := 0; k < 500; k++ {
			s.Put([]byte(fmt.Sprintf("key%d", k)), []byte(fmt.Sprint(v)))
		}
		s.Commit(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p2 := NewProvider(dir)
		if _, err := p2.Open(ID{Operator: "agg", Partition: 0}, 19); err != nil {
			b.Fatal(err)
		}
	}
}
