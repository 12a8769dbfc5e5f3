package state

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// filesUnder reads every file below root, keyed by its path relative to it.
func filesUnder(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestStateBytesMatchParent: the scripted schedule of fixture_gen_test.go —
// staged in no particular order, through reads, hints and blind writes —
// leaves the files the parent commit left for it: every delta, SSTable and
// manifest, byte for byte. What is sorted once at Commit is what
// sort.Strings gave at encode time and again at flush, and the live-key
// counts the manifests carry come out the same.
func TestStateBytesMatchParent(t *testing.T) {
	want := filesUnder(t, filepath.Join("testdata", "parent-state", "lsm"))
	dir := t.TempDir()
	if err := writeStateFixture(dir); err != nil {
		t.Fatal(err)
	}
	got := filesUnder(t, filepath.Join(dir, "lsm"))
	kinds := map[string]int{}
	for name, data := range got {
		kinds[filepath.Ext(name)]++
		ref, ok := want[name]
		if !ok {
			t.Errorf("%s: written now, not by the parent", name)
		} else if !bytes.Equal(data, ref) {
			t.Errorf("%s: %d bytes differ from the parent's %d", name, len(data), len(ref))
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: written by the parent, not now", name)
		}
	}
	// The schedule has to reach every kind of file, or the comparison above
	// says less than it seems to.
	for _, kind := range []string{".delta", ".sst", ".manifest"} {
		if kinds[kind] < 2 {
			t.Errorf("the schedule left %d %s files; want at least 2", kinds[kind], kind)
		}
	}
}

// fixtureID is the store the fixture schedule writes.
var fixtureID = ID{Operator: "join", Partition: 3}

func fixtureStoreDir(root string) string { return filepath.Join(root, "state", "join", "3") }

// copyFixture copies testdata/parent-state/<kind> into a fresh provider root:
// "memory" is what the map store left for the fixture schedule.
func copyFixture(t *testing.T, kind string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(fixtureStoreDir(root), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range filesUnder(t, fixtureStoreDir(filepath.Join("testdata", "parent-state", kind))) {
		if err := os.WriteFile(filepath.Join(fixtureStoreDir(root), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// contents opens the fixture store under root at version and renders what
// Iterate yields, with the key count.
func contents(t *testing.T, root string, version int64) string {
	t.Helper()
	p := NewProvider(root)
	p.ReadOnly = true
	defer p.Close()
	s, err := p.Open(fixtureID, version)
	if err != nil {
		t.Fatalf("%s at %d: %v", root, version, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d keys\n", s.NumKeys())
	s.Iterate(func(k, v []byte) bool {
		fmt.Fprintf(&b, "%q=%q\n", k, v)
		return true
	})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMemoryCheckpointOpens: a checkpoint the map store wrote — deltas plus a
// full .snapshot every five — opens at every version with the contents the
// tree's own files for the same schedule give, from the deltas alone below
// the first snapshot and from the newest snapshot at or below the version
// above it, so also with the deltas the snapshots cover deleted.
func TestMemoryCheckpointOpens(t *testing.T) {
	memory := filepath.Join("testdata", "parent-state", "memory")
	lsm := filepath.Join("testdata", "parent-state", "lsm")
	trimmed := copyFixture(t, "memory")
	for v := 1; v <= 10; v++ {
		if err := os.Remove(filepath.Join(fixtureStoreDir(trimmed), fmt.Sprintf("%d.delta", v))); err != nil {
			t.Fatal(err)
		}
	}
	for v := int64(1); v <= stateFixtureVersions; v++ {
		want := contents(t, lsm, v)
		if got := contents(t, memory, v); got != want {
			t.Errorf("version %d: the map store's checkpoint opens as\n%s\nthe tree's as\n%s", v, got, want)
		}
		if v >= 10 {
			if got := contents(t, trimmed, v); got != want {
				t.Errorf("version %d without the deltas 10.snapshot covers:\n%s\nwant\n%s", v, got, want)
			}
		}
	}
}

// TestMemoryCheckpointContinues: the tree commits on over a checkpoint the
// map store wrote as over its own, seals the snapshot base into its tables,
// and then collects the snapshots like any file below its anchor manifest;
// a commit below a snapshot's version abandons it with the timeline it
// belonged to.
func TestMemoryCheckpointContinues(t *testing.T) {
	commit13 := func(root string, maintain bool) {
		p := NewProvider(root)
		defer p.Close()
		p.MemtableBytes = 1 << 10 // the replayed snapshot alone fills it
		s, err := p.Open(fixtureID, 12)
		if err != nil {
			t.Fatal(err)
		}
		s.Put([]byte("after"), []byte("13"))
		if err := s.Commit(13); err != nil {
			t.Fatal(err)
		}
		if maintain {
			if err := p.Maintenance(13); err != nil {
				t.Fatal(err)
			}
		}
	}
	root, ref := copyFixture(t, "memory"), copyFixture(t, "lsm")
	commit13(root, true)
	commit13(ref, false)
	for _, name := range []string{"5.snapshot", "10.snapshot", "12.delta"} {
		if _, err := os.Stat(filepath.Join(fixtureStoreDir(root), name)); !os.IsNotExist(err) {
			t.Errorf("%s survived maintenance at 13: %v", name, err)
		}
	}
	if got, want := contents(t, root, 13), contents(t, ref, 13); got != want {
		t.Errorf("version 13 reopens as\n%s\nthe same commit over the tree's checkpoint as\n%s", got, want)
	}

	// Roll back below 10.snapshot and commit a different version 8.
	root = copyFixture(t, "memory")
	p := NewProvider(root)
	defer p.Close()
	s, err := p.Open(fixtureID, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("rewritten"), []byte("8"))
	if err := s.Commit(8); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(fixtureStoreDir(root), "10.snapshot")); !os.IsNotExist(err) {
		t.Errorf("10.snapshot of the abandoned timeline survived the commit of 8: %v", err)
	}
	if got := contents(t, root, 8); !strings.Contains(got, `"rewritten"="8"`) {
		t.Errorf("version 8 reopens without its commit:\n%s", got)
	}
}
