package state

import (
	"bytes"
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
// leaves the files the parent commit left for it: every delta, snapshot,
// SSTable and manifest, on both backends, byte for byte. What is sorted once
// at Commit is what sort.Strings gave at encode time and again at flush, and
// the live-key counts the manifests carry come out the same.
func TestStateBytesMatchParent(t *testing.T) {
	want := filesUnder(t, filepath.Join("testdata", "parent-state"))
	got := map[string][]byte{}
	for _, backend := range []Backend{BackendMemory, BackendLSM} {
		dir := t.TempDir()
		if err := writeStateFixture(dir, backend); err != nil {
			t.Fatal(err)
		}
		for name, data := range filesUnder(t, dir) {
			got[name] = data
		}
	}
	kinds := map[string]int{}
	for name, data := range got {
		kinds[string(name[:strings.Index(name, "/")])+filepath.Ext(name)]++
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
	for _, kind := range []string{"memory.delta", "memory.snapshot", "lsm.delta", "lsm.sst", "lsm.manifest"} {
		if kinds[kind] < 2 {
			t.Errorf("the schedule left %d %s files; want at least 2", kinds[kind], kind)
		}
	}
}
