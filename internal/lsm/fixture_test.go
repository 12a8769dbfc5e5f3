package lsm

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"structream/internal/fsx"
)

// copyFixture copies the parent-written checkpoint into a scratch directory
// (commits and merges below write next to it).
func copyFixture(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "parent-checkpoint")
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkFixtureModel reads every key of the universe both ways and requires
// exactly the model: a present key with its value, a deleted or never
// written key absent.
func checkFixtureModel(t *testing.T, tr *Tree, want map[string][]byte) {
	t.Helper()
	keys := make([][]byte, fixtureUniverse)
	for i := range keys {
		keys[i] = []byte(fixtureKey(i))
	}
	values, oks := make([][]byte, len(keys)), make([]bool, len(keys))
	if err := tr.GetBatchBytes(keys, values, oks); err != nil {
		t.Fatalf("GetBatchBytes: %v", err)
	}
	for i, k := range keys {
		wv, wok := want[string(k)]
		v, ok, err := tr.GetBytes(k)
		if err != nil {
			t.Fatalf("GetBytes(%s): %v", k, err)
		}
		if ok != wok || !bytes.Equal(v, wv) {
			t.Fatalf("GetBytes(%s) = %q, %v; want %q, %v", k, v, ok, wv, wok)
		}
		if oks[i] != wok || !bytes.Equal(values[i], wv) {
			t.Fatalf("GetBatchBytes[%s] = %q, %v; want %q, %v", k, values[i], oks[i], wv, wok)
		}
	}
	if got := tr.NumKeys(); got != int64(len(want)) {
		t.Fatalf("NumKeys = %d, want %d", got, len(want))
	}
}

// TestParentCheckpointReadable loads a checkpoint written before the bloom
// format marker at every version it retains. Its filters were built from raw
// FNV-1a; probing them with keyHash would report present keys absent, so
// each table must be recognised as legacy and probed with the function that
// built it. Then the store moves on: commits on top, a merge that rewrites
// the old tables, and the same keys through the new filters.
func TestParentCheckpointReadable(t *testing.T) {
	dir := copyFixture(t)
	for v := int64(fixtureKeepFrom); v <= fixtureVersions; v++ {
		tr := mustOpen(t, fixtureOptions(dir))
		if err := tr.Load(v); err != nil {
			t.Fatalf("Load(%d): %v", v, err)
		}
		if len(tr.tables) < 10 {
			t.Fatalf("version %d loaded %d tables; the fixture should hold at least 10", v, len(tr.tables))
		}
		for _, tbl := range tr.tables {
			if !tbl.bloom.legacy {
				t.Fatalf("version %d: table %d not recognised as written before the format marker", v, tbl.seq)
			}
		}
		checkFixtureModel(t, tr, fixtureModel(v))
		tr.Close()
	}

	opts := fixtureOptions(dir)
	opts.MaxTierTables = 4
	tr := mustOpen(t, opts)
	if err := tr.Load(fixtureVersions); err != nil {
		t.Fatal(err)
	}
	model := fixtureModel(fixtureVersions)
	next := int64(fixtureVersions + 1)
	// A flush of about the fixture's table size: it is the newest table of
	// the run, and a run only takes older tables up to twice its own bytes.
	big := bytes.Repeat([]byte("n"), 600)
	commit(t, tr, next, map[string][]byte{fixtureKey(3): []byte("rewritten"), "new-key": big}, fixtureKey(5))
	model[fixtureKey(3)], model["new-key"] = []byte("rewritten"), big
	delete(model, fixtureKey(5))
	st := tr.Stats()
	if st.Compactions == 0 || st.Tables > 3 {
		t.Fatalf("%d equal-sized tables were not merged: %+v", fixtureVersions+1, st)
	}
	for _, tbl := range tr.tables {
		if tbl.bloom.legacy {
			t.Fatalf("table %d written by this code carries a legacy filter", tbl.seq)
		}
	}
	checkFixtureModel(t, tr, model)
	tr.Close()

	tr = mustOpen(t, opts)
	if err := tr.Load(next); err != nil {
		t.Fatalf("reload after the merge: %v", err)
	}
	checkFixtureModel(t, tr, model)
}

// TestUnknownFilterFormatRefused: a table whose filter header this code does
// not know is refused by name when it is opened — never read with a guess.
func TestUnknownFilterFormatRefused(t *testing.T) {
	b := newTableBuilder(256, bloomBitsPerKey)
	b.add([]byte("a"), []byte("1"), false)
	data, filter, index := splitTable(b.finish())
	filter = append([]byte{0x40 | 6}, filter[1:]...)
	img := sealTable(data, filter, index)
	path := filepath.Join(t.TempDir(), "0.sst")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openTable(fsx.Real(), path, 0, nil)
	if err == nil || !fsx.IsCorrupt(err) || !bytes.Contains([]byte(err.Error()), []byte("unknown bloom filter format 0x46")) {
		t.Fatalf("openTable = %v; want a corrupt-table error naming bloom filter format 0x46", err)
	}
}
