package lsm

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"structream/internal/fsx"
)

// The checkpoint fixture under testdata/parent-checkpoint was written by the
// commit before the bloom format marker (d3145f0): raw FNV-1a filters, one
// table per commit and no merge, tombstones in most tables. This file is
// the fixture's definition — the commit schedule is a pure function of the
// version — and compiles at that commit too, which is how the fixture was
// produced:
//
//	cp fixture_gen_test.go <checkout of d3145f0>/internal/lsm/
//	LSM_WRITE_FIXTURE=<dir> go test -run TestWriteCheckpointFixture ./internal/lsm
//
// fixture_test.go reads it back with the current code.
const (
	fixtureVersions = 30  // commits 1..30
	fixtureKeepFrom = 18  // Maintain(18): versions 18..30 stay loadable
	fixtureUniverse = 160 // keys k0000000..k0000159, the benchmark's shape
)

func fixtureKey(i int) string { return fmt.Sprintf("k%07d", i) }

// fixtureCommit is version v's mutations: a dozen puts and a few deletes of
// keys drawn from the universe, values naming the version that wrote them.
func fixtureCommit(v int64) (puts map[string][]byte, dels map[string]bool) {
	rng := rand.New(rand.NewSource(v))
	puts, dels = map[string][]byte{}, map[string]bool{}
	for n := 0; n < 12; n++ {
		k := fixtureKey(rng.Intn(fixtureUniverse))
		puts[k] = []byte(fmt.Sprintf("%s@%d:%032d", k, v, rng.Int63()))
	}
	for n := 0; n < 3; n++ {
		k := fixtureKey(rng.Intn(fixtureUniverse))
		delete(puts, k)
		dels[k] = true
	}
	return puts, dels
}

// fixtureModel is the live key set after versions 1..v.
func fixtureModel(v int64) map[string][]byte {
	model := map[string][]byte{}
	for i := int64(1); i <= v; i++ {
		puts, dels := fixtureCommit(i)
		for k, val := range puts {
			model[k] = val
		}
		for k := range dels {
			delete(model, k)
		}
	}
	return model
}

func fixtureOptions(dir string) Options {
	// A 1-byte memtable flushes every commit; a merge width no run reaches
	// keeps every flushed table.
	return Options{FS: fsx.Real(), Dir: dir, MemtableBytes: 1, BlockBytes: 256, MaxTierTables: 1 << 20}
}

func TestWriteCheckpointFixture(t *testing.T) {
	dir := os.Getenv("LSM_WRITE_FIXTURE")
	if dir == "" {
		t.Skip("set LSM_WRITE_FIXTURE=<dir> to write the fixture with the code of this checkout")
	}
	tr, err := Open(fixtureOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for v := int64(1); v <= fixtureVersions; v++ {
		puts, dels := fixtureCommit(v)
		if err := tr.Commit(v, puts, dels); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Maintain(fixtureKeepFrom); err != nil {
		t.Fatal(err)
	}
}
