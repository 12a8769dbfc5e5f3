package state

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"structream/internal/fsx"
)

// The files under testdata/parent-state were written through state.Store by
// the commit before the staging table and the sorted batch (7a45dfc), when an
// epoch's delta was three Go maps ordered by sort.Strings at encode time and
// again at flush. This file is their definition — a scripted commit schedule
// that is a pure function of the version — and compiles at that commit too,
// which is how they were produced:
//
//	cp fixture_gen_test.go <checkout of 7a45dfc>/internal/state/
//	STATE_WRITE_FIXTURE=<dir> go test -run TestWriteStateFixture ./internal/state
//
// fixture_test.go runs the same schedule with the current code and compares
// every file it leaves with those, byte for byte.
const (
	stateFixtureVersions = 12
	stateFixtureUniverse = 90
	// The seal threshold: the ordinary commits below stay under it together
	// for a while, version 7 crosses it alone.
	stateFixtureMemtable = 3 << 10
)

func stateFixtureKey(i int) []byte { return []byte(fmt.Sprintf("eL\x05grp-%04d", i)) }

func stateFixtureValue(v int64, i int) []byte {
	return []byte(fmt.Sprintf("%04d@%d:%020d", i, v, int64(i)*7919+v))
}

// stateFixtureCommit stages version v's mutations, in an order that is
// anything but ascending. Some keys are read first, some hinted, most
// written blind: the live-key count a manifest records has to come out the
// same by every route.
func stateFixtureCommit(s *Store, v int64) {
	rng := rand.New(rand.NewSource(v))
	pick := func() int { return rng.Intn(stateFixtureUniverse) }
	switch v {
	case 5: // an empty commit
		return
	case 6: // a one-key commit
		s.Put(stateFixtureKey(pick()), stateFixtureValue(v, 0))
		return
	case 7: // crosses the seal threshold on its own
		for _, i := range rng.Perm(stateFixtureUniverse)[:60] {
			s.Put(stateFixtureKey(i), append(stateFixtureValue(v, i), make([]byte, 40)...))
		}
		return
	}
	for n := 0; n < 14; n++ { // puts and overwrites
		i := pick()
		s.Put(stateFixtureKey(i), stateFixtureValue(v, i))
	}
	for n := 0; n < 5; n++ { // deletes, of present and of absent keys
		s.Remove(stateFixtureKey(pick()))
	}
	for n := 0; n < 3; n++ { // delete, then put again
		i := pick()
		s.Remove(stateFixtureKey(i))
		s.Put(stateFixtureKey(i), stateFixtureValue(v, i+1000))
	}
	for n := 0; n < 3; n++ { // put, then delete
		i := pick()
		s.Put(stateFixtureKey(i), stateFixtureValue(v, i))
		s.Remove(stateFixtureKey(i))
	}
	for n := 0; n < 4; n++ { // read, then write or delete what was read
		i := pick()
		if _, ok := s.Get(stateFixtureKey(i)); ok && n%2 == 0 {
			s.Remove(stateFixtureKey(i))
		} else {
			s.Put(stateFixtureKey(i), stateFixtureValue(v, i+2000))
		}
	}
	keys := [][]byte{stateFixtureKey(pick()), stateFixtureKey(pick()), stateFixtureKey(pick())}
	s.ApplyBatch(keys, func(i int, existing []byte, ok bool) []byte {
		if ok && i == 1 {
			return nil
		}
		return stateFixtureValue(v, 3000+i)
	})
	// A key new by construction, put as the join puts its entries.
	s.PutNew([]byte(fmt.Sprintf("eL\x05new-%04d", v)), stateFixtureValue(v, 4000))
}

// writeStateFixture runs the schedule on one backend under root/<backend>,
// maintenance synchronous, and closes the provider.
func writeStateFixture(root string, backend Backend) error {
	p := NewProviderFS(fsx.NoSync(), filepath.Join(root, string(backend)))
	p.Backend = backend
	p.MemtableBytes = stateFixtureMemtable
	p.SnapshotInterval = 5
	defer p.Close()
	s, err := p.Open(ID{Operator: "join", Partition: 3}, -1)
	if err != nil {
		return err
	}
	for v := int64(1); v <= stateFixtureVersions; v++ {
		stateFixtureCommit(s, v)
		if err := s.Commit(v); err != nil {
			return err
		}
	}
	return s.Err()
}

func TestWriteStateFixture(t *testing.T) {
	dir := os.Getenv("STATE_WRITE_FIXTURE")
	if dir == "" {
		t.Skip("set STATE_WRITE_FIXTURE=<dir> to write the fixture with the code of this checkout")
	}
	for _, backend := range []Backend{BackendMemory, BackendLSM} {
		if err := writeStateFixture(dir, backend); err != nil {
			t.Fatal(err)
		}
	}
}
