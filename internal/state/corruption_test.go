package state

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structream/internal/fsx"
)

// storeDir is where the test store's files live under the provider root.
func storeDir(root string) string { return filepath.Join(root, "state", "agg", "0") }

// commitVersions builds a store with deltas at versions 0..n-1 and returns
// the provider root.
func commitVersions(t *testing.T, n int64) string {
	t.Helper()
	root := t.TempDir()
	p := NewProvider(root)
	s := open(t, p, -1)
	for v := int64(0); v < n; v++ {
		s.Put([]byte{byte('a' + v)}, []byte{byte('0' + v)})
		if err := s.Commit(v); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLoadVersionNamesTruncatedDelta(t *testing.T) {
	root := commitVersions(t, 5)
	victim := filepath.Join(storeDir(root), "4.delta")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(victim, data[:len(data)-3], 0o644)
	// A fresh provider (no cache) must refuse to load the torn version.
	_, err = NewProvider(root).Open(ID{Operator: "agg", Partition: 0}, 4)
	if err == nil {
		t.Fatal("truncated delta loaded without error")
	}
	if !strings.Contains(err.Error(), "4.delta") || !fsx.IsCorrupt(err) {
		t.Errorf("error should be a corruption naming 4.delta: %v", err)
	}
}

// TestLoadVersionNamesBitFlippedSnapshot: a .snapshot in a checkpoint the
// retired map store wrote is read as a base at or after its version, through
// the same CRC frame as a delta, so a flipped byte is a corruption naming it.
func TestLoadVersionNamesBitFlippedSnapshot(t *testing.T) {
	root := copyFixture(t, "memory")
	victim := filepath.Join(fixtureStoreDir(root), "10.snapshot")
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	os.WriteFile(victim, data, 0o644)
	_, err = NewProvider(root).Open(fixtureID, 12)
	if err == nil {
		t.Fatal("bit-flipped snapshot loaded without error")
	}
	if !strings.Contains(err.Error(), "10.snapshot") || !fsx.IsCorrupt(err) {
		t.Errorf("error should be a corruption naming 10.snapshot: %v", err)
	}
}

func TestCorruptUncommittedTailDoesNotPoisonRecovery(t *testing.T) {
	root := commitVersions(t, 5)
	// The crash tore the in-flight delta for version 5 (uncommitted: the
	// WAL has no commit for its epoch), so recovery reopens version 4.
	torn := filepath.Join(storeDir(root), "5.delta")
	os.WriteFile(torn, []byte("half a rec"), 0o644)
	s, err := NewProvider(root).Open(ID{Operator: "agg", Partition: 0}, 4)
	if err != nil {
		t.Fatalf("corrupt tail past the recovery version must not matter: %v", err)
	}
	if v, ok := s.Get([]byte("e")); !ok || string(v) != "4" {
		t.Errorf("recovered value = %q ok=%v", v, ok)
	}
	// Re-committing version 5 overwrites the torn file with a good one.
	s.Put([]byte("f"), []byte("5"))
	if err := s.Commit(5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProvider(root).Open(ID{Operator: "agg", Partition: 0}, 5); err != nil {
		t.Errorf("recommitted version unreadable: %v", err)
	}
}

func TestOpenReclaimsOrphanedTmp(t *testing.T) {
	root := commitVersions(t, 2)
	orphan := filepath.Join(storeDir(root), "2.delta.tmp")
	os.WriteFile(orphan, []byte("partial"), 0o644)
	if _, err := NewProvider(root).Open(ID{Operator: "agg", Partition: 0}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned tmp file not reclaimed by Open")
	}
}

func TestFaultFSProviderRoundTrip(t *testing.T) {
	root := t.TempDir()
	ffs := fsx.NewFaultFS(fsx.NoSync())
	p := NewProviderFS(ffs, root)
	s := open(t, p, -1)
	s.Put([]byte("k"), []byte("v"))
	if err := s.Commit(0); err != nil {
		t.Fatal(err)
	}
	if ffs.Ops() == 0 {
		t.Error("commit performed no counted operations")
	}
	got, err := NewProvider(root).Open(ID{Operator: "agg", Partition: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.Get([]byte("k")); !ok || string(v) != "v" {
		t.Errorf("value = %q ok=%v", v, ok)
	}
}

// TestFailedCommitRetryReloads sweeps a one-shot transient fault over every
// mutating filesystem operation of two epoch commits, and at each failure
// point replays the engine's task-retry protocol: reopen the store at the
// base version, restage the epoch's changes, recommit. The reopened store
// must serve exactly the base version's state — never a half-applied batch
// the failed commit left in the tree's memory — and the recommit must
// succeed rather than tripping a version guard on leftovers.
func TestFailedCommitRetryReloads(t *testing.T) {
	id := ID{Operator: "agg", Partition: 0}
	scenario := func(t *testing.T, ffs *fsx.FaultFS, budget int64) {
		root := t.TempDir()
		p := NewProviderFS(ffs, root)
		p.MemtableBytes = budget
		commit := func(version int64, stage func(s *Store)) {
			var lastErr error
			for attempt := 0; attempt < 2; attempt++ {
				s, err := p.Open(id, version-1)
				if err != nil {
					lastErr = err
					continue
				}
				stage(s)
				if lastErr = s.Commit(version); lastErr == nil {
					return
				}
			}
			t.Fatalf("commit %d failed after retry: %v", version, lastErr)
		}
		commit(0, func(s *Store) {
			s.Put([]byte("a"), []byte("a0"))
			s.Put([]byte("b"), []byte("b0"))
		})
		commit(1, func(s *Store) {
			// A retried reduce task recomputes from the reopened base state;
			// seeing epoch 1's own half-applied values here would double-apply.
			if v, ok := s.Get([]byte("a")); !ok || string(v) != "a0" {
				t.Fatalf("base state after reopen: a=%q ok=%v", v, ok)
			}
			s.Put([]byte("a"), []byte("a1"))
			s.Remove([]byte("b"))
		})
		fresh, err := NewProvider(root).Open(id, 1)
		if err != nil {
			t.Fatalf("fresh open at 1: %v", err)
		}
		if v, ok := fresh.Get([]byte("a")); !ok || string(v) != "a1" {
			t.Errorf("final a = %q ok=%v, want a1", v, ok)
		}
		if _, ok := fresh.Get([]byte("b")); ok {
			t.Error("final b survived its delete")
		}
	}
	// "memory": the default budget, nothing spills; "lsm": 16 bytes, an
	// SSTable flush inside each commit.
	for name, budget := range map[string]int64{"memory": 0, "lsm": 16} {
		t.Run(name, func(t *testing.T) {
			probe := fsx.NewFaultFS(fsx.NoSync())
			scenario(t, probe, budget)
			for k := int64(1); k <= probe.Ops(); k++ {
				ffs := fsx.NewFaultFS(fsx.NoSync())
				ffs.FailAt[k] = fsx.Transient("blip")
				scenario(t, ffs, budget)
			}
		})
	}
}
