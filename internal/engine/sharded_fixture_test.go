package engine

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"structream/internal/fsx"
)

// copyTree copies the files under src to the same paths under dst, so a test
// can write next to a fixture's files.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestParentShardedCheckpointContinues: a checkpoint the parent commit left
// at Workers: 2 — barrier manifests for epochs 0–2, orphaned seals and
// durable state deltas for the uncommitted epoch 3 (see
// sharded_fixture_gen_test.go) — opens with the one commit protocol at
// Workers 2 and 1: the manifests count as commits, epoch 3 replays from its
// logged offsets, epochs 4 and 5 follow, the sink converges to the parent's
// fault-free single-worker bytes, and no segments/ is left.
func TestParentShardedCheckpointContinues(t *testing.T) {
	fixture := filepath.Join("testdata", "parent-sharded")
	// The fixture has to be what the comment says, or the run below shows
	// less than it seems to.
	manifest, err := os.ReadFile(filepath.Join(fixture, "checkpoint", "commits", fmt.Sprintf("%012d.json", shardedFixtureCrashEpoch-1)))
	if err != nil || !bytes.Contains(manifest, []byte(`"segments": [`)) {
		t.Fatalf("epoch %d's commit is no barrier manifest (%v):\n%s", shardedFixtureCrashEpoch-1, err, manifest)
	}
	seals, _ := filepath.Glob(filepath.Join(fixture, "checkpoint", "segments", fmt.Sprintf("%012d.part-*.json", shardedFixtureCrashEpoch)))
	deltas, _ := filepath.Glob(filepath.Join(fixture, "checkpoint", "state", "*", "*", fmt.Sprintf("%d.delta", shardedFixtureCrashEpoch)))
	if len(seals) != shardedFixtureParts || len(deltas) != shardedFixtureParts {
		t.Fatalf("the tail epoch left %d seals and %d deltas, want %d of each", len(seals), len(deltas), shardedFixtureParts)
	}
	if _, err := os.Stat(filepath.Join(fixture, "checkpoint", "commits", fmt.Sprintf("%012d.json", shardedFixtureCrashEpoch))); !os.IsNotExist(err) {
		t.Fatalf("the tail epoch committed (stat: %v)", err)
	}
	golden := dirContents(t, filepath.Join(fixture, "golden"))
	if len(golden) != shardedFixtureEpochs {
		t.Fatalf("golden sink holds %d files, want %d", len(golden), shardedFixtureEpochs)
	}

	for _, workers := range []int{2, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ckpt, sinkDir := t.TempDir(), t.TempDir()
			copyTree(t, filepath.Join(fixture, "checkpoint"), ckpt)
			copyTree(t, filepath.Join(fixture, "sink"), sinkDir)
			sq, err := shardedFixtureRun(t, ckpt, sinkDir, fsx.NoSync(), workers, shardedFixtureEpochs)
			if err != nil {
				t.Fatal(err)
			}
			var ran []int64
			for _, p := range sq.EventLog().Recent(0) {
				ran = append(ran, p.Epoch)
			}
			if !slices.Equal(ran, []int64{3, 4, 5}) {
				t.Errorf("ran epochs %v, want the tail replayed and two more (3, 4, 5)", ran)
			}
			if d := sinkDiff(golden, dirContents(t, sinkDir)); d != "" {
				t.Errorf("sink did not converge to the parent's fault-free output:\n%s", d)
			}
			if names := dirNames(t, ckpt); !slices.Equal(names, []string{"commits", "offsets", "state"}) {
				t.Errorf("checkpoint holds %v, want commits, offsets and state", names)
			}
			if commits, _ := filepath.Glob(filepath.Join(ckpt, "commits", "*.json")); len(commits) != shardedFixtureEpochs {
				t.Errorf("%d epochs committed, want %d", len(commits), shardedFixtureEpochs)
			}
		})
	}
}
