package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"structream/internal/fsx"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// The tree under testdata/parent-sharded was written by the last commit
// whose Workers > 1 epochs sealed a WAL segment per state partition and
// committed through a barrier manifest (cfd5eaf). This file is its
// definition and compiles at that commit too, which is how it was produced:
//
//	cp sharded_fixture_gen_test.go <checkout of cfd5eaf>/internal/engine/
//	SHARDED_WRITE_FIXTURE=<dir> go test -run TestWriteShardedFixture ./internal/engine
//
// It holds three directories. checkpoint/ and sink/ are what a Workers: 2
// run left when the process died at the barrier manifest of epoch 3: epochs
// 0–2 committed, each with its three seals and a manifest naming their
// digests; epoch 3 logged, its three state deltas and its sink file durable,
// its three seals orphaned, no commit. golden/ is the sink of a fault-free
// single-worker run over the same six epochs.
// TestParentShardedCheckpointContinues opens a copy with the current code.
const (
	shardedFixtureEpochs     = 6
	shardedFixtureCrashEpoch = 3
	shardedFixtureParts      = 3
	// Above twice the 256-record floor of a map slice, so Workers: 2 cuts
	// each epoch's range into two map tasks.
	shardedFixtureRowsPerEpoch = 600
)

var shardedFixtureSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "n", Type: sql.TypeInt64},
)

// shardedFixtureRun drives a keyed count/sum in Update mode over epochs'
// worth of preloaded rows — row i is a pure function of i — to completion
// or to fsys's injected crash, one epoch per shardedFixtureRowsPerEpoch
// records.
func shardedFixtureRun(t *testing.T, ckpt, sinkDir string, fsys fsx.FS, workers, epochs int) (*StreamingQuery, error) {
	t.Helper()
	src := sources.NewMemorySource("events", shardedFixtureSchema)
	for i := 0; i < epochs*shardedFixtureRowsPerEpoch; i++ {
		src.AddData(sql.Row{fmt.Sprintf("k%02d", i*7919%23), int64(i%1000 - 300)})
	}
	q := compile(t, &logical.Aggregate{
		Child: &logical.Scan{Name: "events", Streaming: true, Out: shardedFixtureSchema},
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs: []logical.NamedAgg{
			{Agg: sql.CountAll(), Name: "cnt"},
			{Agg: sql.SumOf(sql.Col("n")), Name: "total"},
		},
	}, logical.Update, nil)
	sq, err := Start(q, map[string]sources.Source{"events": src}, &sinks.JSONFileSink{Dir: sinkDir, FS: fsys}, Options{
		Checkpoint:           ckpt,
		FS:                   fsys,
		Workers:              workers,
		NumPartitions:        shardedFixtureParts,
		MaxRecordsPerTrigger: shardedFixtureRowsPerEpoch,
		Trigger:              ProcessingTimeTrigger{Interval: time.Hour}, // driven manually
	})
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { sq.Stop() })
	return sq, sq.ProcessAllAvailable()
}

func TestWriteShardedFixture(t *testing.T) {
	dir := os.Getenv("SHARDED_WRITE_FIXTURE")
	if dir == "" {
		t.Skip("set SHARDED_WRITE_FIXTURE=<dir> to write the fixture with the code of this checkout")
	}
	if _, err := shardedFixtureRun(t, t.TempDir(), filepath.Join(dir, "golden"), fsx.Real(), 1, shardedFixtureEpochs); err != nil {
		t.Fatal(err)
	}
	commitWrites := 0
	ffs := fsx.NewFaultFS(fsx.Real())
	ffs.Mode = fsx.CrashBefore
	ffs.CrashWhen = func(kind fsx.OpKind, path string) bool {
		if kind == fsx.OpWrite && strings.Contains(filepath.ToSlash(path), "/commits/") {
			commitWrites++
		}
		return commitWrites == shardedFixtureCrashEpoch+1
	}
	_, err := shardedFixtureRun(t, filepath.Join(dir, "checkpoint"), filepath.Join(dir, "sink"), ffs, 2, shardedFixtureEpochs)
	if !ffs.Crashed() || err == nil {
		t.Fatalf("crash at epoch %d's commit never fired (err=%v)", shardedFixtureCrashEpoch, err)
	}
}
