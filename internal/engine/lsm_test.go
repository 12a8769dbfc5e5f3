package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structream/internal/lsm"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/state"
)

// TestLSMBackendSpillsAndRestoresVersions is the acceptance scenario for
// the larger-than-memtable path: a stateful aggregation whose state is
// several times the memtable threshold spills to SSTables (visible in
// QueryProgress stateOperators and the metric registry), and after the query
// stops every committed epoch's state can still be reopened at exactly its
// version — the §7.2 rollback contract, served by manifest + delta replay.
func TestLSMBackendSpillsAndRestoresVersions(t *testing.T) {
	const epochs, perEpoch = 5, 64
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Aggregate{
		Child: streamScan("events"),
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
	q := compile(t, plan, logical.Update, nil)
	sink := sinks.NewMemorySink()
	ckpt := t.TempDir()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{
		Checkpoint:         ckpt,
		NumPartitions:      1,
		StateMemtableBytes: 2048, // total state is ~10× this: must spill
		// Synchronous maintenance makes the flush/compaction counts this
		// test asserts deterministic: with the background default the last
		// compaction may still be in flight when progress is snapshotted.
		StateMaintenanceScheduler: lsm.SyncScheduler(),
	})

	// Every row gets a fresh group key, so state grows by exactly perEpoch
	// keys per epoch — which makes NumKeys at any historical version exact.
	for e := 0; e < epochs; e++ {
		for i := 0; i < perEpoch; i++ {
			src.AddData(sql.Row{fmt.Sprintf("k%04d", e*perEpoch+i), 1.0, int64(e) * sec})
		}
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}
	// One more epoch over the first epoch's keys, all of them spilled by
	// now: reading them back is what brings data blocks through the cache.
	// (Fresh keys stop at the bloom filters, and a merge reads its inputs
	// past the cache, so the epochs above may leave it empty.)
	for i := 0; i < perEpoch; i++ {
		src.AddData(sql.Row{fmt.Sprintf("k%04d", i), 1.0, int64(epochs) * sec})
	}
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}

	p, ok := sq.LastProgress()
	if !ok || len(p.StateOperators) == 0 {
		t.Fatalf("no stateOperators in progress: %+v ok=%v", p, ok)
	}
	so := p.StateOperators[0]
	if so.SSTables == 0 || so.SSTableBytes == 0 || so.Flushes == 0 {
		t.Errorf("state never spilled: ssTables=%d bytes=%d flushes=%d", so.SSTables, so.SSTableBytes, so.Flushes)
	}
	if so.BlockCacheHits+so.BlockCacheMisses == 0 {
		t.Error("block cache saw no traffic")
	}
	if so.BlockCacheHitRate < 0 || so.BlockCacheHitRate > 1 {
		t.Errorf("blockCacheHitRate = %v, want within [0,1]", so.BlockCacheHitRate)
	}
	if got := sq.Metrics().Gauge("stateSSTables").Value(); got == 0 {
		t.Error("stateSSTables gauge not populated")
	}
	if got := sq.Metrics().Gauge("stateBlockCacheBytes").Value(); got == 0 {
		t.Error("stateBlockCacheBytes gauge not populated")
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}

	// Discover the aggregation's state store (one operator, partition 0).
	stateRoot := filepath.Join(ckpt, "state")
	ents, err := os.ReadDir(stateRoot)
	if err != nil || len(ents) == 0 {
		t.Fatalf("state dir: %v entries err=%v", ents, err)
	}
	id := state.ID{Operator: ents[0].Name(), Partition: 0}

	// A cold provider must reopen EVERY committed version with exactly the
	// key count that version had.
	prov := state.NewProvider(ckpt)
	defer prov.Close()
	versions, err := prov.Versions(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != epochs+1 {
		t.Fatalf("committed state versions = %v, want %d of them", versions, epochs+1)
	}
	for _, v := range versions {
		s, err := prov.Open(id, v)
		if err != nil {
			t.Fatalf("reopen version %d: %v", v, err)
		}
		// The re-read epoch added no key.
		if got, want := int64(s.NumKeys()), min(v+1, epochs)*perEpoch; got != want {
			t.Errorf("version %d: NumKeys = %d, want %d", v, got, want)
		}
	}
}

// deferSched postpones every scheduler-decided maintenance step, so sealed
// memtables pile up (bounded by the MaxPendingMemtables ceiling) and the
// flush backlog is deterministically nonzero when progress is snapshotted.
type deferSched struct{}

func (deferSched) Async() bool              { return false }
func (deferSched) StepsAfterCommit(int) int { return 0 }

// TestLSMFlushBacklogSurfacesInProgress pins the admission-control signal's
// reporting path: a backed-up tree must surface flushBacklog through
// QueryProgress stateOperators[] — including in the marshaled JSON, where
// the field is omitempty and so only a genuinely nonzero backlog proves the
// plumbing.
func TestLSMFlushBacklogSurfacesInProgress(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Aggregate{
		Child: streamScan("events"),
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
	q := compile(t, plan, logical.Update, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{
		Checkpoint:                t.TempDir(),
		NumPartitions:             1,
		StateMemtableBytes:        1, // every commit seals
		StateMaintenanceScheduler: deferSched{},
	})
	for e := 0; e < 3; e++ {
		src.AddData(sql.Row{fmt.Sprintf("k%d", e), 1.0, int64(e) * sec})
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
	}
	p, ok := sq.LastProgress()
	if !ok || len(p.StateOperators) == 0 {
		t.Fatalf("no stateOperators: %+v ok=%v", p, ok)
	}
	if p.StateOperators[0].FlushBacklog == 0 {
		t.Fatalf("flushBacklog not surfaced: %+v", p.StateOperators[0])
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"flushBacklog"`) {
		t.Fatalf("progress JSON missing flushBacklog:\n%s", raw)
	}
	if got := sq.Metrics().Gauge("stateFlushBacklog").Value(); got == 0 {
		t.Error("stateFlushBacklog gauge not populated")
	}
}
