package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"structream/internal/fsx"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

// TestTransientFaultBudgetAtEveryWorkerCount: the engine has one failure
// model, whatever Options.Workers says. A task runs once; a transient read
// fault is retried inside it, maxIORetries times. A burst within that
// budget costs exactly one retry per fault and no row; a burst one longer
// fails the epoch — with the same error at every worker count — and a
// restart from the checkpoint replays it to the exact result (§6.2:
// recovery is the WAL's epoch definition re-run, not an in-flight retry).
func TestTransientFaultBudgetAtEveryWorkerCount(t *testing.T) {
	// One shard's worth of rows, so the map stage is one task at every
	// worker count and the whole burst lands on it.
	rows := make([]sql.Row, minRecordsPerShard)
	var wantTotal float64
	for i := range rows {
		rows[i] = sql.Row{fmt.Sprintf("k%d", i%5), float64(i), int64(0)}
		wantTotal += float64(i)
	}
	checkResult := func(t *testing.T, sink *sinks.MemorySink) {
		t.Helper()
		var count int64
		var total float64
		for _, r := range sink.Rows() {
			count += r[1].(int64)
			total += r[2].(float64)
		}
		if count != int64(len(rows)) || total != wantTotal {
			t.Errorf("count=%d total=%v, want %d/%v", count, total, len(rows), wantTotal)
		}
	}
	failures := map[int]string{} // workers → the failed epoch's error
	for _, workers := range []int{0, 1, 2} {
		for _, burst := range []int{maxIORetries, maxIORetries + 1} {
			t.Run(fmt.Sprintf("workers=%d/burst=%d", workers, burst), func(t *testing.T) {
				inner := sources.NewMemorySource("events", eventsSchema)
				inner.AddData(rows...)
				flaky := sources.NewFlakySource(inner)
				flaky.FailReads(fmt.Errorf("flaky read: %w", fsx.ErrTransient), burst)
				sink, ckpt := sinks.NewMemorySink(), t.TempDir()
				start := func() *StreamingQuery {
					q := compile(t, countByKey(streamScan("events")), logical.Complete, nil)
					return startQuery(t, q, map[string]sources.Source{"events": flaky}, sink, Options{
						Checkpoint: ckpt, Workers: workers, NumPartitions: 4,
					})
				}
				sq := start()
				err := sq.ProcessAllAvailable()
				if burst <= maxIORetries {
					if err != nil {
						t.Fatalf("burst within the retry budget failed the epoch: %v", err)
					}
					if n := sq.Metrics().Counter("ioRetries").Value(); n != int64(burst) {
						t.Errorf("ioRetries = %d, want %d", n, burst)
					}
					checkResult(t, sink)
					return
				}
				if !errors.Is(err, fsx.ErrTransient) {
					t.Fatalf("burst beyond the retry budget returned %v, want the read fault", err)
				}
				failures[workers] = err.Error()
				if n := sq.Metrics().Counter("ioRetries").Value(); n != maxIORetries {
					t.Errorf("ioRetries = %d, want %d: the task must not run again", n, maxIORetries)
				}
				if len(sink.Rows()) != 0 {
					t.Errorf("failed epoch reached the sink: %v", sortedStrings(sink.Rows()))
				}
				sq.Stop()
				if err := start().ProcessAllAvailable(); err != nil {
					t.Fatalf("restart from the checkpoint: %v", err)
				}
				checkResult(t, sink)
			})
		}
	}
	if failures[0] == "" || failures[1] != failures[0] || failures[2] != failures[0] {
		t.Errorf("the failed epoch's error depends on the worker count: %q", failures)
	}
}

// TestBusToBusPipelineExactlyOnce chains two queries through the bus with
// a transactional sink — the §6.3 "stream to stream map operations" use
// case — and verifies no duplicates even when the first query's epochs
// replay.
func TestBusToBusPipelineExactlyOnce(t *testing.T) {
	broker := msgbus.NewBroker()
	in, _ := broker.CreateTopic("in", 2)
	mid, _ := broker.CreateTopic("mid", 2)
	control, _ := broker.CreateTopic("mid-commits", 1)

	// Query 1: in → transform → mid (transactional).
	src1 := sources.NewCodecBusSource("in", in, eventsSchema)
	plan1 := &logical.Project{Child: &logical.Filter{
		Child: streamScan("in"), Cond: sql.Gt(sql.Col("v"), sql.Lit(0.0))},
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("v"), sql.Col("ts")}}
	q1 := compile(t, plan1, logical.Append, nil)
	busSink := sinks.NewBusSink(mid)
	txSink, err := sinks.NewTransactionalBusSink(busSink, control)
	if err != nil {
		t.Fatal(err)
	}
	ckpt1 := t.TempDir()
	sq1 := startQuery(t, q1, map[string]sources.Source{"in": src1}, txSink, Options{Checkpoint: ckpt1})

	// Query 2: mid → counts.
	src2 := sources.NewCodecBusSource("mid", mid, eventsSchema)
	q2 := compile(t, countByKey(&logical.Scan{Name: "mid", Streaming: true, Out: eventsSchema}), logical.Complete, nil)
	sink2 := sinks.NewMemorySink()
	sq2 := startQuery(t, q2, map[string]sources.Source{"mid": src2}, sink2, Options{Checkpoint: t.TempDir()})

	for i := 0; i < 20; i++ {
		in.Append(i%2, msgbus.Record{Value: codec.EncodeRow(sql.Row{"a", float64(i%3 - 1), int64(0)})})
	}
	if err := sq1.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash of query 1 after its epoch's offsets were logged:
	// delete the commit marker and restart; the replay hits the
	// transactional sink, which must not duplicate records in `mid`.
	sq1.Stop()
	mustRemoveLastCommit(t, ckpt1)
	q1b := compile(t, plan1, logical.Append, nil)
	sq1b := startQuery(t, q1b, map[string]sources.Source{"in": src1}, txSink, Options{Checkpoint: ckpt1})
	if err := sq1b.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}

	if err := sq2.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	rows := sink2.Rows()
	// 20 inputs, v cycles -1,0,1 → 6 rows with v=1 pass the filter; the
	// count must be exactly 6 despite the replay.
	if len(rows) != 1 || rows[0][1] != int64(6) {
		t.Errorf("rows = %v, want count 6 (exactly-once through the bus)", sortedStrings(rows))
	}
}

func mustRemoveLastCommit(t *testing.T, ckpt string) {
	t.Helper()
	commits, err := filepath.Glob(filepath.Join(ckpt, "commits", "*.json"))
	if err != nil || len(commits) == 0 {
		t.Fatalf("commits=%v err=%v", commits, err)
	}
	sort.Strings(commits)
	if err := os.Remove(commits[len(commits)-1]); err != nil {
		t.Fatal(err)
	}
}
