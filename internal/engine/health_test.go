package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"structream/internal/fsx"
	"structream/internal/metrics"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/wal"
)

// TestReplayRaceFileSource is the regression test for the recovery-replay
// race: a crash between WriteOffsets and WriteCommit leaves a replay entry
// whose range indexes into a FileSource's file list — which a fresh
// restart has not discovered yet, because only Latest() scans the
// directory. Recovery used to fail with "file range [2,3) out of bounds
// (have 0 files)" even though every file was still on disk.
func TestReplayRaceFileSource(t *testing.T) {
	dataDir := t.TempDir()
	checkpoint := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dataDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.json", `{"k":"a","v":1.0,"ts":1}`+"\n")
	write("b.json", `{"k":"b","v":2.0,"ts":2}`+"\n")

	plan := &logical.Project{Child: streamScan("events"),
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("v")}}
	q := compile(t, plan, logical.Append, nil)

	newSrc := func() sources.Source {
		return sources.NewFileSource("events", dataDir, eventsSchema)
	}
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": newSrc()}, sink,
		Options{Checkpoint: checkpoint})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Rows()); got != 2 {
		t.Fatalf("first run delivered %d rows, want 2", got)
	}

	// The "crash": a third file arrives and the epoch covering it logs its
	// offsets but never its commit marker.
	write("c.json", `{"k":"c","v":3.0,"ts":3}`+"\n")
	w, err := wal.Open(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteOffsets(wal.Entry{
		Epoch:   1,
		Sources: []wal.SourceOffsets{{Source: "events", Start: []int64{2}, End: []int64{3}}},
	}); err != nil {
		t.Fatal(err)
	}

	// Restart with a FRESH FileSource (no Latest() has run): recovery must
	// scan the sources before replaying [2,3).
	sink2 := sinks.NewMemorySink()
	sq2 := startQuery(t, q, map[string]sources.Source{"events": newSrc()}, sink2,
		Options{Checkpoint: checkpoint})
	defer sq2.Stop()
	if err := sq2.Err(); err != nil {
		t.Fatalf("recovery replay failed: %v", err)
	}
	expectRows(t, sink2.Rows(), "[c, 3.0]")
	if got := sq2.LastCommittedEpoch(); got != 1 {
		t.Fatalf("last committed epoch = %d, want 1 (the replayed epoch)", got)
	}
}

// TestHealthWiredIntoEngine drives a watermarked aggregation and checks
// the health subsystem's engine-side surface: lineage stamps for every
// committed epoch, per-partition accounting, the eventTime progress
// section, and per-source lag.
func TestHealthWiredIntoEngine(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Aggregate{
		Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
		Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0)},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})

	src.AddData(sql.Row{"a", 1.0, 3 * sec}, sql.Row{"b", 1.0, 7 * sec})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	src.AddData(sql.Row{"c", 1.0, 42 * sec})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}

	tr := sq.Health()
	if tr == nil {
		t.Fatal("Health() = nil with health enabled")
	}
	st, ok := tr.Stamp(0)
	if !ok {
		t.Fatal("no lineage stamp for epoch 0")
	}
	if st.AdmitMicros == 0 || st.IngestMicros == 0 || st.ExecuteMicros == 0 || st.CommitMicros == 0 {
		t.Fatalf("epoch 0 stamp incomplete: %+v", st)
	}
	if st.CommitMicros < st.IngestMicros {
		t.Fatalf("commit before ingest: %+v", st)
	}

	rep := tr.Health()
	if len(rep.Partitions) == 0 {
		t.Error("no per-partition accounting in report")
	}
	var sawReduce bool
	for _, p := range rep.Partitions {
		if p.Stage == "reduce" {
			sawReduce = true
		}
	}
	if !sawReduce {
		t.Errorf("no reduce-stage partition stats: %+v", rep.Partitions)
	}

	// Event-time telemetry in the progress event for the epoch that read
	// ts=42s — the single-row epoch (watermark-flush epochs interleave, so
	// LastProgress would see a zero-row flush).
	var p metrics.QueryProgress
	var found bool
	for _, ev := range sq.EventLog().Recent(10) {
		if ev.NumInputRows == 1 {
			p, found = ev, true
		}
	}
	if !found || p.EventTime == nil {
		t.Fatalf("no eventTime section for the ts=42s epoch: %+v", p)
	}
	if p.EventTime.MinMicros != 42*sec || p.EventTime.MaxMicros != 42*sec || p.EventTime.AvgMicros != 42*sec {
		t.Errorf("eventTime min/avg/max = %d/%d/%d, want 42s", p.EventTime.MinMicros, p.EventTime.AvgMicros, p.EventTime.MaxMicros)
	}
	// Progress reports the post-advance watermark (42s − 5s delay), same as
	// the long-standing top-level WatermarkMicros field.
	if p.EventTime.WatermarkMicros != 37*sec {
		t.Errorf("eventTime watermark = %d, want 37s", p.EventTime.WatermarkMicros)
	}
	if p.EventTime.WatermarkLagUs <= 0 {
		t.Errorf("watermark lag = %d, want > 0", p.EventTime.WatermarkLagUs)
	}
	if len(p.Sources) != 1 || p.Sources[0].EventTimeMaxMicros != 42*sec || p.Sources[0].WatermarkLagUs <= 0 {
		t.Errorf("per-source event-time telemetry: %+v", p.Sources)
	}
	if len(p.StateOperators) != 1 || p.StateOperators[0].WatermarkLagUs <= 0 {
		t.Errorf("state-operator watermark lag: %+v", p.StateOperators)
	}
	if c, _ := sq.Metrics().Histograms()["watermarkLag.us"]; c.Count == 0 {
		t.Error("watermarkLag.us histogram never observed")
	}
}

// TestSourceReadErrorsSurfaceInProgress checks the instrumented-source
// satellite: failed reads are counted with a last-error description and
// surfaced in the progress event's sources section.
func TestSourceReadErrorsSurfaceInProgress(t *testing.T) {
	inner := sources.NewMemorySource("events", eventsSchema)
	flaky := &errorOnceSource{Source: inner, failN: 2}
	plan := &logical.Project{Child: streamScan("events"),
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("v")}}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": flaky}, sink, Options{})
	inner.AddData(sql.Row{"a", 1.0, 0})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	p, ok := sq.LastProgress()
	if !ok || len(p.Sources) != 1 {
		t.Fatalf("progress sources = %+v", p.Sources)
	}
	sp := p.Sources[0]
	if sp.ReadErrors != 2 {
		t.Errorf("readErrors = %d, want 2", sp.ReadErrors)
	}
	if sp.LastErrorAtMicros == 0 || !strings.Contains(sp.LastError, "transient") {
		t.Errorf("last error not recorded: at=%d err=%q", sp.LastErrorAtMicros, sp.LastError)
	}
	expectRows(t, sink.Rows(), "[a, 1.0]")
}

// errorOnceSource fails its first failN reads with a transient error, then
// delegates. Vector reads are not offered, so the engine's retry loop
// exercises the row Read path.
type errorOnceSource struct {
	sources.Source
	failN int
}

func (f *errorOnceSource) Read(p int, from, to int64) ([]sql.Row, error) {
	if f.failN > 0 {
		f.failN--
		return nil, fmt.Errorf("flaky: transient read failure: %w", fsx.ErrTransient)
	}
	return f.Source.Read(p, from, to)
}

// hookSink calls before ahead of every batch it takes, rows or columns: the
// memory sink takes column batches, so a wrapper that only overrode
// AddBatch would never see a vectorized epoch.
type hookSink struct {
	*sinks.MemorySink
	before func(epoch int64)
}

func (s *hookSink) AddBatch(b sinks.Batch) error {
	s.before(b.Epoch)
	return s.MemorySink.AddBatch(b)
}

func (s *hookSink) AddColumnBatch(b sinks.Batch) error {
	s.before(b.Epoch)
	return s.MemorySink.AddColumnBatch(b)
}

// TestCheckpointIndependentOfEpochTiming: what a query leaves in its
// checkpoint is a function of the epochs it ran, not of how fast they ran.
// Twenty map-only epochs with the sixteenth held up 60 ms in the sink leave
// the same top-level entries as the same epochs at full speed, and no
// diagnostics (no _health directory).
func TestCheckpointIndependentOfEpochTiming(t *testing.T) {
	plan := &logical.Project{Child: streamScan("events"),
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("v")}}
	q := compile(t, plan, logical.Append, nil)
	run := func(slowEpoch int64) []string {
		src := sources.NewMemorySource("events", eventsSchema)
		checkpoint := t.TempDir()
		sink := &hookSink{sinks.NewMemorySink(), func(epoch int64) {
			if epoch == slowEpoch {
				time.Sleep(60 * time.Millisecond)
			}
		}}
		sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{Checkpoint: checkpoint})
		for i := 0; i < 20; i++ {
			src.AddData(sql.Row{fmt.Sprintf("k%d", i), float64(i), int64(i) * sec})
			if err := sq.ProcessAllAvailable(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sq.Stop(); err != nil {
			t.Fatal(err)
		}
		if got := sq.LastCommittedEpoch(); got != 19 {
			t.Fatalf("last committed epoch = %d, want 19", got)
		}
		entries, err := os.ReadDir(checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	fast, slow := run(-1), run(15)
	if strings.Join(slow, " ") != strings.Join(fast, " ") {
		t.Errorf("checkpoint with a slow epoch holds %v, at full speed %v", slow, fast)
	}
	for _, name := range slow {
		if name == "_health" {
			t.Errorf("the query wrote diagnostics into its checkpoint: %v", slow)
		}
	}
}
