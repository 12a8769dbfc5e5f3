package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"structream/internal/incremental"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

// Continuous workers run the map task microbatch epochs run (§6.3 re-times
// epochs; it does not change how records are processed): the same kernels,
// the same pruned read, the same columnar delivery.

// columnDouble is a ColumnSink that keeps every delivery and counts the
// column batches among them.
type columnDouble struct {
	mu      sync.Mutex
	columns int // deliveries through AddColumnBatch with Vecs set
	rows    []sql.Row
}

func (s *columnDouble) AddBatch(b sinks.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows = append(s.rows, b.Rows...)
	return nil
}

func (s *columnDouble) AddColumnBatch(b sinks.Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.Vecs != nil {
		s.columns++
	}
	for _, vb := range b.Vecs {
		s.rows = vb.AppendRows(s.rows)
	}
	return nil
}

func (s *columnDouble) snapshot() (int, []sql.Row) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.columns, slices.Clone(s.rows)
}

// busEvents loads eventsSchema rows, codec-framed, round-robin into a
// two-partition topic and returns a source over it.
func busEvents(t *testing.T, rows []sql.Row) sources.Source {
	t.Helper()
	topic, err := msgbus.NewBroker().CreateTopic("events", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if _, err := topic.Append(i%2, msgbus.Record{Value: codec.EncodeRow(row)}); err != nil {
			t.Fatal(err)
		}
	}
	return sources.NewCodecBusSource("events", topic, eventsSchema)
}

func numberedEvents(n int) []sql.Row {
	rows := make([]sql.Row, n)
	for i := range rows {
		rows[i] = sql.Row{fmt.Sprintf("k%d", i), float64(i%5 - 2), int64(i) * sec}
	}
	return rows
}

// runContinuous runs q under a continuous trigger until its workers have
// read want input rows, and stops it.
func runContinuous(t *testing.T, q *incremental.Query, src sources.Source, sink sinks.Sink, want int64) *StreamingQuery {
	t.Helper()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{
		Trigger: ContinuousTrigger{EpochInterval: 5 * time.Millisecond}})
	waitFor(t, func() bool { return sq.Metrics().Counter("inputRows").Value() >= want || sq.Err() != nil })
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
	return sq
}

// TestContinuousRunsTheKernels: a vectorizable filter and projection in
// continuous mode decodes every record into columns, runs the kernels and
// hands a column sink its output as column batches.
func TestContinuousRunsTheKernels(t *testing.T) {
	rows := numberedEvents(400)
	src := busEvents(t, rows)
	plan := &logical.Project{
		Child: &logical.Filter{Child: streamScan("events"), Cond: sql.Gt(sql.Col("v"), sql.Lit(0.0))},
		Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Add(sql.Col("v"), sql.Lit(1.0)), "v1")},
	}
	q := compile(t, plan, logical.Append, nil)
	if n := lanewisePrograms(q.Pipelines[0]); n > 0 {
		t.Fatalf("%d programs run lane by lane", n)
	}
	sink := &columnDouble{}
	sq := runContinuous(t, q, src, sink, int64(len(rows)))
	if in := sq.Metrics().Counter("inputRows").Value(); in != int64(len(rows)) {
		t.Errorf("%d input rows, want %d", in, len(rows))
	}
	columns, got := sink.snapshot()
	if columns == 0 {
		t.Error("the column sink received no column batch")
	}
	if len(got) != 160 { // v ∈ {1, 2}: two in five
		t.Errorf("the sink holds %d rows, want 160", len(got))
	}
}

// TestContinuousMatchesMicrobatch: the two modes give the same multiset of
// output rows for a plan that runs as kernels, one with a LIKE projection
// that runs lane by lane, and one over a log whose types drift mid-run.
func TestContinuousMatchesMicrobatch(t *testing.T) {
	filtered := &logical.Filter{Child: streamScan("events"), Cond: sql.Ge(sql.Col("v"), sql.Lit(0.0))}
	rows := numberedEvents(600)
	drifted := slices.Clone(rows)
	for i := 250; i < 350; i += 7 {
		drifted[i] = sql.Row{drifted[i][0], int64(i), drifted[i][2]} // an int64 in the float column
	}
	shapes := []struct {
		name string
		plan logical.Plan
		rows []sql.Row
	}{
		{"vectorized", &logical.Project{Child: filtered,
			Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Add(sql.Col("v"), sql.Lit(1.0)), "v1")}}, rows},
		{"sealed", &logical.Project{Child: filtered,
			Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.NewBinary(sql.OpLike, sql.Col("k"), sql.Lit("k1%")), "m")}}, rows},
		{"drifted", &logical.Project{Child: filtered,
			Exprs: []sql.Expr{sql.Col("k"), sql.Col("v")}}, drifted},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			batchSrc := busEvents(t, sh.rows)
			batchSink := sinks.NewMemorySink()
			sq := startQuery(t, compile(t, sh.plan, logical.Append, nil), map[string]sources.Source{"events": batchSrc}, batchSink,
				Options{MaxRecordsPerTrigger: 100})
			if err := sq.ProcessAllAvailable(); err != nil {
				t.Fatal(err)
			}
			want := sortedStrings(batchSink.Rows())
			if len(want) == 0 {
				t.Fatal("microbatch mode emitted nothing")
			}

			contSrc := busEvents(t, sh.rows)
			contSink := sinks.NewMemorySink()
			runContinuous(t, compile(t, sh.plan, logical.Append, nil), contSrc, contSink, int64(len(sh.rows)))
			if got := sortedStrings(contSink.Rows()); !slices.Equal(got, want) {
				t.Fatalf("continuous mode emitted %d rows, microbatch %d:\n got  %v\n want %v", len(got), len(want), got, want)
			}
		})
	}
}

// TestContinuousRefusesATeedSubBatchSink: Start looks through tees for a
// sink that cannot take sub-batches, however deep, and names the one it
// found; a tee of sinks that keep every sub-batch still starts.
func TestContinuousRefusesATeedSubBatchSink(t *testing.T) {
	broker := msgbus.NewBroker()
	out, err := broker.CreateTopic("out", 1)
	if err != nil {
		t.Fatal(err)
	}
	control, err := broker.CreateTopic("control", 1)
	if err != nil {
		t.Fatal(err)
	}
	txn, err := sinks.NewTransactionalBusSink(sinks.NewBusSink(out), control)
	if err != nil {
		t.Fatal(err)
	}
	q := compile(t, streamScan("events"), logical.Append, nil)
	trig := ContinuousTrigger{EpochInterval: 5 * time.Millisecond}
	for _, sink := range []sinks.Sink{
		sinks.NewTeeSink(sinks.NewMemorySink(), txn),
		sinks.NewTeeSink(sinks.NewTeeSink(txn), sinks.NewMemorySink()),
	} {
		sq, err := Start(q, map[string]sources.Source{"events": busEvents(t, nil)}, sink, Options{Checkpoint: t.TempDir(), Trigger: trig})
		if err == nil {
			sq.Stop()
			t.Fatalf("a continuous query into %s started", sinks.Describe(sink))
		}
		if !errors.Is(err, ErrContinuousSink) || !strings.Contains(err.Error(), "the transactional-bus sink") {
			t.Fatalf("%s: err = %v, want ErrContinuousSink naming the transactional-bus sink", sinks.Describe(sink), err)
		}
	}
	tee := sinks.NewTeeSink(sinks.NewMemorySink(), sinks.NewBusSink(out))
	sq, err := Start(q, map[string]sources.Source{"events": busEvents(t, nil)}, tee, Options{Checkpoint: t.TempDir(), Trigger: trig})
	if err != nil {
		t.Fatalf("a tee of sub-batch sinks: %v", err)
	}
	if err := sq.Stop(); err != nil {
		t.Fatal(err)
	}
}
