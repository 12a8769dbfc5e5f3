package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"structream/internal/incremental"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// The engine-level differential: run the same plan over the same epoch
// sequence compiled twice — as it compiles, and with its vector plans
// stripped so every map task takes the row stages — and require the sinks to
// end up byte-identical: same rows, same order, same per-epoch attribution.
// Both runs are held to the batch query over the consumed prefix after every
// epoch.

// rowPath strips a compiled query's vector plans: its map tasks read boxed
// rows at full width and run the row stages, the fallback the engine takes
// when an expression seals the vector plan, here for every stage. The query
// must be a compile of its own: a Pipeline holds a sync.Pool and is not
// copied.
func rowPath(q *incremental.Query) *incremental.Query {
	for _, p := range q.Pipelines {
		p.Vec, p.SourceCols = nil, nil
	}
	return q
}

// runEpochsWith drives plan over the given epochs, columnar or on the row
// path, checks the sink against the batch oracle after each, and returns it.
func runEpochsWith(t *testing.T, plan logical.Plan, mode logical.OutputMode, epochs [][]sql.Row, columnar bool) *sinks.MemorySink {
	t.Helper()
	src := sources.NewMemorySource("events", eventsSchema)
	q := compile(t, plan, mode, nil)
	if !columnar {
		q = rowPath(q)
	}
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})
	oracle := newBatchOracle(t, plan, mode)
	for i, rows := range epochs {
		src.AddData(rows...)
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatalf("columnar=%v: %v", columnar, err)
		}
		oracle.epoch(rows)
		oracle.check(t, sink.Rows(), fmt.Sprintf("columnar=%v after epoch %d", columnar, i))
	}
	return sink
}

func rowsExactlyEqual(t *testing.T, on, off []sql.Row, context string) {
	t.Helper()
	if len(on) != len(off) {
		t.Fatalf("%s: vectorized %d rows, row path %d rows", context, len(on), len(off))
	}
	for i := range on {
		if on[i].String() != off[i].String() {
			t.Fatalf("%s: row %d: vectorized %s, row path %s", context, i, on[i], off[i])
		}
	}
}

func TestVectorizeOnOffIdentical(t *testing.T) {
	epochs := [][]sql.Row{
		{{"a", 5.0, 1 * sec}, {"b", -2.0, 2 * sec}, {nil, 7.5, 3 * sec}},
		{{"c", math.NaN(), 4 * sec}, {"d", math.Inf(1), 5 * sec}},
		{}, // empty epoch
		{{"e", 0.0, 16 * sec}, {"a", 9.0, 17 * sec}},
		{{"late", 1.0, 2 * sec}, {"f", 3.0, 30 * sec}},
	}
	shapes := map[string]struct {
		plan logical.Plan
		mode logical.OutputMode
	}{
		"map-only-append": {
			plan: &logical.Project{
				Child: &logical.Filter{Child: streamScan("events"),
					Cond: sql.Ge(sql.Col("v"), sql.Lit(0.0))},
				Exprs: []sql.Expr{sql.Col("k"),
					sql.As(sql.Mul(sql.Col("v"), sql.Lit(2.0)), "v2"),
					sql.Col("ts")}},
			mode: logical.Append,
		},
		"windowed-agg-watermark": {
			plan: &logical.Aggregate{
				Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
				Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0)},
				Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}}},
			mode: logical.Append,
		},
		"keyed-agg-update": {
			plan: &logical.Aggregate{
				Child: streamScan("events"),
				Keys:  []sql.Expr{sql.Col("k")},
				Aggs: []logical.NamedAgg{
					{Agg: sql.CountAll(), Name: "cnt"},
					{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
			mode: logical.Update,
		},
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) {
			on := runEpochsWith(t, s.plan, s.mode, epochs, true)
			off := runEpochsWith(t, s.plan, s.mode, epochs, false)
			rowsExactlyEqual(t, on.Rows(), off.Rows(), "all rows")
			for e := int64(0); e < int64(len(epochs))+2; e++ {
				rowsExactlyEqual(t, on.RowsForEpoch(e), off.RowsForEpoch(e), "epoch rows")
			}
		})
	}
}

// TestVectorizeTypeDriftFallsBack feeds an epoch whose dynamic types
// drift from the schema (ints in the float column): those tasks must
// take the row path and still produce identical output.
func TestVectorizeTypeDriftFallsBack(t *testing.T) {
	plan := &logical.Project{
		Child: &logical.Filter{Child: streamScan("events"),
			Cond: sql.IsNotNull(sql.Col("k"))},
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("v")},
	}
	epochs := [][]sql.Row{
		{{"a", 1.5, 1 * sec}},
		{{"drift", int64(3), 2 * sec}, {"b", 2.5, 3 * sec}}, // int64 in float column
		{{"c", 4.0, 4 * sec}},
	}
	on := runEpochsWith(t, plan, logical.Append, epochs, true)
	off := runEpochsWith(t, plan, logical.Append, epochs, false)
	rowsExactlyEqual(t, on.Rows(), off.Rows(), "drifted stream")
}

// TestColumnarSinkDeliveryActive pins that the hot path really is
// columnar end to end: a map-only append query into a MemorySink
// reports its rows as vectorized and the sink sees the same data.
func TestColumnarSinkDeliveryActive(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Filter{Child: streamScan("events"),
		Cond: sql.Gt(sql.Col("v"), sql.Lit(1.0))}
	q := compile(t, plan, logical.Append, nil)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})
	src.AddData(sql.Row{"a", 0.5, 0}, sql.Row{"b", 2.0, 0}, sql.Row{"c", 3.0, 0})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	p, ok := sq.LastProgress()
	if !ok || p.VectorizedRows != 3 {
		t.Fatalf("progress = %+v, want vectorized with 3 vectorized rows", p)
	}
	if p.NumOutputRows != 2 {
		t.Fatalf("NumOutputRows = %d, want 2", p.NumOutputRows)
	}
	expectRows(t, sink.Rows(), "[b, 2.0, 0]", "[c, 3.0, 0]")
	expectRows(t, sink.RowsForEpoch(0), "[b, 2.0, 0]", "[c, 3.0, 0]")
}

// TestRowSinkStillGetsRows: a sink without the ColumnSink capability
// must keep receiving materialized rows even with vectorization on.
func TestRowSinkStillGetsRows(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Project{Child: streamScan("events"),
		Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Add(sql.Col("v"), sql.Lit(1.0)), "v1")}}
	q := compile(t, plan, logical.Append, nil)
	var mu sync.Mutex
	var got []sinks.Batch
	fe := &sinks.ForeachSink{Fn: func(b sinks.Batch) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, b)
		return nil
	}}
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, fe, Options{})
	src.AddData(sql.Row{"a", 1.0, 0}, sql.Row{"b", 2.0, 0})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("foreach sink saw %d batches, want 1", len(got))
	}
	if got[0].Vecs != nil {
		t.Fatal("foreach sink received column batches without opting in")
	}
	if len(got[0].Rows) != 2 {
		t.Fatalf("foreach sink rows = %v", got[0].Rows)
	}
}
