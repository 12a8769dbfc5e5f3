package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// The engine-level differential against the batch oracle: each plan runs
// over an epoch sequence, and after every epoch its sink must hold the batch
// query's rows over the consumed prefix (oracle_test.go), computed by
// physical.Compile, which shares no map-side loop with the stream.

// runEpochs drives plan over the given epochs, checks the sink against the
// batch oracle after each, and returns it.
func runEpochs(t *testing.T, plan logical.Plan, mode logical.OutputMode, epochs [][]sql.Row) *sinks.MemorySink {
	t.Helper()
	src := sources.NewMemorySource("events", eventsSchema)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, compile(t, plan, mode, nil), map[string]sources.Source{"events": src}, sink, Options{})
	oracle := newBatchOracle(t, plan, mode)
	for i, rows := range epochs {
		src.AddData(rows...)
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
		oracle.epoch(rows)
		oracle.check(t, sink.Rows(), fmt.Sprintf("after epoch %d", i))
	}
	return sink
}

// rowsExactlyEqual holds got to want row for row, in order.
func rowsExactlyEqual(t *testing.T, got, want []sql.Row, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", context, len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: row %d: %s, want %s", context, i, got[i], want[i])
		}
	}
}

// TestVectorizeOnOffIdentical holds three shapes' sinks, all rows and the
// rows of each epoch in order, to what the parent's row stages wrote
// (onOffShapes, rowpath_fixture_gen_test.go), and to the batch oracle after
// every epoch.
func TestVectorizeOnOffIdentical(t *testing.T) {
	epochs := onOffEpochs()
	for name, s := range onOffShapes() {
		t.Run(name, func(t *testing.T) {
			golden := readRowPathFixture(t, "onoff-"+name)
			sink := runEpochs(t, s.plan, s.mode, epochs)
			if len(sink.Rows()) == 0 {
				t.Fatal("the query emitted nothing")
			}
			if got := renderEpochs(sink, len(epochs)+2, false); !slices.Equal(got, golden) {
				t.Fatalf("the sink holds other rows than the parent's:\n got  %v\n want %v", got, golden)
			}
		})
	}
}

// TestRowStagesMatchTheOracle covers the two stages that were row stages
// only until they got a columnar form: sliding-window assignment, which
// explodes each lane into one per window, and the key prefix a
// flatMapGroupsWithState input row gets. The sink must hold the batch
// query's rows after every epoch.
func TestRowStagesMatchTheOracle(t *testing.T) {
	epochs := [][]sql.Row{
		{{"a", 5.0, 1 * sec}, {"b", -2.0, 2 * sec}, {nil, 7.5, 3 * sec}, {"a", 1.0, 12 * sec}},
		{{"c", 4.0, 4 * sec}, {"d", 0.0, 25 * sec}, {"b", 3.0, nil}},
		{},
		{{"e", 0.0, 16 * sec}, {"a", 9.0, 17 * sec}, {"a", 2.5, 41 * sec}},
	}
	// Each value comes back under its (computed) key, so the stream's
	// output is the batch query's over the same rows.
	echo := func(key sql.Row, values []sql.Row, _ logical.GroupState) []sql.Row {
		out := make([]sql.Row, len(values))
		for i, v := range values {
			out[i] = sql.Row{key[0], v[1], v[2]}
		}
		return out
	}
	shapes := map[string]struct {
		plan logical.Plan
		mode logical.OutputMode
	}{
		"sliding-window-agg": {
			plan: &logical.Aggregate{
				Child: &logical.Filter{Child: streamScan("events"), Cond: sql.Ge(sql.Col("v"), sql.Lit(0.0))},
				Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 20*time.Second, 10*time.Second)},
				Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}, {Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
			mode: logical.Complete,
		},
		"mgws-key-prefix": {
			plan: &logical.MapGroups{
				Child:    &logical.Filter{Child: streamScan("events"), Cond: sql.Ge(sql.Col("v"), sql.Lit(0.0))},
				Keys:     []sql.Expr{sql.Add(sql.Col("k"), sql.Lit("!"))},
				KeyNames: []string{"kx"},
				Func:     echo,
				Out: sql.NewSchema(sql.Field{Name: "kx", Type: sql.TypeString},
					sql.Field{Name: "v", Type: sql.TypeFloat64}, sql.Field{Name: "ts", Type: sql.TypeTimestamp}),
			},
			mode: logical.Append,
		},
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) {
			if len(runEpochs(t, s.plan, s.mode, epochs).Rows()) == 0 {
				t.Fatal("the query emitted nothing")
			}
		})
	}
}

// TestLanewiseShapesMatchTheOracle holds the shapes that once sealed the
// vector plan, and those whose programs or batches run lane by lane, to the
// batch oracle: a LIKE filter, a function-call filter, a CASE projection, a
// column whose type drifts mid-stream, and a sliding window under a
// watermark in Update and Append mode, with a row late for every window it
// falls in.
func TestLanewiseShapesMatchTheOracle(t *testing.T) {
	epochs := [][]sql.Row{
		{{"a", 1.0, 1 * sec}, {"b", 2.0, 5 * sec}, {"ab", 3.0, 12 * sec}, {"c", 4.0, 15 * sec}, {"d", 1.0, nil}},
		{{"a", 1.0, 22 * sec}, {"b", nil, 26 * sec}, {nil, 2.5, 31 * sec}, {"ac", int64(4), 40 * sec}}, // an int64 in the float column
		{{"late", 9.0, 4 * sec}, {"a", 5.0, 38 * sec}, {"b", 1.0, 50 * sec}},
		{},
		{{"c", 2.0, 61 * sec}, {"a", int64(-1), 70 * sec}},
	}
	sliding := func() *logical.Aggregate {
		return &logical.Aggregate{
			Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
			Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 20*time.Second, 10*time.Second)},
			Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}, {Agg: sql.SumOf(sql.Col("v")), Name: "total"}}}
	}
	shapes := map[string]struct {
		plan     logical.Plan
		mode     logical.OutputMode
		lanewise int
	}{
		"like-filter": {plan: &logical.Filter{Child: streamScan("events"),
			Cond: sql.NewBinary(sql.OpLike, sql.Col("k"), sql.Lit("a%"))}, mode: logical.Append},
		"function-filter": {plan: &logical.Filter{Child: streamScan("events"),
			Cond: sql.Eq(sql.NewFunc("upper", sql.Col("k")), sql.Lit("AB"))}, mode: logical.Append, lanewise: 1},
		"case-project": {plan: &logical.Project{Child: streamScan("events"), Exprs: []sql.Expr{sql.Col("k"),
			sql.As(&sql.Case{Whens: []sql.WhenClause{{When: sql.Gt(sql.Col("v"), sql.Lit(2.0)), Then: sql.Lit("hi")}}, Else: sql.Lit("lo")}, "band")}},
			mode: logical.Append, lanewise: 1},
		"drifting-column": {plan: &logical.Project{
			Child: &logical.Filter{Child: streamScan("events"), Cond: sql.Ge(sql.Col("v"), sql.Lit(1.0))},
			Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Mul(sql.Col("v"), sql.Lit(2.0)), "v2")}}, mode: logical.Append},
		"sliding-window-update": {plan: sliding(), mode: logical.Update},
		"sliding-window-append": {plan: sliding(), mode: logical.Append},
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) {
			if n := lanewisePrograms(compile(t, s.plan, s.mode, nil).Pipelines[0]); n != s.lanewise {
				t.Fatalf("%d programs run lane by lane, want %d", n, s.lanewise)
			}
			if len(runEpochs(t, s.plan, s.mode, epochs).Rows()) == 0 {
				t.Fatal("the query emitted nothing")
			}
		})
	}
}

// TestVectorizeTypeDriftFallsBack feeds an epoch whose dynamic types
// drift from the schema (ints in the float column): that batch holds the
// column boxed, its programs run lane by lane, and the drifted rows reach
// the sink with their cells as they came.
func TestVectorizeTypeDriftFallsBack(t *testing.T) {
	plan := &logical.Project{
		Child: &logical.Filter{Child: streamScan("events"),
			Cond: sql.IsNotNull(sql.Col("k"))},
		// The CASE hands the drifted cell back as it is, which no float64
		// vector holds: its lane-wise result turns boxed mid-batch.
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("v"), sql.As(&sql.Case{
			Whens: []sql.WhenClause{{When: sql.IsNotNull(sql.Col("v")), Then: sql.Col("v")}}}, "vc")},
	}
	epochs := [][]sql.Row{
		{{"a", 1.5, 1 * sec}},
		{{"b", 2.5, 3 * sec}, {"drift", int64(3), 2 * sec}}, // int64 in float column
		{{"c", 4.0, 4 * sec}},
	}
	sink := runEpochs(t, plan, logical.Append, epochs)
	if rows := sink.RowsForEpoch(1); len(rows) != 2 || rows[1][1] != int64(3) || rows[1][2] != int64(3) || rows[0][2] != 2.5 {
		t.Fatalf("the drifted epoch delivered %v, want its int64 cell as it came", rows)
	}
}

// TestRowsOfTheWrongArityAreRefused: a source row whose value count differs
// from the schema fails the epoch with sources.ErrRowArity, and nothing of
// that epoch reaches the sink. (Before map tasks were all columnar, such a
// row passed a scan or a filter through to the sink as it was, short or
// long.)
func TestRowsOfTheWrongArityAreRefused(t *testing.T) {
	for _, bad := range []sql.Row{{"short", 5.0}, {"long", 3.0, 2 * sec, "extra"}} {
		src := sources.NewMemorySource("events", eventsSchema)
		sink := sinks.NewMemorySink()
		q := compile(t, &logical.Filter{Child: streamScan("events"), Cond: sql.Gt(sql.Col("v"), sql.Lit(1.0))}, logical.Append, nil)
		sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})
		src.AddData(sql.Row{"a", 2.0, 1 * sec}, bad)
		if err := sq.ProcessAllAvailable(); !errors.Is(err, sources.ErrRowArity) {
			t.Fatalf("%v: err = %v, want ErrRowArity", bad, err)
		}
		if rows := sink.Rows(); len(rows) != 0 {
			t.Fatalf("%v: the sink holds %v", bad, rows)
		}
	}
}

// TestColumnarSinkDeliveryActive pins that the hot path really is
// columnar end to end: a map-only append query hands a column sink its
// output as column batches — rows a source served boxed too — and the sink
// sees the same data.
func TestColumnarSinkDeliveryActive(t *testing.T) {
	src := sources.NewMemorySource("events", eventsSchema)
	plan := &logical.Filter{Child: streamScan("events"),
		Cond: sql.Gt(sql.Col("v"), sql.Lit(1.0))}
	q := compile(t, plan, logical.Append, nil)
	sink := &columnDouble{}
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, Options{})
	src.AddData(sql.Row{"a", 0.5, 0}, sql.Row{"b", 2.0, 0}, sql.Row{"c", 3.0, 0})
	if err := sq.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}
	p, ok := sq.LastProgress()
	if !ok || p.NumInputRows != 3 || p.NumOutputRows != 2 {
		t.Fatalf("progress = %+v, want 3 input rows and 2 output rows", p)
	}
	columns, rows := sink.snapshot()
	if columns != 1 {
		t.Fatalf("the sink received %d column deliveries, want 1", columns)
	}
	expectRows(t, rows, "[b, 2.0, 0]", "[c, 3.0, 0]")
}

// TestRowSinkStillGetsRows: a sink without the ColumnSink capability
// must keep receiving materialized rows.
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
