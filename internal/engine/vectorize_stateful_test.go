package engine

import (
	"fmt"
	"math"
	"testing"
	"time"

	"structream/internal/incremental"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// The stateful differential: the columnar map side (kernels, columnar
// partial aggregation, the cell exchange) must be byte-identical to the row
// stages for every output mode, memtable budget, and worker count, and both
// must equal the batch query over the consumed prefix after every epoch.
// These shapes aim at the stateful machinery specifically: NULL grouping
// keys, watermark-expired groups, and mid-epoch type drift that demotes the
// batch to the row path.

// runStatefulEpochs drives q, a compile of plan, over the epochs with full
// Options control, checks the sink against the batch oracle after each, and
// returns it.
func runStatefulEpochs(t *testing.T, q *incremental.Query, plan logical.Plan, mode logical.OutputMode, epochs [][]sql.Row, opts Options) *sinks.MemorySink {
	t.Helper()
	src := sources.NewMemorySource("events", eventsSchema)
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink, opts)
	oracle := newBatchOracle(t, plan, mode)
	for i, rows := range epochs {
		src.AddData(rows...)
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
		oracle.epoch(rows)
		oracle.check(t, sink.Rows(), fmt.Sprintf("after epoch %d", i))
	}
	return sink
}

func TestStatefulVectorizeDifferential(t *testing.T) {
	// NULL keys in 1/4 of rows, NaN/Inf values, late arrivals, and one
	// epoch whose v column carries int64s (type drift → row-path demotion
	// mid-query while neighboring epochs stay columnar).
	baseEpochs := [][]sql.Row{
		{{"a", 1.5, 1 * sec}, {nil, 2.0, 2 * sec}, {"b", math.NaN(), 3 * sec}, {"a", -0.0, 4 * sec}},
		{{nil, math.Inf(1), 12 * sec}, {"c", math.Inf(-1), 13 * sec}, {nil, nil, 14 * sec}},
		{}, // empty epoch
		{{"late", 4.0, 1 * sec}, {"b", 5.5, 30 * sec}, {"a", 6.0, 31 * sec}},
		{{"drift", int64(3), 32 * sec}, {"a", int64(-7), 33 * sec}}, // type drift
		{{"d", 8.25, 60 * sec}, {nil, 9.0, 61 * sec}, {"late2", 1.0, 5 * sec}},
	}
	shapes := map[string]struct {
		plan logical.Plan
		mode logical.OutputMode
		// unordered: Complete mode emits in store iteration order, which
		// the two compiles' staging need not share — compare as a sorted
		// multiset instead of positionally.
		unordered bool
	}{
		"null-key-agg-update": {
			plan: &logical.Aggregate{
				Child: streamScan("events"),
				Keys:  []sql.Expr{sql.Col("k")},
				Aggs: []logical.NamedAgg{
					{Agg: sql.CountAll(), Name: "cnt"},
					{Agg: sql.Count(sql.Col("v")), Name: "cntv"},
					{Agg: sql.SumOf(sql.Col("v")), Name: "total"},
					{Agg: sql.AvgOf(sql.Col("v")), Name: "mean"},
					{Agg: sql.MinOf(sql.Col("v")), Name: "lo"}}},
			mode: logical.Update,
		},
		"null-key-agg-complete": {
			plan: &logical.Aggregate{
				Child: streamScan("events"),
				Keys:  []sql.Expr{sql.Col("k")},
				Aggs: []logical.NamedAgg{
					{Agg: sql.CountAll(), Name: "cnt"},
					{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
			mode:      logical.Complete,
			unordered: true,
		},
		"watermark-window-append": {
			plan: &logical.Aggregate{
				Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
				Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0)},
				Aggs: []logical.NamedAgg{
					{Agg: sql.CountAll(), Name: "cnt"},
					{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
			mode: logical.Append,
		},
		"watermark-window-update": {
			plan: &logical.Aggregate{
				Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
				Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0), sql.Col("k")},
				Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}}},
			mode: logical.Update,
		},
		"dedup-watermark": {
			plan: &logical.Distinct{
				Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
				Cols:  []string{"k", "ts"}},
			mode: logical.Append,
		},
	}
	for name, s := range shapes {
		for _, budget := range stateBudgets {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%s/w%d", name, budget.name, workers), func(t *testing.T) {
					opts := Options{StateMemtableBytes: budget.bytes, Workers: workers}
					on := runStatefulEpochs(t, compile(t, s.plan, s.mode, nil), s.plan, s.mode, baseEpochs, opts)
					off := runStatefulEpochs(t, rowPath(compile(t, s.plan, s.mode, nil)), s.plan, s.mode, baseEpochs, opts)
					if s.unordered {
						onRows, offRows := sortedStrings(on.Rows()), sortedStrings(off.Rows())
						if len(onRows) != len(offRows) {
							t.Fatalf("vectorized %d rows, row path %d rows", len(onRows), len(offRows))
						}
						for i := range onRows {
							if onRows[i] != offRows[i] {
								t.Fatalf("row %d: vectorized %s, row path %s", i, onRows[i], offRows[i])
							}
						}
						return
					}
					rowsExactlyEqual(t, on.Rows(), off.Rows(), "all rows")
					for e := int64(0); e < int64(len(baseEpochs))+2; e++ {
						rowsExactlyEqual(t, on.RowsForEpoch(e), off.RowsForEpoch(e), "epoch rows")
					}
				})
			}
		}
	}
}

// TestStatefulVectorizeSmallTriggers re-runs the watermarked shape with a
// tiny admission cap so epochs split mid-group: partial buffers for one
// logical group then arrive across several epochs, and the merged groups
// must be the batch query's, columnar and on the row stages alike.
func TestStatefulVectorizeSmallTriggers(t *testing.T) {
	plan := &logical.Aggregate{
		Child: &logical.WithWatermark{Child: streamScan("events"), Column: "ts", Delay: 5 * sec},
		Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0)},
		Aggs: []logical.NamedAgg{
			{Agg: sql.CountAll(), Name: "cnt"},
			{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}}
	var rows []sql.Row
	for i := 0; i < 60; i++ {
		var k sql.Value
		if i%4 != 0 {
			k = fmt.Sprintf("k%d", i%5)
		}
		rows = append(rows, sql.Row{k, float64(i) * 1.25, int64(i) * sec})
	}
	const perEpoch = 7
	for _, budget := range stateBudgets {
		t.Run(budget.name, func(t *testing.T) {
			run := func(q *incremental.Query) []sql.Row {
				src := sources.NewMemorySource("events", eventsSchema)
				sink := sinks.NewMemorySink()
				sq := startQuery(t, q, map[string]sources.Source{"events": src}, sink,
					Options{StateMemtableBytes: budget.bytes, MaxRecordsPerTrigger: perEpoch})
				src.AddData(rows...)
				if err := sq.ProcessAllAvailable(); err != nil {
					t.Fatal(err)
				}
				// The source's one partition runs its backlog perEpoch rows an epoch.
				oracle := newBatchOracle(t, plan, logical.Append)
				for i := 0; i < len(rows); i += perEpoch {
					oracle.epoch(rows[i:min(i+perEpoch, len(rows))])
				}
				oracle.check(t, sink.Rows(), "after the backlog")
				return sink.Rows()
			}
			on := run(compile(t, plan, logical.Append, nil))
			off := run(rowPath(compile(t, plan, logical.Append, nil)))
			rowsExactlyEqual(t, on, off, "all rows")
		})
	}
}
