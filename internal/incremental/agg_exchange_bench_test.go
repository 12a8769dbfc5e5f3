package incremental

import (
	"fmt"
	"runtime"
	"testing"

	"structream/internal/fsx"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/vec"
	"structream/internal/state"
)

// The aggregate's exchange, from the map task's column batch to the committed
// state delta: GROUP BY k, count(*), sum(v) over string keys (agg-spill's
// shape), Update mode, four reduce partitions at the default memtable budget.
const (
	aggExchangeRows  = 16384
	aggExchangeParts = 4
)

var aggExchangeSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "v", Type: sql.TypeInt64},
)

func aggExchangeQuery(tb testing.TB) *Query {
	tb.Helper()
	analyzed, err := analysis.Analyze(&logical.Aggregate{
		Child: &logical.Scan{Name: "in", Streaming: true, Out: aggExchangeSchema},
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs: []logical.NamedAgg{
			{Agg: sql.CountAll(), Name: "cnt"},
			{Agg: sql.SumOf(sql.Col("v")), Name: "total"},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	q, err := Compile(optimizer.Optimize(analyzed), logical.Update, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if p := q.Pipelines[0]; p.Vec == nil || p.Vec.Agg == nil || p.KeyIdxs == nil {
		tb.Fatal("the aggregate pipeline has no columnar partial aggregate")
	}
	return q
}

// aggExchangeBatch is epoch e's input: aggExchangeRows rows over `groups`
// distinct keys, half of them new to the store and half met in epoch e-1.
func aggExchangeBatch(tb testing.TB, e, groups int) *vec.Batch {
	tb.Helper()
	rows := make([]sql.Row, aggExchangeRows)
	for i := range rows {
		rows[i] = sql.Row{fmt.Sprintf("k%07d", e*groups/2+i*7919%groups), int64(i % 1000)}
	}
	b, ok := vec.FromRows(aggExchangeSchema, rows)
	if !ok {
		tb.Fatal("FromRows failed on schema-conforming rows")
	}
	return b
}

// BenchmarkAggExchange: one op is one epoch — scatter a 16 384-row batch into
// four buckets, hand each to Process as the gather of a one-task epoch does,
// commit the partition — at 0.6 groups per row (agg-spill's density: nearly
// every group is a single partial, half of them new keys) and at 0.01
// (ysb-bulk's: a few hundred groups per task). Reported per partial group.
func BenchmarkAggExchange(b *testing.B) {
	for _, groups := range []int{aggExchangeRows * 6 / 10, aggExchangeRows / 100} {
		b.Run(fmt.Sprintf("groups_per_row=%.2f", float64(groups)/aggExchangeRows), func(b *testing.B) {
			q := aggExchangeQuery(b)
			pipe := q.Pipelines[0]
			prov := state.NewProviderFS(fsx.NoSync(), b.TempDir())
			defer prov.Close()
			stores := make([]*state.Store, aggExchangeParts)
			for p := range stores {
				var err error
				if stores[p], err = prov.Open(state.ID{Operator: q.Stateful.Name(), Partition: p}, -1); err != nil {
					b.Fatal(err)
				}
			}
			batches := make([]*vec.Batch, 8)
			for e := range batches {
				batches[e] = aggExchangeBatch(b, e, groups)
			}
			var before, after runtime.MemStats
			var partials int64
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := &EpochContext{Epoch: int64(i), Mode: logical.Update, Vectorize: true}
				for p, rows := range pipe.ProcessBatchScatter(batches[i%len(batches)], aggExchangeParts) {
					partials += int64(len(rows))
					out, err := q.Stateful.Process(ctx, stores[p], [][]sql.Row{rows, nil})
					if err != nil {
						b.Fatal(err)
					}
					if len(out) != len(rows) {
						b.Fatalf("partition %d: %d partial groups, %d updated rows", p, len(rows), len(out))
					}
					if err := stores[p].Commit(int64(i)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if want := int64(b.N) * int64(groups); partials != want {
				b.Fatalf("%d partial groups crossed the exchange, want %d", partials, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(partials), "ns/group")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(partials), "B/group")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(partials), "allocs/group")
		})
	}
}

// TestScatterAllocatesPerBucket: rendering the partial aggregate's groups
// into shuffle buckets costs a fixed number of allocations per bucket — the
// cells, their row headers, the rows, the key bytes and the state bytes — and
// none per group: 9 830 groups cost what 163 do.
func TestScatterAllocatesPerBucket(t *testing.T) {
	pipe := aggExchangeQuery(t).Pipelines[0]
	for _, groups := range []int{aggExchangeRows * 6 / 10, aggExchangeRows / 100} {
		h := newPartialAgg(nil, pipe.Vec.Agg.Aggs)
		h.updateBatch(aggExchangeBatch(t, 0, groups), pipe.Vec.Agg)
		if len(h.groups) != groups {
			t.Fatalf("%d groups in the table, want %d", len(h.groups), groups)
		}
		var rendered int
		allocs := testing.AllocsPerRun(5, func() {
			rendered = 0
			for _, bucket := range h.scatter(aggExchangeParts) {
				rendered += len(bucket)
			}
		})
		// Two for the bucket tables, five per bucket.
		if limit := float64(2 + 5*aggExchangeParts); rendered != groups || allocs > limit {
			t.Errorf("%d groups: scatter rendered %d rows in %.0f allocations, want %d rows in at most %.0f", groups, rendered, allocs, groups, limit)
		}
	}
}
