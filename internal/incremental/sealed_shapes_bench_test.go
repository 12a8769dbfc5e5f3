package incremental

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"structream/internal/msgbus"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/physical"
	"structream/internal/state"
)

// BenchmarkSealedShapes runs one map task over five pipeline shapes whose
// expressions, columns or stages have no kernel: a LIKE filter, a CASE
// projection, a filter and projection over an int column that drifts to
// floats, a sliding-window count and flatMapGroupsWithState's key prefix;
// and over a bare scan into rows, a pipeline with no stage at all.
// A task reads its records off a codec bus topic as the engine's map task
// does: decoded straight into a column batch (the scan pruned to the
// columns the plan reads) when the pipeline has a vector plan and the
// records' types fit the schema, as boxed rows otherwise, which go through
// Process. Before timing, each shape's output is held to physical.Compile,
// the batch executor, over the same rows: a multiset of rows, or for the
// aggregate its partial cells merged by the stateful operator. It reports
// ns/row and B/row of the map task, the read included.
func BenchmarkSealedShapes(b *testing.B) {
	const lanes = 16384
	schema := sql.NewSchema(
		sql.Field{Name: "k", Type: sql.TypeString},
		sql.Field{Name: "n", Type: sql.TypeInt64},
		sql.Field{Name: "v", Type: sql.TypeFloat64},
		sql.Field{Name: "ts", Type: sql.TypeTimestamp},
	)
	scan := &logical.Scan{Name: "s", Streaming: true, Out: schema}
	rng := rand.New(rand.NewSource(67))
	keys := []string{"alpha", "beta", "gamma", "delta", "apex", "omega"}
	rows := make([]sql.Row, lanes)
	drifted := make([]sql.Row, lanes)
	for i := range rows {
		rows[i] = sql.Row{keys[rng.Intn(len(keys))], int64(rng.Intn(100)), rng.Float64() * 100, int64(i) * 3 * int64(time.Millisecond/time.Microsecond)}
		if rng.Intn(8) == 0 {
			rows[i][0] = nil
		}
		drifted[i] = rows[i].Clone()
		if i%16 == 0 {
			drifted[i][1] = float64(rng.Intn(100)) + 0.5
		}
	}
	shapes := []struct {
		name string
		plan logical.Plan
		mode logical.OutputMode
		rows []sql.Row
		want logical.Plan // the batch query the output is held to; nil: plan
	}{
		{name: "like-filter", mode: logical.Append, rows: rows,
			plan: &logical.Filter{Child: scan, Cond: sql.NewBinary(sql.OpLike, sql.Col("k"), sql.Lit("a%"))}},
		{name: "case-project", mode: logical.Append, rows: rows,
			plan: &logical.Project{Child: scan, Exprs: []sql.Expr{sql.Col("k"),
				sql.As(&sql.Case{Whens: []sql.WhenClause{{When: sql.Gt(sql.Col("n"), sql.Lit(int64(50))), Then: sql.Lit("hi")}}, Else: sql.Lit("lo")}, "band"),
				sql.Col("v")}}},
		{name: "drifting-int", mode: logical.Append, rows: drifted,
			plan: &logical.Project{Child: &logical.Filter{Child: scan, Cond: sql.Ge(sql.Col("n"), sql.Lit(int64(10)))},
				Exprs: []sql.Expr{sql.Col("k"), sql.As(sql.Add(sql.Col("n"), sql.Lit(int64(1))), "n1")}}},
		{name: "sliding-window-count", mode: logical.Complete, rows: rows,
			plan: &logical.Aggregate{Child: scan,
				Keys: []sql.Expr{sql.NewWindow(sql.Col("ts"), 20*time.Second, 5*time.Second)},
				Aggs: []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}}}},
		{name: "mgws-prep", mode: logical.Append, rows: rows,
			plan: &logical.MapGroups{Child: scan, Keys: []sql.Expr{sql.Add(sql.Col("k"), sql.Lit("!"))}, KeyNames: []string{"kx"}, Out: schema},
			want: &logical.Project{Child: scan, Exprs: []sql.Expr{sql.As(sql.Add(sql.Col("k"), sql.Lit("!")), "kx"),
				sql.Col("k"), sql.Col("n"), sql.Col("v"), sql.Col("ts")}}},
		{name: "bare-scan", mode: logical.Append, rows: rows, plan: scan},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			q := sealedCompile(b, s.plan, s.mode)
			p := q.Pipelines[0]
			topic, err := msgbus.NewBroker().CreateTopic("s", 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range s.rows {
				if _, err := topic.Append(0, msgbus.Record{Value: codec.EncodeRow(r)}); err != nil {
					b.Fatal(err)
				}
			}
			var src sources.Source = sources.NewCodecBusSource("s", topic, schema)
			if p.SourceCols != nil {
				src = src.(sources.ColumnPruner).PruneColumns(p.SourceCols)
			}
			task := func() []sql.Row {
				if p.Vec != nil {
					in, ok, err := src.(sources.VectorReader).ReadVec(0, 0, lanes)
					if err != nil {
						b.Fatal(err)
					}
					if ok {
						out := p.ProcessBatchScatter(in, 1)[0]
						in.Release()
						return out
					}
				}
				rows, err := src.Read(0, 0, lanes)
				if err != nil {
					b.Fatal(err)
				}
				return p.Process(rows)
			}
			got := task()
			if q.Stateful != nil && s.mode == logical.Complete {
				got = sealedMerge(b, q, got)
			}
			want := s.want
			if want == nil {
				want = s.plan
			}
			sealedCheck(b, want, s.rows, got)

			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				task()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N) * lanes
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/row")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/row")
		})
	}
}

func sealedCompile(tb testing.TB, plan logical.Plan, mode logical.OutputMode) *Query {
	tb.Helper()
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := Compile(optimizer.Optimize(analyzed), mode, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// sealedMerge runs an aggregate's partial cells through its stateful
// operator in Complete mode: the groups they add up to.
func sealedMerge(tb testing.TB, q *Query, cells []sql.Row) []sql.Row {
	tb.Helper()
	store, err := state.NewProvider(tb.TempDir()).Open(state.ID{Operator: q.Stateful.Name(), Partition: 0}, -1)
	if err != nil {
		tb.Fatal(err)
	}
	out, err := q.Stateful.Process(&EpochContext{Epoch: 0, Mode: logical.Complete}, store, [][]sql.Row{cells, nil})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// sealedCheck holds got to the batch executor's run of plan over rows, as
// multisets.
func sealedCheck(tb testing.TB, plan logical.Plan, rows, got []sql.Row) {
	tb.Helper()
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		tb.Fatal(err)
	}
	op, err := physical.Compile(optimizer.Optimize(analyzed), func(s *logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(s.Out, rows), nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	want, err := physical.Drain(op)
	if err != nil {
		tb.Fatal(err)
	}
	g, w := rowStrings(got), rowStrings(want)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		tb.Fatalf("%d rows, the batch executor has %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			tb.Fatalf("sorted row %d is %s, the batch executor has %s", i, g[i], w[i])
		}
	}
}
