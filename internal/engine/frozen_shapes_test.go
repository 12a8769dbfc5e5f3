package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"structream/internal/incremental"
	"structream/internal/msgbus"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/physical"
)

// The repository benchmark's five workloads (benchmark/wl_*.go), rebuilt
// here as plans without importing that module: map-bulk, live-serve,
// ysb-bulk, agg-spill and join-skew. Each runs over a codec bus source, the
// way the benchmark feeds it, and must stay columnar end to end — every
// stage of every pipeline has a kernel, and every input row is decoded into
// a column batch — while its sink matches the batch query over the rows
// consumed so far. This is the evidence that no benchmarked query runs the
// row stages, which are the fallback for shapes and sources without kernels.

var (
	frozenMapSchema = sql.NewSchema(
		sql.Field{Name: "value", Type: sql.TypeInt64},
		sql.Field{Name: "produced", Type: sql.TypeTimestamp},
	)
	frozenAggSchema = sql.NewSchema(
		sql.Field{Name: "k", Type: sql.TypeString},
		sql.Field{Name: "v", Type: sql.TypeInt64},
	)
	frozenImpSchema = sql.NewSchema(
		sql.Field{Name: "ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "imp_time", Type: sql.TypeTimestamp},
		sql.Field{Name: "imp_id", Type: sql.TypeInt64},
	)
	frozenClickSchema = sql.NewSchema(
		sql.Field{Name: "c_ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "click_time", Type: sql.TypeTimestamp},
		sql.Field{Name: "click_id", Type: sql.TypeInt64},
	)
)

// frozenMapPlan is map-bulk's query, SELECT value + 1 AS v1, produced FROM
// in WHERE value >= 250000; live-serve's adds a one-second watermark.
func frozenMapPlan(watermark bool) logical.Plan {
	var child logical.Plan = &logical.Scan{Name: "in", Streaming: true, Out: frozenMapSchema}
	if watermark {
		child = &logical.WithWatermark{Child: child, Column: "produced", Delay: sec}
	}
	return &logical.Project{
		Child: &logical.Filter{Child: child, Cond: sql.Ge(sql.Col("value"), sql.Lit(int64(250_000)))},
		Exprs: []sql.Expr{sql.As(sql.Add(sql.Col("value"), sql.Lit(int64(1))), "v1"), sql.Col("produced")},
	}
}

// frozenAggPlan is agg-spill's query: count and sum per string key.
func frozenAggPlan() logical.Plan {
	return &logical.Aggregate{
		Child: &logical.Scan{Name: "in", Streaming: true, Out: frozenAggSchema},
		Keys:  []sql.Expr{sql.Col("k")},
		Aggs: []logical.NamedAgg{
			{Agg: sql.CountAll(), Name: "cnt"},
			{Agg: sql.SumOf(sql.Col("v")), Name: "total"},
		},
	}
}

// frozenJoinPlan is join-skew's query: impressions and clicks on the same
// ad, the click within ten seconds after the impression, both sides under
// an 80 s watermark.
func frozenJoinPlan() logical.Plan {
	side := func(name string, schema sql.Schema, col string) logical.Plan {
		return &logical.WithWatermark{Child: &logical.Scan{Name: name, Streaming: true, Out: schema}, Column: col, Delay: 80 * sec}
	}
	return &logical.Join{
		Left:  side("impressions", frozenImpSchema, "imp_time"),
		Right: side("clicks", frozenClickSchema, "click_time"),
		Type:  logical.InnerJoin,
		Cond: sql.And(sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id")), sql.And(
			sql.Ge(sql.Col("click_time"), sql.Col("imp_time")),
			sql.Le(sql.Col("click_time"), sql.Add(sql.Col("imp_time"), sql.IntervalLit(10*sec))))),
	}
}

// runsOnKernels reports whether a pipeline's vector plan covers every one
// of its stages, and a stateful query's map-side terminal too: no row stage
// runs for a batch.
func runsOnKernels(q *incremental.Query, p *incremental.Pipeline) bool {
	if q.Stateful == nil {
		return p.FullyVectorized()
	}
	return p.Scatters() && len(p.Vec.Ops) == len(p.Stages)
}

// frozenRun drives a compiled workload over codec bus topics, one epoch per
// element of epochs (records per topic name), calls check after each, and
// fails unless every epoch decoded every input row into a column batch.
func frozenRun(t *testing.T, q *incremental.Query, schemas map[string]sql.Schema, epochs []map[string][]sql.Row, check func(e int, sink *sinks.MemorySink)) {
	t.Helper()
	for i, p := range q.Pipelines {
		if !runsOnKernels(q, p) {
			t.Fatalf("pipeline %d (%s) leaves stages to the row path: vector plan %+v", i, p.SourceName, p.Vec)
		}
	}
	broker := msgbus.NewBroker()
	topics := map[string]*msgbus.Topic{}
	srcs := map[string]sources.Source{}
	for name, schema := range schemas {
		topic, err := broker.CreateTopic(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		topics[name], srcs[name] = topic, sources.NewCodecBusSource(name, topic, schema)
	}
	sink := sinks.NewMemorySink()
	sq := startQuery(t, q, srcs, sink, Options{Workers: 2, NumPartitions: 2})
	var total int64
	for e, in := range epochs {
		for name, rows := range in {
			for i, row := range rows {
				if _, err := topics[name].Append(i%2, msgbus.Record{Value: codec.EncodeRow(row)}); err != nil {
					t.Fatal(err)
				}
			}
			total += int64(len(rows))
		}
		if err := sq.ProcessAllAvailable(); err != nil {
			t.Fatal(err)
		}
		check(e, sink)
	}
	var in int64
	for _, prog := range sq.EventLog().Recent(1000) {
		if prog.VectorizedRows != prog.NumInputRows {
			t.Fatalf("epoch %d decoded %d of its %d input rows into column batches", prog.Epoch, prog.VectorizedRows, prog.NumInputRows)
		}
		in += prog.NumInputRows
	}
	if in != total {
		t.Fatalf("the query read %d of %d records", in, total)
	}
}

// frozenSingleSource runs a one-source workload against the batch oracle.
func frozenSingleSource(t *testing.T, plan logical.Plan, mode logical.OutputMode, resolver physical.ScanResolver, source string, schema sql.Schema, epochs [][]sql.Row) {
	t.Helper()
	oracle := newBatchOracle(t, plan, mode)
	in := make([]map[string][]sql.Row, len(epochs))
	for e, rows := range epochs {
		in[e] = map[string][]sql.Row{source: rows}
	}
	frozenRun(t, compile(t, plan, mode, resolver), map[string]sql.Schema{source: schema}, in, func(e int, sink *sinks.MemorySink) {
		oracle.epoch(epochs[e])
		oracle.check(t, sink.Rows(), fmt.Sprintf("epoch %d", e))
		if e == len(epochs)-1 && len(sink.Rows()) == 0 {
			t.Fatal("the query emitted nothing: the shape is not exercised")
		}
	})
}

func TestFrozenWorkloadsRunOnKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	const epochs, perEpoch = 4, 600

	t.Run("map-bulk", func(t *testing.T) {
		frozenSingleSource(t, frozenMapPlan(false), logical.Append, nil, "in", frozenMapSchema, frozenMapEpochs(rng, epochs, perEpoch))
	})
	t.Run("live-serve", func(t *testing.T) {
		frozenSingleSource(t, frozenMapPlan(true), logical.Append, nil, "in", frozenMapSchema, frozenMapEpochs(rng, epochs, perEpoch))
	})
	t.Run("ysb-bulk", func(t *testing.T) {
		plan, resolver := yahooPlan()
		in := make([][]sql.Row, epochs)
		for e := range in {
			for i := 0; i < perEpoch; i++ {
				in[e] = append(in[e], adEvent(e*perEpoch+i))
			}
		}
		frozenSingleSource(t, plan, logical.Update, resolver, "ad_events", adSchema, in)
	})
	t.Run("agg-spill", func(t *testing.T) {
		in := make([][]sql.Row, epochs)
		for e := range in {
			for i := 0; i < perEpoch; i++ {
				in[e] = append(in[e], sql.Row{fmt.Sprintf("k%07d", rng.Intn(900)), rng.Int63n(1000)})
			}
		}
		frozenSingleSource(t, frozenAggPlan(), logical.Update, nil, "in", frozenAggSchema, in)
	})
	t.Run("join-skew", func(t *testing.T) {
		// Impressions in event-time order, a second apart; a click follows
		// some of them by up to 12 s, so a few fall outside the band. Ads are
		// skewed: half of all rows go to ad 0. Nothing arrives later than
		// the watermark allows, so the stream's output is the batch join's.
		in := make([]map[string][]sql.Row, epochs)
		var imps, clicks []sql.Row
		for e := range in {
			in[e] = map[string][]sql.Row{}
			for i := 0; i < perEpoch/2; i++ {
				n := int64(e*perEpoch/2 + i)
				ad := int64(0)
				if rng.Intn(2) == 0 {
					ad = rng.Int63n(40)
				}
				imp := sql.Row{ad, n * sec, n}
				in[e]["impressions"] = append(in[e]["impressions"], imp)
				imps = append(imps, imp)
				if rng.Intn(3) != 0 {
					click := sql.Row{ad, n*sec + rng.Int63n(13*sec), n}
					in[e]["clicks"] = append(in[e]["clicks"], click)
					clicks = append(clicks, click)
				}
			}
		}
		plan := frozenJoinPlan()
		var consumedImps, consumedClicks int
		frozenRun(t, compile(t, plan, logical.Append, nil),
			map[string]sql.Schema{"impressions": frozenImpSchema, "clicks": frozenClickSchema}, in,
			func(e int, sink *sinks.MemorySink) {
				consumedImps += len(in[e]["impressions"])
				consumedClicks += len(in[e]["clicks"])
				want := batchRun(t, plan, map[string][]sql.Row{
					"impressions": imps[:consumedImps], "clicks": clicks[:consumedClicks]})
				if len(want) == 0 {
					t.Fatal("the join matched nothing: the shape is not exercised")
				}
				got, exp := sortedStrings(sink.Rows()), sortedStrings(want)
				if fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Fatalf("epoch %d: the sink holds %d rows, the batch join over the prefix %d", e, len(got), len(exp))
				}
			})
	})
}

// frozenMapEpochs draws map-bulk records: values on both sides of the
// filter's bound, production times in order.
func frozenMapEpochs(rng *rand.Rand, epochs, perEpoch int) [][]sql.Row {
	in := make([][]sql.Row, epochs)
	for e := range in {
		for i := 0; i < perEpoch; i++ {
			in[e] = append(in[e], sql.Row{rng.Int63n(500_000), int64(e*perEpoch+i) * int64(time.Millisecond/time.Microsecond)})
		}
	}
	return in
}

// batchRun is the batch query over the given rows per streaming scan.
func batchRun(t *testing.T, plan logical.Plan, rows map[string][]sql.Row) []sql.Row {
	t.Helper()
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatal(err)
	}
	op, err := physical.Compile(optimizer.Optimize(analyzed), func(s *logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(s.Out, rows[s.Name]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := physical.Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
