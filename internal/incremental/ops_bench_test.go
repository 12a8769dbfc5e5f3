package incremental

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"structream/internal/fsx"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/physical"
	"structream/internal/sql/vec"
	"structream/internal/state"
)

// Micro-benchmarks for the map-side partial aggregator: the per-row update
// path (whose group hits now compare cached key bytes instead of
// re-rendering the key), and the columnar updateBatch (grouping pass +
// bulk kernels, no per-row boxing) — and, at the end, for the stream-stream
// join's state maintenance.

func benchAggs() []sql.BoundAgg {
	countAll := sql.BoundAgg{Kind: sql.AggCountAll, ResultType: sql.TypeInt64}
	sum := sql.BoundAgg{
		Kind:       sql.AggSum,
		Input:      func(r sql.Row) sql.Value { return r[1] },
		ResultType: sql.TypeFloat64,
	}
	return []sql.BoundAgg{countAll, sum}
}

func benchRows(n, keys int) []sql.Row {
	rng := rand.New(rand.NewSource(1))
	rows := make([]sql.Row, n)
	for i := range rows {
		rows[i] = sql.Row{fmt.Sprintf("key-%05d", rng.Intn(keys)), rng.Float64() * 100}
	}
	return rows
}

var benchSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "v", Type: sql.TypeFloat64},
)

// BenchmarkPartialAggUpdate measures the row path: one update per row,
// hot-path dominated by key encode + hash-table hit.
func BenchmarkPartialAggUpdate(b *testing.B) {
	for _, keys := range []int{16, 4096} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			rows := benchRows(8192, keys)
			keyEval := []func(sql.Row) sql.Value{func(r sql.Row) sql.Value { return r[0] }}
			aggs := benchAggs()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := newPartialAgg(keyEval, aggs)
				for _, r := range rows {
					p.update(r)
				}
				if len(p.groups) == 0 {
					b.Fatal("no groups")
				}
			}
			b.SetBytes(8192)
		})
	}
}

// BenchmarkPartialAggUpdateBatch measures the columnar path over the same
// data: batch grouping pass plus bulk count/sum kernels.
func BenchmarkPartialAggUpdateBatch(b *testing.B) {
	for _, keys := range []int{16, 4096} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			rows := benchRows(8192, keys)
			batch, ok := vec.FromRows(benchSchema, rows)
			if !ok {
				b.Fatal("FromRows failed")
			}
			keyProg, ok := vec.Compile(sql.Col("k"), benchSchema)
			if !ok {
				b.Fatal("key compile failed")
			}
			inProg, ok := vec.Compile(sql.Col("v"), benchSchema)
			if !ok {
				b.Fatal("input compile failed")
			}
			aggs := benchAggs()
			plan := &VecAggPlan{
				KeyProgs:   []*vec.Program{keyProg},
				InputProgs: []*vec.Program{nil, inProg},
				Aggs:       aggs,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := newPartialAgg(nil, aggs)
				p.updateBatch(batch, plan)
				if len(p.groups) == 0 {
					b.Fatal("no groups")
				}
			}
			b.SetBytes(8192)
		})
	}
}

// BenchmarkStreamStreamJoin is the stream-stream join's entry in the
// per-layer micro-suite: one op is one epoch of joinBenchEpoch rows per side
// through Process and Commit, with the watermark trailing the newest event
// time by a fixed delay, so the buffers fill and then hold steady. uniform
// spreads the rows over many join keys; hotkey puts a fifth of them on one;
// neither tells the operator a time band, so both run on one bucket. band is
// the shape the band exists for: Zipf keys, 80 s of buffered rows, a condition
// that bounds right − left to 10 s and the band the planner derives from it.
// It reports what the operator costs per input row and how many buffered
// entries its probes fetch.
func BenchmarkStreamStreamJoin(b *testing.B) {
	const joinBenchEpoch = 1024
	for _, shape := range []string{"uniform", "hotkey", "band"} {
		b.Run(shape, func(b *testing.B) {
			within, delay, warm := 2*sec, 40*sec, int64(6) // warm: epochs until the buffered rows hold steady
			j := &StreamStreamJoin{OpName: "join", Type: logical.InnerJoin, LeftArity: 3, RightArity: 3,
				LeftEventIdx: 1, RightEventIdx: 1}
			if shape == "band" {
				within, delay, warm = 10*sec, 80*sec, 10
				j.Band = &TimeBand{Lo: 0, Hi: within}
			}
			j.Residual = func(r sql.Row) sql.Value { // right within `within` after left
				d := r[4].(int64) - r[1].(int64)
				return d >= 0 && d <= within
			}
			// fsync time is the device's, not the operator's.
			prov := state.NewProviderFS(fsx.NoSync(), b.TempDir())
			prov.MemtableBytes, prov.BackgroundMaintenance = 256<<10, true
			defer prov.Close()
			store, err := prov.Open(state.ID{Operator: "join"}, -1)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			zipf := rand.NewZipf(rng, 1.05, 20, 4095)
			clock := int64(0)
			epoch := func(version int64) {
				var cells [2]joinCells // each side's rows rendered as one map task would
				for i := 0; i < joinBenchEpoch; i++ {
					clock += sec / 100 // 100 rows per side per event-time second
					for s := range cells {
						key := int64(rng.Intn(4096))
						if shape == "hotkey" && rng.Intn(5) == 0 {
							key = -1
						} else if shape == "band" {
							key = int64(zipf.Uint64())
						}
						cells[s].addRow([]sql.Value{key}, clock, sql.Row{key, clock, version})
					}
				}
				inputs := [][]sql.Row{cells[0].scatter(1)[0], cells[1].scatter(1)[0]}
				ctx := &EpochContext{Epoch: version, Watermark: max(0, clock-delay), Mode: logical.Append}
				if _, err := j.Process(ctx, store, inputs); err != nil {
					b.Fatal(err)
				}
				if err := store.Commit(version); err != nil {
					b.Fatal(err)
				}
			}
			for v := int64(0); v < warm; v++ {
				epoch(v)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			read := j.entriesRead.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch(warm + int64(i))
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			rows := float64(b.N) * 2 * joinBenchEpoch
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
			b.ReportMetric(float64(j.entriesRead.Load()-read)/rows, "entries-read/row")
		})
	}
}

// BenchmarkStreamStaticJoin is the broadcast join's entry in the per-layer
// micro-suite: one op is one 8 192-row slice of (ad_id, event_time) through
// the join stage alone, as boxed rows (row) or as a column batch (vec),
// against 1 000 ads with one campaign each (unique) or three (dupkeys). A
// tenth of the stream's ads are unknown to the table.
func BenchmarkStreamStaticJoin(b *testing.B) {
	const slice, ads = 8192, 1000
	streamSchema := sql.NewSchema(
		sql.Field{Name: "ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "event_time", Type: sql.TypeTimestamp},
	)
	campaignSchema := sql.NewSchema(
		sql.Field{Name: "c_ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "campaign_id", Type: sql.TypeInt64},
	)
	rng := rand.New(rand.NewSource(1))
	rows := make([]sql.Row, slice)
	for i := range rows {
		rows[i] = sql.Row{int64(rng.Intn(ads * 10 / 9)), int64(1_600_000_000_000_000 + i*100)}
	}
	batch, ok := vec.FromRows(streamSchema, rows)
	if !ok {
		b.Fatal("FromRows failed")
	}
	for _, perAd := range []struct {
		name string
		n    int
	}{{"unique", 1}, {"dupkeys", 3}} {
		var campaigns []sql.Row
		for c := 0; c < perAd.n; c++ {
			for ad := 0; ad < ads; ad++ {
				campaigns = append(campaigns, sql.Row{int64(ad), int64(c*ads + ad/10)})
			}
		}
		plan := &logical.Join{
			Left:  &logical.Scan{Name: "ad_events", Streaming: true, Out: streamSchema},
			Right: &logical.Scan{Name: "campaigns", Out: campaignSchema, Handle: campaigns},
			Type:  logical.InnerJoin,
			Cond:  sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id")),
		}
		q, err := Compile(plan, logical.Append, func(s *logical.Scan) (physical.RowSource, error) {
			return physical.NewSliceSource(s.Out, s.Handle.([]sql.Row)), nil
		})
		if err != nil {
			b.Fatal(err)
		}
		p := q.Pipelines[0]
		if !p.FullyVectorized() {
			b.Fatal("the join has no vector twin")
		}
		want := len(p.Process(rows))
		for _, path := range []struct {
			name string
			run  func() int
		}{
			{"row", func() (n int) { p.ProcessTo(rows, func(sql.Row) { n++ }); return n }},
			{"vec", func() int { return p.ApplyVec(batch).NumLive() }},
		} {
			b.Run(path.name+"/"+perAd.name, func(b *testing.B) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if got := path.run(); got != want {
						b.Fatalf("joined %d rows, want %d", got, want)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				in := float64(b.N) * slice
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/in, "ns/row")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/in, "allocs/row")
			})
		}
	}
}
