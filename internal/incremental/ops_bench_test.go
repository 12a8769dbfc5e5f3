package incremental

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"structream/internal/fsx"
	"structream/internal/sql"
	"structream/internal/sql/codec"
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

// BenchmarkPartialAggUpdateBatch measures the columnar path: batch
// grouping pass plus bulk count/sum kernels. keys=16 and keys=4096 run the
// row benchmark's string-keyed data; ysb is ysb-bulk's map-side key, a
// 10 s tumbling window plus an int64 campaign over 100 values, counted
// over 65 536 lanes spanning two windows (200 groups). Each shape fails if
// the batch does not resolve to its number of distinct keys.
func BenchmarkPartialAggUpdateBatch(b *testing.B) {
	type shape struct {
		name   string
		schema sql.Schema
		rows   []sql.Row
		keys   []string   // key column names
		inputs []sql.Expr // one per aggregate, nil for count(*)
		aggs   []sql.BoundAgg
	}
	shapes := []shape{
		{name: "keys=16", schema: benchSchema, rows: benchRows(8192, 16),
			keys: []string{"k"}, inputs: []sql.Expr{nil, sql.Col("v")}, aggs: benchAggs()},
		{name: "keys=4096", schema: benchSchema, rows: benchRows(8192, 4096),
			keys: []string{"k"}, inputs: []sql.Expr{nil, sql.Col("v")}, aggs: benchAggs()},
		{name: "ysb", schema: ysbKeySchema, rows: ysbKeyRows(65536, 100),
			keys: []string{"window", "campaign_id"}, inputs: []sql.Expr{nil},
			aggs: []sql.BoundAgg{{Kind: sql.AggCountAll, ResultType: sql.TypeInt64}}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			batch, ok := vec.FromRows(sh.schema, sh.rows)
			if !ok {
				b.Fatal("FromRows failed")
			}
			plan := &VecAggPlan{Aggs: sh.aggs, InputProgs: make([]*vec.Program, len(sh.inputs))}
			for _, k := range sh.keys {
				prog, ok := vec.Compile(sql.Col(k), sh.schema)
				if !ok {
					b.Fatalf("key %s does not compile", k)
				}
				plan.KeyProgs = append(plan.KeyProgs, prog)
			}
			for i, in := range sh.inputs {
				if in != nil {
					if plan.InputProgs[i], ok = vec.Compile(in, sh.schema); !ok {
						b.Fatalf("input %v does not compile", in)
					}
				}
			}
			distinct := map[string]bool{}
			for _, r := range sh.rows {
				key := make([]sql.Value, len(sh.keys))
				for i, k := range sh.keys {
					key[i] = r[sh.schema.IndexOf(k)]
				}
				distinct[codec.KeyString(key)] = true
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := newPartialAgg(nil, sh.aggs)
				p.updateBatch(batch, plan)
				if len(p.groups) != len(distinct) {
					b.Fatalf("%d groups, want %d", len(p.groups), len(distinct))
				}
			}
			b.SetBytes(int64(len(sh.rows)))
		})
	}
}

var ysbKeySchema = sql.NewSchema(
	sql.Field{Name: "window", Type: sql.TypeWindow},
	sql.Field{Name: "campaign_id", Type: sql.TypeInt64},
)

// ysbKeyRows is n (window, campaign_id) rows as ysb-bulk's map side groups
// them: event times spread evenly over two 10 s tumbling windows, campaigns
// drawn uniformly from campaigns values.
func ysbKeyRows(n, campaigns int) []sql.Row {
	const origin, win = int64(1_600_000_000_000_000), int64(10_000_000)
	rng := rand.New(rand.NewSource(1))
	rows := make([]sql.Row, n)
	for i := range rows {
		ts := origin + int64(i)*2*win/int64(n)
		start := ts - ts%win
		rows[i] = sql.Row{sql.Window{Start: start, End: start + win}, int64(rng.Intn(campaigns))}
	}
	return rows
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
// against 1 000 ads with one campaign each (unique) or three (dupkeys). The
// string shapes add a 36-byte string id to both sides and join on it alone
// (string) or on the int64 id and it (int-string). A tenth of the stream's
// ads are unknown to the table.
func BenchmarkStreamStaticJoin(b *testing.B) {
	const slice, ads = 8192, 1000
	// adKey is ad's string id, 36 bytes like the Yahoo! benchmark's UUIDs.
	adKey := func(ad int) string { return fmt.Sprintf("%08x-0000-4000-8000-%012x", ad*2654435761%(1<<32), ad) }
	for _, shape := range []struct {
		name  string
		perAd int  // static rows per ad id
		str   bool // both sides carry the ad's string id
		cond  sql.Expr
	}{
		{"unique", 1, false, sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id"))},
		{"dupkeys", 3, false, sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id"))},
		{"string", 1, true, sql.Eq(sql.Col("ad_key"), sql.Col("c_ad_key"))},
		{"int-string", 1, true, sql.And(sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id")), sql.Eq(sql.Col("ad_key"), sql.Col("c_ad_key")))},
	} {
		streamFields := []sql.Field{{Name: "ad_id", Type: sql.TypeInt64}, {Name: "event_time", Type: sql.TypeTimestamp}}
		campaignFields := []sql.Field{{Name: "c_ad_id", Type: sql.TypeInt64}, {Name: "campaign_id", Type: sql.TypeInt64}}
		if shape.str {
			streamFields = append(streamFields, sql.Field{Name: "ad_key", Type: sql.TypeString})
			campaignFields = append(campaignFields, sql.Field{Name: "c_ad_key", Type: sql.TypeString})
		}
		streamSchema, campaignSchema := sql.NewSchema(streamFields...), sql.NewSchema(campaignFields...)
		rng := rand.New(rand.NewSource(1))
		rows := make([]sql.Row, slice)
		for i := range rows {
			ad := rng.Intn(ads * 10 / 9)
			rows[i] = sql.Row{int64(ad), int64(1_600_000_000_000_000 + i*100)}
			if shape.str {
				rows[i] = append(rows[i], adKey(ad))
			}
		}
		batch, ok := vec.FromRows(streamSchema, rows)
		if !ok {
			b.Fatal("FromRows failed")
		}
		var campaigns []sql.Row
		for c := 0; c < shape.perAd; c++ {
			for ad := 0; ad < ads; ad++ {
				row := sql.Row{int64(ad), int64(c*ads + ad/10)}
				if shape.str {
					row = append(row, adKey(ad))
				}
				campaigns = append(campaigns, row)
			}
		}
		plan := &logical.Join{
			Left:  &logical.Scan{Name: "ad_events", Streaming: true, Out: streamSchema},
			Right: &logical.Scan{Name: "campaigns", Out: campaignSchema, Handle: campaigns},
			Type:  logical.InnerJoin,
			Cond:  shape.cond,
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
		if want < slice*shape.perAd*8/10 {
			b.Fatalf("%s: joined %d rows of %d, the keys barely match", shape.name, want, slice)
		}
		for _, path := range []struct {
			name string
			run  func() int
		}{
			{"row", func() int { return len(p.Process(rows)) }},
			{"vec", func() int { return p.ApplyVec(batch).NumLive() }},
		} {
			b.Run(path.name+"/"+shape.name, func(b *testing.B) {
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
