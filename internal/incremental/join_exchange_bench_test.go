package incremental

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"structream/internal/fsx"
	"structream/internal/msgbus"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
	"structream/internal/state"
)

// The stream-stream join's exchange, from codec records on the bus to the
// committed state deltas: impressions ⋈ clicks on the ad id with the click
// inside a 10 s band after its impression, Append mode, four reduce partitions
// with 256 KiB memtables over a file system that does not
// sync. Each side's records sit on a two-partition topic and every topic
// partition's slice of an epoch is one map task, which takes the branch the
// engine takes for the pipeline it is given: column batches through the
// vector plan when there is one, decoded rows through the row stages
// otherwise. The file uses no API a commit since the join went onto time
// buckets lacks, so it measures any of them when copied in.
const (
	joinExchangeRows  = 4096 // per side per epoch
	joinExchangeParts = 4
	joinExchangeOrig  = int64(1_600_000_000_000_000)
	joinExchangeStep  = int64(2_000) // µs of event time per record and side
	joinExchangeBand  = 10 * sec
)

var (
	joinExchangeImps = sql.NewSchema(
		sql.Field{Name: "ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "imp_time", Type: sql.TypeTimestamp},
		sql.Field{Name: "imp_id", Type: sql.TypeInt64},
	)
	joinExchangeClicks = sql.NewSchema(
		sql.Field{Name: "c_ad_id", Type: sql.TypeInt64},
		sql.Field{Name: "click_time", Type: sql.TypeTimestamp},
		sql.Field{Name: "click_id", Type: sql.TypeInt64},
	)
)

// joinExchangeShape is one seeded workload: how an epoch's rows are drawn,
// the watermark delay, and how many epochs run before the timer starts — the
// buffers fill for the delay plus the band and then hold steady.
type joinExchangeShape struct {
	name  string
	delay int64
	warm  int
	// epoch draws epoch e's impressions and clicks as (ad, event time) pairs;
	// rng is the shape's own, drawn from in epoch order.
	epoch func(rng *rand.Rand, e int64) (imps, clicks [][2]int64)
}

var joinExchangeShapes = []joinExchangeShape{
	{
		// join-skew's shape: Zipf ads (P(ad k) ∝ (20 + k)^-1.05 over 50 000),
		// both sides in event-time order, 500 rows per side and event-time
		// second, a click 1 ms after the impression of its slot and drawn
		// independently of it, an 80 s watermark delay.
		name: "join-skew", delay: 80 * sec, warm: 14,
		epoch: func(rng *rand.Rand, e int64) (imps, clicks [][2]int64) {
			zipf := rand.NewZipf(rng, 1.05, 20, 50_000-1)
			for i := int64(0); i < joinExchangeRows; i++ {
				ts := joinExchangeOrig + (e*joinExchangeRows+i)*joinExchangeStep
				imps = append(imps, [2]int64{int64(zipf.Uint64()), ts})
				clicks = append(clicks, [2]int64{int64(zipf.Uint64()), ts + joinExchangeStep/2})
			}
			return imps, clicks
		},
	},
	{
		// join-lag: every impression gets a click on its ad up to a band after
		// it, and the clicks of an epoch's impressions arrive an epoch later —
		// the right side trails the left and is out of order within the band —
		// while the watermark delay, 4 s, is shorter than the band. Ads are
		// uniform over 5 000.
		name: "join-lag", delay: 4 * sec, warm: 6,
		epoch: func(rng *rand.Rand, e int64) (imps, clicks [][2]int64) {
			ads := func(e int64) *rand.Rand { return rand.New(rand.NewSource(e)) } // the same ads in both epochs that read them
			lag := rand.New(rand.NewSource(rng.Int63()))
			for i, prev, cur := int64(0), ads(e-1), ads(e); i < joinExchangeRows; i++ {
				ts := joinExchangeOrig + (e*joinExchangeRows+i)*joinExchangeStep
				imps = append(imps, [2]int64{cur.Int63n(5_000), ts})
				if e > 0 {
					clicks = append(clicks, [2]int64{prev.Int63n(5_000), ts - joinExchangeRows*joinExchangeStep + lag.Int63n(joinExchangeBand)})
				}
			}
			return imps, clicks
		},
	},
}

func joinExchangeQuery(tb testing.TB, delay int64) *Query {
	tb.Helper()
	side := func(name string, schema sql.Schema, col string) logical.Plan {
		return &logical.WithWatermark{Child: &logical.Scan{Name: name, Streaming: true, Out: schema}, Column: col, Delay: delay}
	}
	q, err := Compile(&logical.Join{
		Left:  side("impressions", joinExchangeImps, "imp_time"),
		Right: side("clicks", joinExchangeClicks, "click_time"),
		Type:  logical.InnerJoin,
		Cond: sql.And(sql.Eq(sql.Col("ad_id"), sql.Col("c_ad_id")), sql.And(
			sql.Ge(sql.Col("click_time"), sql.Col("imp_time")),
			sql.Le(sql.Col("click_time"), sql.Add(sql.Col("imp_time"), sql.IntervalLit(joinExchangeBand))))),
	}, logical.Append, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// joinExchangeMap is one map task over records [from, to) of a topic
// partition, read as the engine reads it.
func joinExchangeMap(tb testing.TB, pipe *Pipeline, src *sources.BusSource, part int, from, to int64) [][]sql.Row {
	b, ok, err := src.ReadVec(part, from, to)
	if err != nil {
		tb.Fatal(err)
	}
	if !ok {
		rows, err := src.Read(part, from, to)
		if err != nil {
			tb.Fatal(err)
		}
		b = vec.FromRows(src.Schema(), rows)
	}
	return pipe.ProcessBatchScatter(b, joinExchangeParts)
}

// BenchmarkJoinExchange: one op is one epoch — 4 096 records per side read
// off the bus, mapped, routed, and four partitions' Process + Commit — after
// the shape's warm-up epochs. Reported per input row: time, allocations, the
// headers the operator read, the staging-table lookups its stores made, the
// buffered entries its probes fetched and the pairs it emitted; the last four
// are exact counts of the seeded stream.
func BenchmarkJoinExchange(b *testing.B) {
	for _, shape := range joinExchangeShapes {
		b.Run(shape.name, func(b *testing.B) {
			q := joinExchangeQuery(b, shape.delay)
			j := q.Stateful.(*StreamStreamJoin)
			prov := state.NewProviderFS(fsx.NoSync(), b.TempDir())
			prov.MemtableBytes = 256 << 10
			defer prov.Close()
			stores := make([]*state.Store, joinExchangeParts)
			for p := range stores {
				var err error
				if stores[p], err = prov.Open(state.ID{Operator: j.Name(), Partition: p}, -1); err != nil {
					b.Fatal(err)
				}
			}
			// Every epoch's records go onto the bus before the timer starts;
			// ends[e][s] is where side s's topic partitions stand after epoch
			// e, maxTs[e][s] the newest event time side s has delivered by then.
			epochs := int64(shape.warm + b.N)
			var srcs [2]*sources.BusSource
			var topics [2]*msgbus.Topic
			for s, schema := range []sql.Schema{joinExchangeImps, joinExchangeClicks} {
				var err error
				if topics[s], err = msgbus.NewBroker().CreateTopic(schema.Field(0).Name, 2); err != nil {
					b.Fatal(err)
				}
				srcs[s] = sources.NewCodecBusSource(schema.Field(0).Name, topics[s], schema)
			}
			ends := make([][2][]int64, epochs)
			maxTs := make([][2]int64, epochs)
			rng := rand.New(rand.NewSource(51))
			id := int64(0)
			for e := int64(0); e < epochs; e++ {
				imps, clicks := shape.epoch(rng, e)
				for s, drawn := range [][][2]int64{imps, clicks} {
					maxTs[e][s] = -1
					if e > 0 {
						maxTs[e][s] = maxTs[e-1][s]
					}
					for i, r := range drawn {
						id++
						if _, err := topics[s].Append(i%2, msgbus.Record{Value: codec.EncodeRow(sql.Row{r[0], r[1], id})}); err != nil {
							b.Fatal(err)
						}
						maxTs[e][s] = max(maxTs[e][s], r[1])
					}
					ends[e][s] = topics[s].LatestOffsets()
				}
			}
			watermark, rows, pairs := int64(0), int64(0), int64(0)
			epoch := func(e int64) {
				var in [joinExchangeParts][2][]sql.Row
				for s, pipe := range q.Pipelines {
					for part := 0; part < 2; part++ {
						from := int64(0)
						if e > 0 {
							from = ends[e-1][s][part]
						}
						for p, bucket := range joinExchangeMap(b, pipe, srcs[s], part, from, ends[e][s][part]) {
							in[p][s] = append(in[p][s], bucket...)
						}
					}
				}
				ctx := &EpochContext{Epoch: e, Watermark: watermark, Mode: logical.Append, Vectorize: true}
				for p, st := range stores {
					out, err := j.Process(ctx, st, in[p][:])
					if err != nil {
						b.Fatal(err)
					}
					if err := st.Commit(e); err != nil {
						b.Fatal(err)
					}
					pairs += int64(len(out))
					rows += int64(len(in[p][0]) + len(in[p][1]))
				}
				// The engine's rule, for the next epoch: the slower side's
				// newest event time less the delay, held while a side has
				// delivered nothing, never moving back.
				if maxTs[e][0] >= 0 && maxTs[e][1] >= 0 {
					watermark = max(watermark, min(maxTs[e][0], maxTs[e][1])-shape.delay)
				}
			}
			for e := 0; e < shape.warm; e++ {
				epoch(int64(e))
			}
			probes := func() (n int64) {
				for _, st := range stores {
					n += reflect.ValueOf(st).Elem().FieldByName("probes").Int()
				}
				return n
			}
			rows, pairs = 0, 0
			headers, probed, fetched := j.headerReads.Load(), probes(), j.entriesRead.Load()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch(int64(shape.warm + i))
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if rows != int64(b.N)*2*joinExchangeRows || pairs == 0 {
				b.Fatalf("%d rows reached the partitions and %d pairs came out, want %d rows and some pairs", rows, pairs, int64(b.N)*2*joinExchangeRows)
			}
			perRow := func(n int64) float64 { return float64(n) / float64(rows) }
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
			b.ReportMetric(perRow(int64(after.Mallocs-before.Mallocs)), "allocs/row")
			b.ReportMetric(perRow(j.headerReads.Load()-headers), "header-reads/row")
			b.ReportMetric(perRow(probes()-probed), "staging-probes/row")
			b.ReportMetric(perRow(j.entriesRead.Load()-fetched), "entries-read/row")
			b.ReportMetric(perRow(pairs), "pairs/row")
		})
	}
}
