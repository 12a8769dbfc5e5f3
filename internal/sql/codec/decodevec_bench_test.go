package codec_test

import (
	"math/rand"
	"runtime"
	"testing"

	"structream/internal/msgbus"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/vec"
)

// ysbEventSchema is the benchmark's ad-event layout: the Yahoo! query reads
// ad_id, event_type and event_time and steps over the other four.
var ysbEventSchema = sql.NewSchema(
	sql.Field{Name: "user_id", Type: sql.TypeInt64},
	sql.Field{Name: "page_id", Type: sql.TypeInt64},
	sql.Field{Name: "ad_id", Type: sql.TypeInt64},
	sql.Field{Name: "ad_type", Type: sql.TypeString},
	sql.Field{Name: "event_type", Type: sql.TypeString},
	sql.Field{Name: "event_time", Type: sql.TypeTimestamp},
	sql.Field{Name: "ip", Type: sql.TypeString},
)

// ysbPruned is the Yahoo! query's column set: ad_id, event_type, event_time.
var ysbPruned = []int{2, 4, 5}

// mapBulkSchema is the map-bulk workload's record: a value uniform in
// [0, 1 000 000) and a microsecond timestamp near 1.6·10¹⁵ (a 3- and an
// 8-byte varint).
var mapBulkSchema = sql.NewSchema(
	sql.Field{Name: "value", Type: sql.TypeInt64},
	sql.Field{Name: "produced", Type: sql.TypeTimestamp},
)

// joinSchema is the join-skew workload's impression (its click has the same
// shape): an ad id below 50 000, a microsecond timestamp near 1.6·10¹⁵ and
// a sequence number.
var joinSchema = sql.NewSchema(
	sql.Field{Name: "ad_id", Type: sql.TypeInt64},
	sql.Field{Name: "imp_time", Type: sql.TypeTimestamp},
	sql.Field{Name: "imp_id", Type: sql.TypeInt64},
)

// ysbEvents encodes n Yahoo! events.
func ysbEvents(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = codec.EncodeRow(sql.Row{int64(i * 7919 % 100000), int64(i * 104729 % 100000), int64(i % 1000),
			[]string{"banner", "modal", "sponsored-search", "mail", "mobile"}[i%5],
			[]string{"view", "click", "purchase"}[i%3],
			int64(1_600_000_000_000_000 + i*100), "10.140.7.1"})
	}
	return recs
}

// mapBulkRecords encodes n map-bulk records.
func mapBulkRecords(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = codec.EncodeRow(sql.Row{rng.Int63n(1_000_000), int64(1_600_000_000_000_000 + i)})
	}
	return recs
}

// mapBulkNulls encodes n map-bulk records with a NULL value in every 64th.
func mapBulkNulls(n int) [][]byte {
	recs := mapBulkRecords(n)
	for i := 0; i < n; i += 64 {
		recs[i] = codec.EncodeRow(sql.Row{nil, int64(1_600_000_000_000_000 + i)})
	}
	return recs
}

// joinRecords encodes n join-skew impressions, 2 ms of event time apart.
func joinRecords(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = codec.EncodeRow(sql.Row{rng.Int63n(50_000), int64(1_600_000_000_000_000 + 2000*i), int64(i)})
	}
	return recs
}

// BenchmarkDecodeVec decodes bus records into typed vectors. The record
// shapes decode one 8 192-record slice per iteration into a reused batch, a
// record per call: the Yahoo! event at every column (all) or only the three
// the query reads (pruned), and map-bulk's two-column record. The run shapes
// read one 64 Ki-record epoch per iteration from the middle of a topic
// partition through the bus source's ReadVec, as a map task does: map-bulk's
// record, the Yahoo! event as the query reads it, map-bulk's record with a
// NULL value in every 64th record (nulls), and join-skew's record with its
// three int64 columns read (join). Every shape fails on a record that does
// not land.
func BenchmarkDecodeVec(b *testing.B) {
	const n = 8192
	ysb, mapBulk := ysbEvents(n), mapBulkRecords(n)
	for _, tc := range []struct {
		name   string
		schema sql.Schema
		recs   [][]byte
		mask   uint8
	}{
		{"all", ysbEventSchema, ysb, 0x7f},
		{"pruned", ysbEventSchema, ysb, 1<<2 | 1<<4 | 1<<5},
		{"map-bulk", mapBulkSchema, mapBulk, 0b11},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cols := make([]*vec.Vector, tc.schema.Len())
			for c := range cols {
				if tc.mask&(1<<uint(c)) != 0 {
					cols[c] = vec.NewVector(vec.KindOf(tc.schema.Field(c).Type), n)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, rec := range tc.recs {
					if added, compat := codec.DecodeRowToBatchShared(rec, cols, r, n); !added || !compat {
						b.Fatalf("record %d: added=%v compat=%v", r, added, compat)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			rows := float64(b.N) * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
		})
	}

	const epoch = 1 << 16
	for _, tc := range []struct {
		name   string
		schema sql.Schema
		recs   [][]byte
		keep   []int // nil: every column
	}{
		{"run/map-bulk", mapBulkSchema, mapBulkRecords(3 * epoch), nil},
		{"run/ysb-pruned", ysbEventSchema, ysbEvents(3 * epoch), ysbPruned},
		{"run/nulls", mapBulkSchema, mapBulkNulls(3 * epoch), nil},
		{"run/join", joinSchema, joinRecords(3 * epoch), nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			// Appended in 8 192-record batches, as the benchmark's preload
			// does, so the epoch spans the segments a real partition has.
			topic, err := msgbus.NewBroker().CreateTopic("bench", 1)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([]msgbus.Record, 0, 8192)
			for i, rec := range tc.recs {
				batch = append(batch, msgbus.Record{Timestamp: int64(i), Value: rec})
				if len(batch) == cap(batch) || i == len(tc.recs)-1 {
					if _, err := topic.Append(0, batch...); err != nil {
						b.Fatal(err)
					}
					batch = batch[:0]
				}
			}
			src := sources.NewCodecBusSource("bench", topic, tc.schema)
			var vr sources.VectorReader = src
			if tc.keep != nil {
				vr = src.PruneColumns(tc.keep).(sources.VectorReader)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch, ok, err := vr.ReadVec(0, epoch, 2*epoch)
				if err != nil || !ok || batch.Len != epoch {
					b.Fatalf("ReadVec: err=%v ok=%v, want %d rows", err, ok, epoch)
				}
				batch.Release()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			rows := float64(b.N) * epoch
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
		})
	}
}
