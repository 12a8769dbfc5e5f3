package sinks

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// This file uses nothing of the sink but NewMemorySink, AddBatch and
// SnapshotRows, so it measures any commit it is copied to.

var benchSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "cnt", Type: sql.TypeInt64},
	sql.Field{Name: "total", Type: sql.TypeInt64},
)

const benchKeyWidth = 8 // "k" + 7 digits

// benchKeyNames is every key back to back in one string: a key is a
// substring and costs no allocation of its own.
func benchKeyNames(universe int) string {
	buf := make([]byte, 0, universe*benchKeyWidth)
	for i := 0; i < universe; i++ {
		buf = fmt.Appendf(buf, "k%07d", i)
	}
	return string(buf)
}

// benchUpsert is one emitted group: its key and its running count and sum.
type benchUpsert struct {
	key        int32
	cnt, total int64
}

// benchUpdateScript is what an Update-mode GROUP BY k COUNT(*), SUM(v) hands
// its sink over draws records with keys Zipf(s) over universe, perEpoch a
// batch: per epoch one row per distinct key drawn, carrying the running
// aggregates. Pointer-free, so holding it costs the collector nothing.
func benchUpdateScript(universe, draws, perEpoch int, s float64) [][]benchUpsert {
	cum := make([]float64, universe)
	sum := 0.0
	for k := range cum {
		sum += 1 / math.Pow(float64(k+1), s)
		cum[k] = sum
	}
	rng := rand.New(rand.NewSource(1))
	state := make([]benchUpsert, universe)
	var epochs [][]benchUpsert
	for done := 0; done < draws; done += perEpoch {
		touched := map[int32]struct{}{}
		var order []int32
		for i := 0; i < perEpoch && done+i < draws; i++ {
			k := int32(sort.SearchFloat64s(cum, rng.Float64()*sum))
			state[k].key = k
			state[k].cnt++
			state[k].total += rng.Int63n(1000)
			if _, seen := touched[k]; !seen {
				touched[k] = struct{}{}
				order = append(order, k)
			}
		}
		epoch := make([]benchUpsert, len(order))
		for i, k := range order {
			epoch[i] = state[k]
		}
		epochs = append(epochs, epoch)
	}
	return epochs
}

// BenchmarkMemorySinkUpdate measures AddBatch alone at agg-spill's density:
// Zipf(0.9) upserts over 500 000 string keys, 16 384 records an epoch. One
// iteration is the whole script on a fresh sink; the boxed rows of an epoch
// are built outside the timed and counted sections.
func BenchmarkMemorySinkUpdate(b *testing.B) {
	const universe, draws, perEpoch = 500_000, 1_000_000, 16_384
	names := benchKeyNames(universe)
	script := benchUpdateScript(universe, draws, perEpoch, 0.9)
	var busy time.Duration
	var rows, mallocs, bytes uint64
	var before, after runtime.MemStats
	for n := 0; n < b.N; n++ {
		s := NewMemorySink()
		distinct := map[int32]struct{}{}
		for e, epoch := range script {
			batch := Batch{Epoch: int64(e), Mode: logical.Update, Schema: benchSchema, KeyArity: 1}
			for _, u := range epoch {
				k := int(u.key) * benchKeyWidth
				batch.Rows = append(batch.Rows, sql.Row{names[k : k+benchKeyWidth], u.cnt, u.total})
				distinct[u.key] = struct{}{}
			}
			runtime.ReadMemStats(&before)
			start := time.Now()
			if err := s.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
			busy += time.Since(start)
			runtime.ReadMemStats(&after)
			rows += uint64(len(epoch))
			mallocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		if got, _ := s.SnapshotRows(); len(got) != len(distinct) {
			b.Fatalf("sink holds %d rows for %d distinct keys", len(got), len(distinct))
		}
	}
	b.ReportMetric(float64(busy.Nanoseconds())/float64(rows), "ns/row")
	b.ReportMetric(float64(bytes)/float64(rows), "B/row")
	b.ReportMetric(float64(mallocs)/float64(rows), "allocs/row")
}

// BenchmarkMemorySinkSnapshot measures what a reader pays for the whole
// table: one iteration is one SnapshotRows of an Update-mode table.
func BenchmarkMemorySinkSnapshot(b *testing.B) {
	for _, size := range []int{1_000, 500_000} {
		b.Run(fmt.Sprintf("rows=%d", size), func(b *testing.B) {
			names := benchKeyNames(size)
			batch := Batch{Mode: logical.Update, Schema: benchSchema, KeyArity: 1}
			for k := 0; k < size; k++ {
				batch.Rows = append(batch.Rows, sql.Row{names[k*benchKeyWidth : (k+1)*benchKeyWidth], int64(k), int64(k) * 500})
			}
			s := NewMemorySink()
			if err := s.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch.Rows = nil
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if got, _ := s.SnapshotRows(); len(got) != size {
					b.Fatalf("snapshot of %d rows, want %d", len(got), size)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(size), "ns/row")
		})
	}
}
