package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/vec"
)

// exchangeSchema exercises every vector kind the shuffle can route on:
// int64 (also timestamps), float64, string, bool — plus a window column
// built by hand below.
var exchangeSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeInt64},
	sql.Field{Name: "s", Type: sql.TypeString},
	sql.Field{Name: "f", Type: sql.TypeFloat64},
	sql.Field{Name: "b", Type: sql.TypeBool},
)

// fuzzBatch builds a batch of n rows with nulls sprinkled into every
// column.
func fuzzBatch(t *testing.T, rng *rand.Rand, n int) *vec.Batch {
	t.Helper()
	rows := make([]sql.Row, n)
	words := []string{"alpha", "beta", "gamma", "", "δ"}
	for i := range rows {
		row := sql.Row{
			int64(rng.Intn(7)),
			words[rng.Intn(len(words))],
			float64(rng.Intn(5)) / 2,
			rng.Intn(2) == 0,
		}
		// Sprinkle NULLs so null-vs-value hashing is exercised.
		if rng.Intn(6) == 0 {
			row[rng.Intn(len(row))] = nil
		}
		rows[i] = row
	}
	b := vec.FromRows(exchangeSchema, rows)
	return b
}

// rowScatter is the reference shuffle: materialize each live row, box its
// key cells, route by codec.HashKey — exactly what the engine's row path
// does.
func rowScatter(b *vec.Batch, keyIdxs []int, nPart int) [][]sql.Row {
	buckets := make([][]sql.Row, nPart)
	for _, row := range b.AppendRows(nil) {
		key := make([]sql.Value, len(keyIdxs))
		for i, idx := range keyIdxs {
			key[i] = row[idx]
		}
		p := int(codec.HashKey(key) % uint64(nPart))
		buckets[p] = append(buckets[p], row)
	}
	return buckets
}

// TestPartitionScatterMatchesRowPath checks the columnar exchange routes
// every row to the same bucket, in the same order, with the same
// materialized values as per-row HashKey routing — across key subsets,
// partition counts, and selection vectors.
func TestPartitionScatterMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keySets := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {3, 2, 0}, {0, 1, 2, 3}}
	for trial := 0; trial < 40; trial++ {
		b := fuzzBatch(t, rng, 1+rng.Intn(200))
		if rng.Intn(2) == 0 {
			// Narrow to a random selection, preserving lane order.
			var sel []int32
			for i := 0; i < b.Len; i++ {
				if rng.Intn(3) > 0 {
					sel = append(sel, int32(i))
				}
			}
			b.Sel = sel
			if sel == nil {
				b.Sel = []int32{}
			}
		}
		keyIdxs := keySets[rng.Intn(len(keySets))]
		nPart := 1 + rng.Intn(5)
		got := Scatter(b, keyIdxs, nPart)
		want := rowScatter(b, keyIdxs, nPart)
		for p := 0; p < nPart; p++ {
			if len(got[p]) != len(want[p]) {
				t.Fatalf("trial %d: bucket %d has %d rows, want %d (keys=%v)",
					trial, p, len(got[p]), len(want[p]), keyIdxs)
			}
			for r := range got[p] {
				if !reflect.DeepEqual(got[p][r], want[p][r]) {
					t.Fatalf("trial %d: bucket %d row %d = %v, want %v",
						trial, p, r, got[p][r], want[p][r])
				}
			}
		}
	}
}

// TestPartitionHashLanesWindow checks the window kind hashes identically
// to its boxed form (FromRows can't build window columns, so construct
// the vector directly).
func TestPartitionHashLanesWindow(t *testing.T) {
	schema := sql.NewSchema(sql.Field{Name: "w", Type: sql.TypeWindow})
	b := vec.NewBatch(schema, 4)
	for i := 0; i < 4; i++ {
		b.Cols[0].WStarts[i] = int64(i * 100)
		b.Cols[0].WEnds[i] = int64(i*100 + 60)
	}
	b.Cols[0].SetNull(2, 4)
	hashes := HashLanes(b, []int{0}, nil)
	for i := 0; i < 4; i++ {
		want := codec.HashKey([]sql.Value{b.Cols[0].Get(i)})
		if hashes[i] != want {
			t.Fatalf("lane %d: HashLanes=%#x HashKey=%#x", i, hashes[i], want)
		}
	}
}

// TestPartitionScatterEmpty checks nil and fully-filtered batches route
// nowhere without panicking.
func TestPartitionScatterEmpty(t *testing.T) {
	for _, b := range []*vec.Batch{nil, {Schema: exchangeSchema, Sel: []int32{}}} {
		buckets := Scatter(b, []int{0}, 4)
		if len(buckets) != 4 {
			t.Fatalf("want 4 empty buckets, got %d", len(buckets))
		}
		for p, rows := range buckets {
			if len(rows) != 0 {
				t.Fatalf("bucket %d not empty", p)
			}
		}
	}
}
