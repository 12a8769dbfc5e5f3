package incremental

import (
	"fmt"
	"reflect"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
)

// TestLookupHashedCollisions pins the open-chained group table: two keys
// forced onto the same hash slot must land in one chain, resolve to
// distinct groups, and keep first-seen emission order.
func TestLookupHashedCollisions(t *testing.T) {
	p := newPartialAgg(nil, benchAggs())
	add := func(v string) int32 {
		const h = uint64(42) // same slot for every key: worst-case chaining
		return p.lookupHashed(h, []byte(v))
	}
	ga := add("a")
	gb := add("b")
	gc := add("c")
	if ga == gb || gb == gc || ga == gc {
		t.Fatalf("colliding keys shared a group: %d %d %d", ga, gb, gc)
	}
	// Hits resolve through the chain to the original groups.
	if got := add("a"); got != ga {
		t.Fatalf("re-lookup a = %d, want %d", got, ga)
	}
	if got := add("c"); got != gc {
		t.Fatalf("re-lookup c = %d, want %d", got, gc)
	}
	if len(p.groups) != 3 {
		t.Fatalf("slab has %d groups, want 3", len(p.groups))
	}
	// Emission order is first-seen order, and each group cached its key
	// bytes.
	for i, want := range []string{"a", "b", "c"} {
		g := p.groups[i]
		if string(g.keyBytes) != want {
			t.Fatalf("group %d cached key %q, want %q", i, g.keyBytes, want)
		}
	}
}

// TestScatterMatchesRowRouting pins that scatter's cached-hash routing
// agrees with boxing the key and hashing it — through the pipeline's
// KeyEvals, as a caller that knows nothing of partial cells would — for
// every group, that the buckets keep first-seen order, and that nothing a
// bucket holds points into the pooled table.
func TestScatterMatchesRowRouting(t *testing.T) {
	q := mustCompile(t, &logical.Aggregate{
		Child: scan("s"),
		Keys:  []sql.Expr{sql.Col("k"), sql.Col("ts")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}, {Agg: sql.SumOf(sql.Col("v")), Name: "total"}},
	}, logical.Update)
	pipe := q.Pipelines[0]
	var rows []sql.Row
	for i := 0; i < 64; i++ {
		var k sql.Value
		if i%7 != 0 {
			k = fmt.Sprintf("key-%d", i%13)
		}
		rows = append(rows, sql.Row{k, float64(i), int64(i % 3)})
	}
	p := newPartialAgg(nil, pipe.Vec.Agg.Aggs)
	b, ok := vec.FromRows(testSchema, rows)
	if !ok {
		t.Fatal("FromRows failed on schema-conforming rows")
	}
	p.updateBatch(b, pipe.Vec.Agg)
	const nPart = 4
	buckets := p.scatter(nPart)
	all := p.scatter(1)[0]
	p.reset()
	p.updateBatch(b, pipe.Vec.Agg) // overwrites the table a retained cell would point into

	want := make([][]sql.Row, nPart)
	key := make([]sql.Value, len(pipe.KeyEvals))
	for _, row := range all {
		for i, ev := range pipe.KeyEvals {
			key[i] = ev(row)
		}
		part := int(codec.HashKey(key) % uint64(nPart))
		if got := pipe.PartitionOf(row, key, nPart); got != part {
			t.Fatalf("PartitionOf(%v) = %d, HashKey over KeyEvals says %d", row, got, part)
		}
		want[part] = append(want[part], row)
	}
	for part := 0; part < nPart; part++ {
		if !reflect.DeepEqual(buckets[part], want[part]) {
			t.Fatalf("partition %d:\n scatter     %v\n row routing %v", part, buckets[part], want[part])
		}
	}
}
