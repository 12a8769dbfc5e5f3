package incremental

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

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

// partialGroup stays one 64-byte cache line: the grouping pass reads one
// per probe.
func TestPartialGroupIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(partialGroup{}); n != 64 {
		t.Fatalf("partialGroup is %d bytes, want 64", n)
	}
}

var laneKeySchema = sql.NewSchema(
	sql.Field{Name: "i", Type: sql.TypeInt64},
	sql.Field{Name: "ts", Type: sql.TypeTimestamp},
	sql.Field{Name: "f", Type: sql.TypeFloat64},
	sql.Field{Name: "b", Type: sql.TypeBool},
	sql.Field{Name: "s", Type: sql.TypeString},
	sql.Field{Name: "w", Type: sql.TypeWindow},
	sql.Field{Name: "a", Type: sql.TypeAny},
)

// laneKeyRows draws n rows over laneKeySchema from small domains, so keys
// repeat, with a fifth of every column NULL. The floats include both zeros
// and two NaN payloads; the boxed column holds the value one in five types,
// which a compare of values rather than of encodings could confuse.
func laneKeyRows(seed int64, n int) []sql.Row {
	rng := rand.New(rand.NewSource(seed))
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), 1.5}
	anys := []sql.Value{int64(1), float64(1), "1", []byte("1"), true}
	rows := make([]sql.Row, n)
	for r := range rows {
		row := sql.Row{
			int64(rng.Intn(4) - 2),
			int64(rng.Intn(3)) * 1_000_000,
			floats[rng.Intn(len(floats))],
			rng.Intn(2) == 0,
			fmt.Sprintf("s%d", rng.Intn(4)),
			sql.Window{Start: int64(rng.Intn(3)) * 10, End: int64(rng.Intn(3))*10 + 10},
			anys[rng.Intn(len(anys))],
		}
		for c := range row {
			if rng.Intn(5) == 0 {
				row[c] = nil
			}
		}
		rows[r] = row
	}
	return rows
}

// checkVectorGroups runs the live rows of a batch of rows through one
// updateBatch grouped by the named columns, with count(*), and checks group
// identity against the boxed keys: one group per distinct encoded key, each
// counting its rows, and each cell in the partition codec.HashKey of its
// boxed key names, stamped with that hash.
func checkVectorGroups(t *testing.T, rows []sql.Row, keyCols []string, sel []int32) {
	t.Helper()
	b, ok := vec.FromRows(laneKeySchema, rows)
	if !ok {
		t.Fatal("FromRows failed")
	}
	b.Sel = sel
	aggs := []sql.BoundAgg{{Kind: sql.AggCountAll, ResultType: sql.TypeInt64}}
	plan := &VecAggPlan{Aggs: aggs, InputProgs: []*vec.Program{nil}}
	idx := make([]int, len(keyCols))
	for i, name := range keyCols {
		prog, ok := vec.Compile(sql.Col(name), laneKeySchema)
		if !ok {
			t.Fatalf("key %s does not compile", name)
		}
		plan.KeyProgs = append(plan.KeyProgs, prog)
		idx[i] = laneKeySchema.IndexOf(name)
	}
	live := sel
	if live == nil {
		for i := range rows {
			live = append(live, int32(i))
		}
	}
	want := map[string]int64{}
	key := make([]sql.Value, len(idx))
	for _, lane := range live {
		for i, c := range idx {
			key[i] = rows[lane][c]
		}
		want[codec.KeyString(key)]++
	}

	p := newPartialAgg(nil, aggs)
	p.updateBatch(b, plan)
	if len(p.groups) != len(want) {
		t.Fatalf("key %v: %d groups, want %d", keyCols, len(p.groups), len(want))
	}
	for _, g := range p.groups {
		if got := g.bufs[0].Result(); got != want[string(g.keyBytes)] {
			t.Fatalf("key %v: group %x counted %v, want %d", keyCols, g.keyBytes, got, want[string(g.keyBytes)])
		}
	}
	const nPart = 5
	cells := 0
	for part, bucket := range p.scatter(nPart) {
		for _, row := range bucket {
			c := row[0].(*partialCell)
			vals, err := codec.DecodeValues(c.key)
			if err != nil {
				t.Fatal(err)
			}
			h := codec.HashKey(vals)
			if c.hash != h || int(h%nPart) != part {
				t.Fatalf("key %v = %v: cell hash %x in partition %d, HashKey %x names %d",
					keyCols, vals, c.hash, part, h, h%nPart)
			}
			cells++
		}
	}
	if cells != len(want) {
		t.Fatalf("key %v: scattered %d cells, want %d", keyCols, cells, len(want))
	}
}

// laneKeySets covers every key kind alone, NULL keys and the boxed column
// among them, and wider keys.
var laneKeySets = [][]string{{"i"}, {"ts"}, {"f"}, {"b"}, {"s"}, {"w"}, {"a"},
	{"w", "i"}, {"s", "f", "a"}, {"i", "ts", "f", "b", "s", "w", "a"}}

// TestVectorGroupsRouteByHashKey pins group identity on the columnar path:
// a lane finds its group by a typed hash and compare, and the group routes
// by the FNV hash of its encoded key, so every group is one distinct
// encoded key and lands where codec.HashKey of its boxed key says — with
// and without a selection vector.
func TestVectorGroupsRouteByHashKey(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rows := laneKeyRows(seed, 2048)
		var sel []int32
		for i := range rows {
			if i%3 != 0 {
				sel = append(sel, int32(i))
			}
		}
		for _, keys := range laneKeySets {
			checkVectorGroups(t, rows, keys, nil)
			checkVectorGroups(t, rows, keys, sel)
		}
	}
}

// TestLaneHashCollisions forces every key onto one full 64-bit lookup hash:
// the typed compare alone must keep distinct keys distinct groups.
func TestLaneHashCollisions(t *testing.T) {
	defer func(m uint64) { laneHashMask = m }(laneHashMask)
	laneHashMask = 0
	rows := laneKeyRows(7, 512)
	for _, keys := range laneKeySets {
		checkVectorGroups(t, rows, keys, nil)
	}
}
