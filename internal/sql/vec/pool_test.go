package vec

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"structream/internal/sql"
)

// poisonStrings are what a poisoned string slab holds, lane by lane: each
// as long as a literal the tests compare against, so string equality reads
// them down its word-load path.
var poisonStrings = []string{"x", "view", "viewview", "poisoned-slab", ""}

// poison scribbles over a vector's whole capacity and sets every null bit:
// true verdicts, strings the tests also compare against, non-nil boxed
// cells. A kernel that leaves a slot it exposes unwritten shows poison.
func poison(v *Vector) {
	fillCap(v.Int64s, math.MinInt64+1)
	fillCap(v.Float64s, -7.25)
	fillCap(v.Bools, true)
	for i := range v.Strings[:cap(v.Strings)] {
		v.Strings[:cap(v.Strings)][i] = poisonStrings[i%len(poisonStrings)]
	}
	fillCap(v.WStarts, 42)
	fillCap(v.WEnds, 43)
	fillCap(v.Anys, sql.Value("poison"))
	v.Nulls = NewBitmap(cap(v.Int64s) + cap(v.Float64s) + cap(v.Bools) + cap(v.Strings) + cap(v.WStarts) + cap(v.Anys))
	v.Nulls.SetAll()
}

func fillCap[T any](s []T, x T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = x
	}
}

// poisonedBatch is b's columns over a recycler whose free lists hold, for
// every kind and for selections, more poisoned slabs of b.Len slots than
// any one kernel draws.
func poisonedBatch(b *Batch) *Batch {
	r := &recycler{}
	for k := KindInt64; k <= KindAny; k++ {
		for i := 0; i < 8; i++ {
			v := NewVector(k, b.Len)
			poison(v)
			r.free[k] = append(r.free[k], v)
		}
	}
	for i := 0; i < 8; i++ {
		s := make([]int32, b.Len)
		fillCap(s, int32(b.Len-1)) // a valid lane, so a stale one reads as a wrong row
		r.freeSels = append(r.freeSels, s)
	}
	return &Batch{Schema: b.Schema, Cols: b.Cols, Len: b.Len, rec: r}
}

// sameLanes fails unless got and want agree on every lane's nullness and
// value (NULL lanes and dead lanes may hold anything).
func sameLanes(t *testing.T, what string, got, want *Vector, lanes []int) {
	t.Helper()
	if got.Kind != want.Kind {
		t.Fatalf("%s: kind %d, want %d", what, got.Kind, want.Kind)
	}
	for _, i := range lanes {
		if g, w := normalize(got.Get(i)), normalize(want.Get(i)); got.IsNull(i) != want.IsNull(i) || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: lane %d = %v (null %v), want %v (null %v)", what, i, g, got.IsNull(i), w, want.IsNull(i))
		}
	}
}

// TestKernelsIgnorePoisonedSlabs: every kernel that draws its output from
// the recycler gives the same vector over a recycler pre-filled with
// poisoned slabs as over none, where it gets make's zeroed memory. A
// kernel that relies on zeroing — a verdict it never writes false, a NULL
// boxed cell it never writes nil — fails here.
func TestKernelsIgnorePoisonedSlabs(t *testing.T) {
	schema := sql.Schema{Fields: []sql.Field{
		{Name: "i", Type: sql.TypeInt64},   // with NULLs
		{Name: "k", Type: sql.TypeInt64},   // none
		{Name: "f", Type: sql.TypeFloat64}, // with NULLs
		{Name: "s", Type: sql.TypeString},  // with NULLs
		{Name: "u", Type: sql.TypeString},  // none
		{Name: "b", Type: sql.TypeBool},    // with NULLs
		{Name: "c", Type: sql.TypeBool},    // none
		{Name: "a", Type: sql.TypeAny},     // with NULLs
	}}
	const n = 70 // two bitmap words
	rows := make([]sql.Row, n)
	strs := []string{"", "a", "view", "x", "ab"}
	for r := range rows {
		row := sql.Row{int64(r%7 - 3), int64(r%5 + 1), float64(r%9)/2 - 2, strs[r%5], strs[r*3%5], r%2 == 0, r%3 == 0, int64(r)}
		if r%4 == 1 {
			row[0], row[2], row[3], row[5], row[7] = nil, nil, nil, nil, nil
		}
		rows[r] = row
	}
	clean := FromRows(schema, rows)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	col, lit := sql.Col, sql.Lit
	exprs := map[string]sql.Expr{
		"is-null/no-nulls":     sql.IsNull(col("k")),
		"is-not-null/no-nulls": sql.IsNotNull(col("k")),
		"is-null/nulls":        sql.IsNull(col("i")),
		"is-not-null/any":      sql.IsNotNull(col("a")),
		"and/nulls":            sql.And(col("b"), sql.Gt(col("i"), lit(int64(0)))),
		"or/nulls":             sql.Or(col("b"), sql.Lt(col("f"), lit(0.5))),
		"and/no-nulls":         sql.And(col("c"), sql.Gt(col("k"), lit(int64(3)))),
		"or/no-nulls":          sql.Or(col("c"), sql.Gt(col("k"), lit(int64(3)))),
		"not/nulls":            sql.Not(col("b")),
		"not/no-nulls":         sql.Not(col("c")),
		"all-null/bool":        sql.Eq(col("i"), lit(nil)),
		"all-null/float":       sql.Add(col("f"), lit(nil)),
		"all-null/any":         sql.Neg(lit(nil)),
		"broadcast/int":        lit(int64(5)),
		"broadcast/null":       lit(nil),
		"arith/int-vv":         sql.Add(col("i"), col("k")),
		"arith/int-vc":         sql.Sub(col("k"), lit(int64(3))),
		"arith/int-cv":         sql.Mul(lit(int64(2)), col("i")),
		"arith/neg":            sql.Neg(col("i")),
		"arith/div":            sql.Div(col("f"), col("k")),
		"arith/mod-int":        sql.NewBinary(sql.OpMod, col("i"), col("k")),
		"arith/mod-float":      sql.NewBinary(sql.OpMod, col("f"), lit(2.5)),
		"cast/int-plus-float":  sql.Add(col("i"), col("f")),
		"cast/int-lt-float":    sql.Lt(col("k"), col("f")),
		"cast/bool-lt-bool":    sql.Lt(col("b"), col("c")),
		"cmp/int":              sql.NewBinary(sql.OpGe, col("i"), col("k")),
		"streq/vv":             sql.Eq(col("s"), col("u")),
		"streq/vc":             sql.NewBinary(sql.OpNe, col("u"), lit("x")),
		"streq/cv":             sql.Eq(lit(""), col("u")),
		"concat":               sql.Add(col("s"), col("u")),
	}
	for name, e := range exprs {
		prog, err := Compile(e, schema)
		if err != nil || prog.Lanewise() {
			t.Fatalf("%s: %s does not compile", name, e)
		}
		pb := poisonedBatch(clean)
		sameLanes(t, name, prog.Run(pb), prog.Run(clean), all)
		if len(pb.rec.lent) == 0 {
			t.Fatalf("%s: the kernel drew nothing from the recycler", name)
		}
	}

	// Gather, dense and placed, over every kind, padded slots included.
	wins := NewVector(KindWindow, n)
	for i := range wins.WStarts {
		wins.WStarts[i], wins.WEnds[i] = int64(i), int64(i+10)
	}
	wins.SetNull(3, n)
	from := []int32{5, 5, -1, 0, 69, 3, 17, 1}
	at := []int32{9, 2, 4, 0, 7, 11, 6, 30}
	for _, src := range append(append([]*Vector(nil), clean.Cols...), wins) {
		pb := poisonedBatch(clean)
		named := make([]int, len(at))
		for j, a := range at {
			named[j] = int(a)
		}
		sameLanes(t, "gather/dense", pb.Gather(src, from, nil, len(from)), clean.Gather(src, from, nil, len(from)), all[:len(from)])
		placed := pb.Gather(src, from, at, n)
		sameLanes(t, "gather/placed", placed, clean.Gather(src, from, at, n), named)
		if src.Kind != KindAny && placed.IsNull(1) {
			t.Fatalf("gather kind %d: a slot no pair names must stay valid", src.Kind)
		}
	}

	// String equality over a string column gathered into a recycled slab,
	// as a filter after the broadcast join's placed gather runs: the slots
	// no pair names are dead lanes holding poisoned strings, as long as
	// each literal, and the verdicts on the named lanes must not change.
	gs := sql.Schema{Fields: []sql.Field{{Name: "g", Type: sql.TypeString}}}
	for _, l := range append([]string{"ab", "a"}, poisonStrings...) {
		for _, op := range []sql.BinOp{sql.OpEq, sql.OpNe} {
			prog, _ := Compile(sql.NewBinary(op, col("g"), lit(l)), gs)
			pb := poisonedBatch(clean)
			placed := pb.Gather(clean.Cols[4], from, at, n)
			if placed.Strings[1] != poisonStrings[1] {
				t.Fatalf("gathered string slab is not a poisoned one: slot 1 holds %q", placed.Strings[1])
			}
			got := prog.Run(pb.Derive(gs, []*Vector{placed}, n, nil))
			want := prog.Run(&Batch{Schema: gs, Cols: []*Vector{clean.Gather(clean.Cols[4], from, at, n)}, Len: n})
			named := make([]int, len(at))
			for j, a := range at {
				named[j] = int(a)
			}
			sameLanes(t, fmt.Sprintf("gather/streq %d %q", op, l), got, want, named)
		}
	}

	// FilterSel, dense and through a selection, with and without NULL verdicts.
	for name, cond := range map[string]sql.Expr{"nulls": sql.Gt(col("i"), lit(int64(-1))), "no-nulls": col("c")} {
		prog, _ := Compile(cond, schema)
		for _, sel := range [][]int32{nil, {1, 2, 3, 5, 8, 13, 21, 34, 55, 69}} {
			c, pb := *clean, poisonedBatch(clean)
			c.Sel, pb.Sel = sel, sel
			want, got := FilterSel(&c, prog.Run(&c)), FilterSel(pb, prog.Run(pb))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("FilterSel %s over %v: %v, want %v", name, sel, got, want)
			}
		}
	}
}

// TestReleaseHandsBackDerivedSlabs: a batch's release returns what its
// derived batches drew, and the recycler's next user draws those same slabs
// in the order the last one drew them.
func TestReleaseHandsBackDerivedSlabs(t *testing.T) {
	r := &recycler{}
	b := &Batch{Len: 100, rec: r}
	b.Cols = []*Vector{b.NewVector(KindInt64, 100)}
	d := b.Derive(b.Schema, b.Cols, b.Len, b.NewSel(40))
	first, second := d.NewVector(KindBool, 100), d.NewVector(KindBool, 50)
	sel := d.NewSel(7)
	if d.rec != r || len(r.lent) != 3 || len(r.lentSels) != 2 {
		t.Fatalf("derived batch does not share the recycler: %d vectors, %d selections lent", len(r.lent), len(r.lentSels))
	}
	b.Release()
	if len(r.lent) != 0 || len(r.free[KindInt64]) != 1 || len(r.free[KindBool]) != 2 || len(r.freeSels) != 2 {
		t.Fatalf("release left %d lent, %d free bool vectors, %d free selections", len(r.lent), len(r.free[KindBool]), len(r.freeSels))
	}
	// Draw from this recycler directly: the pool may hand GetBatch another.
	again := &Batch{rec: r}
	if v := again.NewVector(KindBool, 100); v != first {
		t.Fatal("the first bool vector drawn is not the last task's first")
	}
	if v := again.NewVector(KindBool, 50); v != second {
		t.Fatal("the second bool vector drawn is not the last task's second")
	}
	if s := again.NewSel(40); &s[0] != &d.Sel[0] {
		t.Fatal("the first selection drawn is not the last task's first")
	}
	if s := again.NewSel(7); &s[0] != &sel[0] {
		t.Fatal("the second selection drawn is not the last task's second")
	}
	if v := again.NewVector(KindInt64, 101); v == b.Cols[0] || len(v.Int64s) != 101 {
		t.Fatal("a request no free slab fits must get a fresh one")
	}
}
