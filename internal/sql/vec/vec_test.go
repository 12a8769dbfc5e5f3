package vec

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"structream/internal/sql"
)

// testSchema covers every vectorized kind plus a timestamp (int64-backed).
func testSchema() sql.Schema {
	return sql.Schema{Fields: []sql.Field{
		{Name: "i", Type: sql.TypeInt64},
		{Name: "j", Type: sql.TypeInt64},
		{Name: "f", Type: sql.TypeFloat64},
		{Name: "g", Type: sql.TypeFloat64},
		{Name: "s", Type: sql.TypeString},
		{Name: "b", Type: sql.TypeBool},
		{Name: "ts", Type: sql.TypeTimestamp},
	}}
}

// randRows draws rows with adversarial values: nulls, zeros (division),
// NaN/Inf, extremes, and empty strings.
func randRows(rng *rand.Rand, n int) []sql.Row {
	ints := []int64{0, 1, -1, 7, -128, math.MaxInt64, math.MinInt64}
	floats := []float64{0, 1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64}
	strs := []string{"", "a", "abc", "zz", "Abc"}
	rows := make([]sql.Row, n)
	for r := range rows {
		row := make(sql.Row, 7)
		for c := 0; c < 7; c++ {
			if rng.Intn(5) == 0 {
				continue // NULL
			}
			switch c {
			case 0, 1, 6:
				row[c] = ints[rng.Intn(len(ints))]
			case 2, 3:
				row[c] = floats[rng.Intn(len(floats))]
			case 4:
				row[c] = strs[rng.Intn(len(strs))]
			case 5:
				row[c] = rng.Intn(2) == 0
			}
		}
		rows[r] = row
	}
	return rows
}

// randExpr builds a random expression tree whose leaves are columns and
// literals; produced shapes include comparisons, arithmetic (with /, %
// by zero), logic, and null predicates — everything the compiler claims
// to vectorize.
func randExpr(rng *rand.Rand, depth int) sql.Expr {
	if depth <= 0 {
		switch rng.Intn(6) {
		case 0:
			return sql.Col("i")
		case 1:
			return sql.Col("j")
		case 2:
			return sql.Col("f")
		case 3:
			return sql.Lit(int64(rng.Intn(7) - 3))
		case 4:
			return sql.Lit(float64(rng.Intn(9))/2 - 2)
		default:
			return sql.Col("g")
		}
	}
	switch rng.Intn(10) {
	case 0:
		return sql.NewBinary(sql.BinOp(rng.Intn(6)), randExpr(rng, depth-1), randExpr(rng, depth-1)) // comparison
	case 1:
		return sql.Add(randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 2:
		return sql.Sub(randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 3:
		return sql.Mul(randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 4:
		return sql.Div(randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 5:
		return sql.NewBinary(sql.OpMod, randExpr(rng, depth-1), randExpr(rng, depth-1))
	case 6:
		return sql.And(boolExpr(rng, depth-1), boolExpr(rng, depth-1))
	case 7:
		return sql.Or(boolExpr(rng, depth-1), boolExpr(rng, depth-1))
	case 8:
		return sql.IsNull(randExpr(rng, depth-1))
	default:
		return sql.Neg(randExpr(rng, depth-1))
	}
}

func boolExpr(rng *rand.Rand, depth int) sql.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		return sql.Gt(sql.Col("i"), sql.Lit(int64(0)))
	}
	return sql.NewBinary(sql.BinOp(rng.Intn(6)), randExpr(rng, depth-1), randExpr(rng, depth-1))
}

// normalize maps boxed values to comparable forms: NaN compares equal to
// itself so reflect.DeepEqual can be used on rows containing NaN.
func normalize(v sql.Value) sql.Value {
	if f, ok := v.(float64); ok && math.IsNaN(f) {
		return "NaN"
	}
	return v
}

// TestProgramMatchesRowEval is the core kernel differential: every
// compiled program must produce, cell for cell, the value the bound row
// expression produces — including NULL propagation, NaN comparisons,
// division and modulo by zero, and integer overflow wraparound.
func TestProgramMatchesRowEval(t *testing.T) {
	schema := testSchema()
	rng := rand.New(rand.NewSource(7))
	rows := randRows(rng, 97)
	batch := FromRows(schema, rows)
	// The same rows with column i held boxed, as a drifted source hands
	// them over: every program that reads i runs lane by lane.
	drifted := FromRows(schema, rows)
	boxed := NewVector(KindAny, len(rows))
	for r, row := range rows {
		boxed.Anys[r] = row[0]
	}
	drifted.Cols[0] = boxed
	compiled := 0
	for trial := 0; trial < 500; trial++ {
		e := randExpr(rng, 3)
		prog, err := Compile(e, schema)
		if err != nil {
			continue // the generator draws some expressions Bind refuses
		}
		if !prog.Lanewise() {
			compiled++
		}
		bound, err := e.Bind(schema)
		if err != nil {
			t.Fatalf("%s: bind: %v", e, err)
		}
		for _, b := range []*Batch{batch, drifted} {
			v := prog.Run(b)
			for i, row := range rows {
				want := normalize(bound.Eval(row))
				got := normalize(v.Get(i))
				// The bound expression leaves int64 timestamps as int64;
				// kernels agree, so plain equality suffices.
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: row %d (%v): bound %v (%T), program %v (%T)",
						e, i, row, want, want, got, got)
				}
			}
		}
	}
	if compiled < 100 {
		t.Fatalf("only %d/500 random expressions compiled — generator or compiler too narrow", compiled)
	}
}

// TestCompileRejectsRowOnlyExprs pins the fallback contract: expression
// forms outside the kernel set get no kernel chain, and their programs run
// lane by lane over the live lanes only, yielding the bound expression's
// values.
func TestCompileRejectsRowOnlyExprs(t *testing.T) {
	schema := testSchema()
	rows := randRows(rand.New(rand.NewSource(5)), 40)
	b := FromRows(schema, rows)
	b.Sel = []int32{3, 7, 8, 21, 39}
	rowOnly := []sql.Expr{
		sql.NewFunc("upper", sql.Col("s")),
		sql.NewCast(sql.Col("i"), sql.TypeString),
		// A CASE whose arms disagree with its declared type leaves a
		// boxed vector.
		&sql.Case{Whens: []sql.WhenClause{{When: sql.Col("b"), Then: sql.Col("i")}}, Else: sql.Col("f")},
	}
	for _, e := range rowOnly {
		prog, err := Compile(e, schema)
		if err != nil {
			t.Fatal(err)
		}
		if !prog.Lanewise() {
			t.Errorf("%s: has a kernel chain, want lane by lane", e)
		}
		bound, _ := e.Bind(schema)
		v := prog.Run(b)
		for _, i := range b.Sel {
			if want, got := normalize(bound.Eval(rows[i])), normalize(v.Get(int(i))); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: lane %d: bound %v, program %v", e, i, want, got)
			}
		}
	}
}

// TestLikeMatchesRowEval: the LIKE kernels, against a constant pattern and
// lane against lane, give the bound expression's value at every lane,
// NULLs included.
func TestLikeMatchesRowEval(t *testing.T) {
	schema := sql.NewSchema(sql.Field{Name: "s", Type: sql.TypeString}, sql.Field{Name: "p", Type: sql.TypeString})
	vals := []sql.Value{nil, "", "a", "ab", "abc", "ba", "a%b", "x_z", "xyz"}
	pats := []sql.Value{nil, "", "%", "a%", "%b", "_b%", "a_c", "%%c", "x_z_", "xyz"}
	var rows []sql.Row
	for _, v := range vals {
		for _, p := range pats {
			rows = append(rows, sql.Row{v, p})
		}
	}
	b := FromRows(schema, rows)
	for _, e := range []sql.Expr{
		sql.NewBinary(sql.OpLike, sql.Col("s"), sql.Col("p")),
		sql.NewBinary(sql.OpLike, sql.Col("s"), sql.Lit("a%")),
		sql.NewBinary(sql.OpLike, sql.Lit("abc"), sql.Col("p")),
		sql.NewBinary(sql.OpLike, sql.Col("s"), &sql.Literal{Type: sql.TypeNull}),
	} {
		prog, err := Compile(e, schema)
		if err != nil || prog.Lanewise() {
			t.Fatalf("%s: no kernel chain (%v)", e, err)
		}
		bound, _ := e.Bind(schema)
		v := prog.Run(b)
		for i, row := range rows {
			if want, got := bound.Eval(row), v.Get(i); want != got {
				t.Fatalf("%s over %v: bound %v, kernel %v", e, row, want, got)
			}
		}
	}
}

func TestFromRowsRoundTrip(t *testing.T) {
	schema := testSchema()
	rng := rand.New(rand.NewSource(11))
	rows := randRows(rng, 64)
	b := FromRows(schema, rows)
	got := b.AppendRows(nil)
	if len(got) != len(rows) {
		t.Fatalf("round trip length %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		for c := range rows[i] {
			if !reflect.DeepEqual(normalize(rows[i][c]), normalize(got[i][c])) {
				t.Fatalf("row %d col %d: %v != %v", i, c, rows[i][c], got[i][c])
			}
		}
	}
}

// TestFromRowsColsBuildsOnlyCols: the listed columns are FromRows' own, a
// drifted one boxed too; the others are nil, and their cells are never read.
func TestFromRowsColsBuildsOnlyCols(t *testing.T) {
	schema := testSchema()
	rows := randRows(rand.New(rand.NewSource(5)), 8)
	rows[3] = rows[3].Clone()
	rows[3][2] = int64(3)
	full := FromRows(schema, rows)
	b := FromRowsCols(schema, rows, []int{0, 2})
	if b.Len != len(rows) {
		t.Fatalf("len %d, want %d", b.Len, len(rows))
	}
	for c, v := range b.Cols {
		switch {
		case c != 0 && c != 2:
			if v != nil {
				t.Fatalf("column %d built, not listed", c)
			}
		case !reflect.DeepEqual(v, full.Cols[c]):
			t.Fatalf("column %d: %+v, FromRows builds %+v", c, v, full.Cols[c])
		}
	}
	if b.Cols[2].Kind != KindAny {
		t.Fatalf("drifted column 2: kind %d, want boxed", b.Cols[2].Kind)
	}
}

// TestFromRowsTypeDrift: a column whose cells drift from its schema kind
// is held boxed, each cell as it came — an int in a float column stays the
// dynamic int64, not a converted float — and the other columns stay typed.
func TestFromRowsTypeDrift(t *testing.T) {
	schema := testSchema()
	rows := randRows(rand.New(rand.NewSource(3)), 8)
	rows[5] = rows[5].Clone()
	rows[5][0] = "not an int"
	rows[0] = rows[0].Clone()
	rows[0][2] = int64(3)
	b := FromRows(schema, rows)
	for c, v := range b.Cols {
		if want := map[int]Kind{0: KindAny, 2: KindAny}[c]; c != 0 && c != 2 {
			if v.Kind != KindOf(schema.Field(c).Type) {
				t.Fatalf("column %d: kind %d, want its schema's", c, v.Kind)
			}
		} else if v.Kind != want {
			t.Fatalf("drifted column %d: kind %d, want boxed", c, v.Kind)
		}
	}
	got := b.AppendRows(nil)
	for i := range rows {
		if !reflect.DeepEqual(normalizeRow(rows[i]), normalizeRow(got[i])) {
			t.Fatalf("row %d: %v round-trips as %v", i, rows[i], got[i])
		}
	}
}

func normalizeRow(r sql.Row) sql.Row {
	out := make(sql.Row, len(r))
	for i, v := range r {
		out[i] = normalize(v)
	}
	return out
}

// TestAppendRowsSelection checks the selection vector drives
// materialization: only live positions appear, in selection order.
func TestAppendRowsSelection(t *testing.T) {
	schema := sql.Schema{Fields: []sql.Field{{Name: "i", Type: sql.TypeInt64}}}
	rows := []sql.Row{{int64(10)}, {int64(11)}, {nil}, {int64(13)}}
	b := FromRows(schema, rows)
	b.Sel = []int32{3, 0}
	got := b.AppendRows(nil)
	want := []sql.Row{{int64(13)}, {int64(10)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendRows with sel = %v, want %v", got, want)
	}
	if b.NumLive() != 2 {
		t.Fatalf("NumLive = %d, want 2", b.NumLive())
	}
}

// TestAppendRowsSharesEqualWindows checks that a run of equal windows boxes
// one sql.Window: materializing 256 rows allocates no more than one row
// does, and the rows hold the right windows, NULLs included.
func TestAppendRowsSharesEqualWindows(t *testing.T) {
	schema := sql.Schema{Fields: []sql.Field{{Name: "w", Type: sql.TypeWindow}}}
	batch := func(n int) *Batch {
		b := NewBatch(schema, n)
		for i := 0; i < n; i++ {
			b.Cols[0].WStarts[i], b.Cols[0].WEnds[i] = 10, 20
		}
		return b
	}
	one, run := batch(1), batch(256)
	dst := make([]sql.Row, 0, 256)
	allocs := func(b *Batch) float64 {
		return testing.AllocsPerRun(20, func() { dst = b.AppendRows(dst[:0]) })
	}
	if a1, a256 := allocs(one), allocs(run); a256 != a1 {
		t.Fatalf("AppendRows allocates %v times for 256 equal windows, %v for one", a256, a1)
	}
	run.Cols[0].WStarts[7], run.Cols[0].WEnds[7] = 20, 30
	run.Cols[0].SetNull(9, 256)
	got := run.AppendRows(nil)
	for i, r := range got {
		var want sql.Value = sql.Window{Start: 10, End: 20}
		switch i {
		case 7:
			want = sql.Window{Start: 20, End: 30}
		case 9:
			want = nil
		}
		if r[0] != want {
			t.Fatalf("row %d: %v, want %v", i, r[0], want)
		}
	}
}

func TestFilterSel(t *testing.T) {
	schema := sql.Schema{Fields: []sql.Field{
		{Name: "i", Type: sql.TypeInt64},
		{Name: "b", Type: sql.TypeBool},
	}}
	rows := []sql.Row{
		{int64(0), true}, {int64(1), false}, {int64(2), nil}, {int64(3), true},
	}
	b := FromRows(schema, rows)
	prog, err := Compile(sql.Col("b"), b.Schema)
	if err != nil || prog.Lanewise() {
		t.Fatal("column pick did not compile")
	}
	sel := FilterSel(b, prog.Run(b))
	if want := []int32{0, 3}; !reflect.DeepEqual(sel, want) {
		t.Fatalf("FilterSel = %v, want %v (false and NULL both drop)", sel, want)
	}
	// Composing with an existing selection narrows it.
	b.Sel = []int32{3, 2, 1, 0}
	sel = FilterSel(b, prog.Run(b))
	if want := []int32{3, 0}; !reflect.DeepEqual(sel, want) {
		t.Fatalf("FilterSel over sel = %v, want %v", sel, want)
	}
}

func TestInt64StatsSkipsNulls(t *testing.T) {
	v := NewVector(KindInt64, 5)
	copy(v.Int64s, []int64{5, 99, 7, -3, -50})
	v.SetNull(1, 5)
	v.SetNull(4, 5)
	if lo, hi, sum, n := Int64Stats(v, 5); lo != -3 || hi != 7 || sum != 9 || n != 3 {
		t.Fatalf("Int64Stats = %d, %d, %v, %d; want -3, 7, 9, 3 (nulls 99 and -50 skipped)", lo, hi, sum, n)
	}
	all := NewVector(KindInt64, 2)
	all.SetNull(0, 2)
	all.SetNull(1, 2)
	if lo, hi, sum, n := Int64Stats(all, 2); lo != 0 || hi != 0 || sum != 0 || n != 0 {
		t.Fatalf("Int64Stats over all-null = %d, %d, %v, %d; want zeros", lo, hi, sum, n)
	}
}

// TestInt64StatsSumsInOrder pins the sum to lane order: µs timestamps
// near 2⁵⁰ lose low bits in a float64 sum, so another order gives another
// figure.
func TestInt64StatsSumsInOrder(t *testing.T) {
	v := NewVector(KindInt64, 1000)
	for i := range v.Int64s {
		v.Int64s[i] = 1_600_000_000_000_000 + int64(i*i*7919%1000003)
	}
	for _, nulls := range []bool{false, true} {
		if nulls {
			v.SetNull(3, len(v.Int64s))
		}
		var ref float64
		for i, x := range v.Int64s {
			if !v.IsNull(i) {
				ref += float64(x)
			}
		}
		if _, _, sum, _ := Int64Stats(v, len(v.Int64s)); math.Float64bits(sum) != math.Float64bits(ref) {
			t.Fatalf("nulls=%v: sum %v, in lane order %v", nulls, sum, ref)
		}
	}
}

func TestBitmapUnion(t *testing.T) {
	a := NewBitmap(130)
	b := NewBitmap(130)
	a.Set(0)
	b.Set(129)
	u := UnionNulls(130, a, b)
	if !u.Get(0) || !u.Get(129) || u.Get(64) {
		t.Fatal("UnionNulls lost or invented bits")
	}
	if UnionNulls(130, nil, nil) != nil {
		t.Fatal("UnionNulls of two nil bitmaps should stay nil")
	}
}

func TestBroadcastConst(t *testing.T) {
	v := (&Batch{Len: 3}).Broadcast(int64(42), KindInt64)
	for i := 0; i < 3; i++ {
		if v.Get(i) != int64(42) {
			t.Fatalf("Broadcast[%d] = %v", i, v.Get(i))
		}
	}
	nv := (&Batch{Len: 2}).Broadcast(nil, KindFloat64)
	if nv.Get(0) != nil || nv.Get(1) != nil {
		t.Fatal("Broadcast(nil) must yield NULLs")
	}
}

// TestStringEqualityMatchesRowEval holds the string = / <> kernels (length
// + memequal) to the row evaluator in all three operand forms, over NULLs,
// empty strings and strings that share a prefix or differ only in length.
func TestStringEqualityMatchesRowEval(t *testing.T) {
	schema := sql.Schema{Fields: []sql.Field{
		{Name: "s", Type: sql.TypeString},
		{Name: "u", Type: sql.TypeString},
	}}
	vals := []sql.Value{nil, "", "a", "ab", "abc", "abd", "view", "views", "View"}
	var rows []sql.Row
	for _, a := range vals {
		for _, b := range vals {
			rows = append(rows, sql.Row{a, b})
		}
	}
	batch := FromRows(schema, rows)
	for _, op := range []sql.BinOp{sql.OpEq, sql.OpNe} {
		for name, e := range map[string]sql.Expr{
			"vec-vec":   sql.NewBinary(op, sql.Col("s"), sql.Col("u")),
			"vec-const": sql.NewBinary(op, sql.Col("s"), sql.Lit("view")),
			"const-vec": sql.NewBinary(op, sql.Lit("ab"), sql.Col("u")),
			"vec-empty": sql.NewBinary(op, sql.Col("s"), sql.Lit("")),
		} {
			prog, err := Compile(e, schema)
			if err != nil || prog.Lanewise() {
				t.Fatalf("%s: %s did not compile", name, e)
			}
			bound, err := e.Bind(schema)
			if err != nil {
				t.Fatal(err)
			}
			v := prog.Run(batch)
			for i, row := range rows {
				if want, got := bound.Eval(row), v.Get(i); want != got {
					t.Fatalf("%s: %s over %v: row path %v, kernel %v", name, e, row, want, got)
				}
			}
		}
	}
}

// TestEqStrConstMatchesEquality holds the word-load string = / <> kernel
// to Go's == for every literal length from 0 to 17, so each load width, the
// overlapping loads and the == fallback are all covered. Each lane is a
// fresh copy, never the literal's own bytes: the literal itself, a near
// miss of the same length at its first and at its last byte, the literal
// one byte short and one byte long, the empty string, and strings of the
// literal's length sharing nothing with it. Through a compiled program, a
// NULL lane stays NULL whatever its slot holds.
func TestEqStrConstMatchesEquality(t *testing.T) {
	const alphabet = "abcdefghijklmnopqrstuvwxyz"
	for n := 0; n <= 17; n++ {
		lit := alphabet[:n]
		flip := func(at int) string {
			b := []byte(lit)
			b[at] ^= 0x20
			return string(b)
		}
		lanes := []string{strings.Clone(lit), "", strings.Repeat("z", n), strings.Clone(alphabet[1 : n+1]), strings.Clone(alphabet[:n+1])}
		if n > 0 {
			lanes = append(lanes, flip(0), flip(n-1), strings.Clone(lit[:n-1]), strings.Clone(alphabet[25-n:25]))
		}
		for _, ne := range []bool{false, true} {
			out := make([]bool, len(lanes))
			eqStrVC(lanes, lit, ne, out)
			for i, s := range lanes {
				if want := (s == lit) != ne; out[i] != want {
					t.Fatalf("literal %q (ne %v): lane %q gave %v, want %v", lit, ne, s, out[i], want)
				}
			}
		}

		schema := sql.Schema{Fields: []sql.Field{{Name: "s", Type: sql.TypeString}}}
		var rows []sql.Row
		for i, s := range lanes {
			rows = append(rows, sql.Row{s})
			if i%2 == 0 {
				rows = append(rows, sql.Row{nil})
			}
		}
		batch := FromRows(schema, rows)
		for i, r := range rows {
			if r[0] == nil {
				batch.Cols[0].Strings[i] = strings.Clone(lit) // a NULL slot holding the literal
			}
		}
		for _, op := range []sql.BinOp{sql.OpEq, sql.OpNe} {
			e := sql.NewBinary(op, sql.Col("s"), sql.Lit(lit))
			prog, err := Compile(e, schema)
			if err != nil || prog.Lanewise() {
				t.Fatalf("%s did not compile", e)
			}
			bound, err := e.Bind(schema)
			if err != nil {
				t.Fatal(err)
			}
			v := prog.Run(batch)
			for i, row := range rows {
				if want, got := bound.Eval(row), v.Get(i); want != got {
					t.Fatalf("%s over %v: row path %v, kernel %v", e, row, want, got)
				}
			}
		}
	}
}

// TestFilterSelDenseMatchesReference checks the predicate-branch-free dense
// case against the definition, at the boundaries (none, all, one lane) and
// over random verdicts.
func TestFilterSelDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000} {
		for _, density := range []int{0, 1, 2, 100} {
			cond := NewVector(KindBool, n)
			want := []int32{}
			for i := range cond.Bools {
				cond.Bools[i] = density == 100 || (density > 0 && rng.Intn(density+1) == 0)
				if cond.Bools[i] {
					want = append(want, int32(i))
				}
			}
			got := FilterSel(&Batch{Len: n}, cond)
			if got == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d density=%d: FilterSel = %v, want %v", n, density, got, want)
			}
		}
	}
}

func TestGather(t *testing.T) {
	schema := testSchema()
	rows := randRows(rand.New(rand.NewSource(11)), 40)
	src := FromRows(schema, rows)
	anys := NewVector(KindAny, len(rows))
	wins := NewVector(KindWindow, len(rows))
	for i, r := range rows {
		anys.Anys[i] = r[0]
		wins.WStarts[i], wins.WEnds[i] = int64(i), int64(i+10)
	}
	wins.SetNull(3, len(rows))
	from := []int32{5, 5, -1, 0, 39, 3, 17}
	at := []int32{9, 2, 4, 0, 7, 11, 6}
	for _, v := range append(append([]*Vector(nil), src.Cols...), anys, wins) {
		dense := src.Gather(v, from, nil, len(from))
		placed := src.Gather(v, from, at, 12)
		for j, f := range from {
			var want sql.Value
			if f >= 0 {
				want = v.Get(int(f))
			}
			if got := dense.Get(j); !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Fatalf("kind %d dense slot %d = %v, want %v", v.Kind, j, got, want)
			}
			if got := placed.Get(int(at[j])); !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Fatalf("kind %d slot %d = %v, want %v", v.Kind, at[j], got, want)
			}
		}
		if v.Kind != KindAny && placed.IsNull(1) {
			t.Fatalf("kind %d: a slot no pair names must stay valid", v.Kind)
		}
	}
}

// TestBatchPoolHandsOutCleanColumns: whatever a released batch held — null
// bits, a selection, a different keep mask — the next user of its vectors
// starts with no nulls, no selection, n slots per kept column and nil for
// the columns it does not keep.
func TestBatchPoolHandsOutCleanColumns(t *testing.T) {
	schema := testSchema()
	for round := 0; round < 50; round++ {
		n := 10 + round%7*100
		keep := make([]bool, schema.Len())
		for c := range keep {
			keep[c] = (round+c)%3 != 0
		}
		b := GetBatch(schema, keep, n)
		if b.Len != n || b.Sel != nil || len(b.Cols) != schema.Len() {
			t.Fatalf("round %d: Len=%d Sel=%v cols=%d", round, b.Len, b.Sel, len(b.Cols))
		}
		for c, v := range b.Cols {
			if !keep[c] {
				if v != nil {
					t.Fatalf("round %d: column %d is not kept but has a vector", round, c)
				}
				continue
			}
			if v.Kind != KindOf(schema.Field(c).Type) || v.Nulls != nil {
				t.Fatalf("round %d col %d: kind %d nulls %v", round, c, v.Kind, v.Nulls)
			}
			switch v.Kind {
			case KindInt64:
				if len(v.Int64s) != n {
					t.Fatalf("round %d col %d: %d slots, want %d", round, c, len(v.Int64s), n)
				}
			case KindString:
				if len(v.Strings) != n {
					t.Fatalf("round %d col %d: %d slots, want %d", round, c, len(v.Strings), n)
				}
			}
			v.EnsureNulls(n).SetAll() // leave the worst behind for the next user
		}
		b.Sel = []int32{0}
		b.Release()
	}
	if all := GetBatch(schema, nil, 5); len(all.Cols) != schema.Len() || all.Cols[0] == nil {
		t.Fatal("a nil keep mask must keep every column")
	}
}
