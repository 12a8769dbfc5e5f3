package incremental

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/physical"
	"structream/internal/sql/vec"
)

// The stream-static join's entries in the row-vs-vec differential: every
// static-table shape × join type × residual × stream side, over the
// differential schema's NULL and empty-string keys.

var dimSchema = sql.NewSchema(
	sql.Field{Name: "k2", Type: sql.TypeString},
	sql.Field{Name: "w", Type: sql.TypeInt64},
	sql.Field{Name: "lbl", Type: sql.TypeString},
)

// dimTables are the static sides: one row per key, several rows per key
// (in an order the output must keep), NULL keys and NULL payloads, nothing.
var dimTables = map[string][]sql.Row{
	"unique":   {{"a", int64(1), "A"}, {"b", int64(2), "B"}, {"cc", int64(3), "C"}, {"", int64(4), "E"}},
	"repeated": {{"a", int64(1), "A1"}, {"b", int64(2), "B"}, {"a", int64(50), "A2"}, {"", int64(0), "E1"}, {"a", int64(-1), "A3"}, {"", int64(7), "E2"}},
	"nullkeys": {{nil, int64(1), "N1"}, {"a", int64(2), "A"}, {nil, int64(3), "N2"}, {"b", nil, nil}},
	"empty":    {},
}

func dimScan(rows []sql.Row) *logical.Scan {
	return &logical.Scan{Name: "dim", Out: dimSchema, Handle: rows}
}

func compileWithStatic(t *testing.T, plan logical.Plan, mode logical.OutputMode) *Query {
	t.Helper()
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Compile(optimizer.Optimize(analyzed), mode, func(s *logical.Scan) (physical.RowSource, error) {
		return physical.NewSliceSource(s.Out, s.Handle.([]sql.Row)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestDifferentialBroadcastJoin(t *testing.T) {
	type joinShape struct {
		typ          logical.JoinType
		streamIsLeft bool
	}
	shapes := map[string]joinShape{
		"inner":              {logical.InnerJoin, true},
		"left-outer":         {logical.LeftOuterJoin, true},
		"semi":               {logical.LeftSemiJoin, true},
		"anti":               {logical.LeftAntiJoin, true},
		"inner-stream-right": {logical.InnerJoin, false},
		"right-outer":        {logical.RightOuterJoin, false},
	}
	residuals := map[string]sql.Expr{
		"equi":     nil,
		"residual": sql.Lt(sql.Col("n"), sql.Col("w")), // NULL on either side fails it
	}
	for tname, table := range dimTables {
		for sname, shape := range shapes {
			for rname, residual := range residuals {
				t.Run(fmt.Sprintf("%s/%s/%s", tname, sname, rname), func(t *testing.T) {
					cond := sql.Expr(sql.Eq(sql.Col("k"), sql.Col("k2")))
					if residual != nil {
						cond = sql.And(cond, residual)
					}
					join := &logical.Join{Left: diffScan(), Right: dimScan(table), Type: shape.typ, Cond: cond}
					if !shape.streamIsLeft {
						join.Left, join.Right = join.Right, join.Left
					}
					p := compileWithStatic(t, join, logical.Append).Pipelines[0]
					if p.Vec == nil || len(p.Vec.Ops) != len(p.Stages) {
						t.Fatalf("the join has no vector twin: %+v over %d stages", p.Vec, len(p.Stages))
					}
					if p.SourceCols != nil {
						t.Fatalf("a join over the bare scan reads every stream column, got %v", p.SourceCols)
					}
					rng := rand.New(rand.NewSource(99))
					matched := 0
					for trial := 0; trial < 8; trial++ {
						rows := diffRows(rng, 40+rng.Intn(80))
						runBoth(t, p, rows)
						matched += len(p.Process(rows))
					}
					runBoth(t, p, nil)
					runBoth(t, p, diffRows(rng, 1))
					if matched == 0 && tname != "empty" && sname != "anti" {
						t.Fatal("no trial produced a row: the shape is not exercised")
					}
				})
			}
		}
	}
}

// A residual with no kernel (LIKE) gives the join no twin: the plan seals
// in front of it exactly as before, and the hybrid still matches.
func TestBroadcastJoinSealsOnRowOnlyResidual(t *testing.T) {
	join := &logical.Join{
		Left:  &logical.Filter{Child: diffScan(), Cond: sql.IsNotNull(sql.Col("n"))},
		Right: dimScan(dimTables["repeated"]), Type: logical.InnerJoin,
		Cond: sql.And(sql.Eq(sql.Col("k"), sql.Col("k2")),
			sql.NewBinary(sql.OpLike, sql.Col("lbl"), sql.Lit("A%"))),
	}
	p := compileWithStatic(t, join, logical.Append).Pipelines[0]
	if p.Vec == nil || len(p.Vec.Ops) != 1 || len(p.Stages) != 2 {
		t.Fatalf("want the filter alone vectorized, got %+v over %d stages", p.Vec, len(p.Stages))
	}
	if p.SourceCols != nil {
		t.Fatalf("rows materialize from the source batch after the filter: every column is needed, got %v", p.SourceCols)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		runBoth(t, p, diffRows(rng, 80))
	}
}

// A static side whose cells drift from its schema cannot be gathered from:
// no twin, same rows.
func TestBroadcastJoinSealsOnDriftedStaticSide(t *testing.T) {
	drifted := []sql.Row{{"a", "not-an-int", "A"}, {"b", int64(2), "B"}}
	join := &logical.Join{Left: diffScan(), Right: dimScan(drifted), Type: logical.InnerJoin,
		Cond: sql.Eq(sql.Col("k"), sql.Col("k2"))}
	p := compileWithStatic(t, join, logical.Append).Pipelines[0]
	if p.Vec != nil {
		t.Fatalf("want no vector plan over a drifted static side, got %+v", p.Vec)
	}
	if out := p.Process([]sql.Row{{"a", int64(1), 1.0, true, int64(0)}}); len(out) != 1 || out[0][6] != "not-an-int" {
		t.Fatalf("row path lost the drifted cell: %v", out)
	}
}

// yahooShape is the benchmark's query over the differential schema: filter,
// narrowing projection, broadcast join, tumbling window, partial aggregate.
func yahooShape(table []sql.Row) logical.Plan {
	views := &logical.Project{
		Child: &logical.Filter{
			Child: &logical.WithWatermark{Child: diffScan(), Column: "ts", Delay: 5 * sec},
			Cond:  sql.Ne(sql.Col("k"), sql.Lit("b"))},
		Exprs: []sql.Expr{sql.Col("k"), sql.Col("ts")},
	}
	return &logical.Aggregate{
		Child: &logical.Join{Left: views, Right: dimScan(table), Type: logical.InnerJoin,
			Cond: sql.Eq(sql.Col("k"), sql.Col("k2"))},
		Keys: []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0), sql.Col("lbl")},
		Aggs: []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}, {Agg: sql.SumOf(sql.Col("w")), Name: "weight"}},
	}
}

// TestYahooShapeStaysColumnar pins the plan shape the benchmark's headline
// query depends on: every stage has a twin, the aggregate is columnar, and
// the scan is asked for exactly the columns the plan reads.
func TestYahooShapeStaysColumnar(t *testing.T) {
	for tname, table := range dimTables {
		t.Run(tname, func(t *testing.T) {
			p := compileWithStatic(t, yahooShape(table), logical.Update).Pipelines[0]
			if len(p.Stages) != 5 { // filter, project, join, window, partial aggregate
				t.Fatalf("%d stages, want 5", len(p.Stages))
			}
			if p.Vec == nil || p.Vec.Agg == nil || len(p.Vec.Ops) != len(p.Stages)-1 {
				t.Fatalf("vector plan does not reach the aggregate: %+v", p.Vec)
			}
			if want := []int{0, 4}; !reflect.DeepEqual(p.SourceCols, want) { // k, ts (also the watermark column)
				t.Fatalf("SourceCols = %v, want %v", p.SourceCols, want)
			}
			rng := rand.New(rand.NewSource(17))
			for trial := 0; trial < 6; trial++ {
				rows := diffRows(rng, 100)
				runBoth(t, p, rows)
				// The engine's path: columns outside SourceCols are absent.
				b, _ := vec.FromRows(diffSchema, rows)
				for c := range b.Cols {
					if c != 0 && c != 4 {
						b.Cols[c] = nil
					}
				}
				var got []sql.Row
				for _, bucket := range p.ProcessBatchScatter(b, 1) {
					got = append(got, bucket...)
				}
				if want := p.Process(rows); !reflect.DeepEqual(normalizeRows(got), normalizeRows(want)) {
					t.Fatalf("pruned scatter diverged:\n row path: %v\n pruned:   %v", want, got)
				}
			}
		})
	}
}

// TestSourceColsFollowThePlan: what narrows, what does not, and the
// watermark column riding along.
func TestSourceColsFollowThePlan(t *testing.T) {
	wm := func(child logical.Plan) logical.Plan {
		return &logical.WithWatermark{Child: child, Column: "ts", Delay: sec}
	}
	cases := map[string]struct {
		plan logical.Plan
		mode logical.OutputMode
		want []int
	}{
		// Nothing narrows: the output carries every column.
		"filter-only": {&logical.Filter{Child: diffScan(), Cond: sql.Gt(sql.Col("n"), sql.Lit(int64(0)))}, logical.Append, nil},
		// The projection reads n and v, the filter b.
		"filter-project": {&logical.Project{
			Child: &logical.Filter{Child: diffScan(), Cond: sql.Col("b")},
			Exprs: []sql.Expr{sql.As(sql.Add(sql.Col("n"), sql.Col("v")), "s")}}, logical.Append, []int{1, 2, 3}},
		// The watermark column is read by the engine, not by any stage.
		"watermark-rides-along": {&logical.Project{
			Child: wm(diffScan()), Exprs: []sql.Expr{sql.Col("k")}}, logical.Append, []int{0, 4}},
		// The terminal aggregate narrows too: keys and inputs.
		"aggregate": {&logical.Aggregate{Child: diffScan(), Keys: []sql.Expr{sql.Col("k")},
			Aggs: []logical.NamedAgg{{Agg: sql.SumOf(sql.Col("v")), Name: "s"}}}, logical.Complete, []int{0, 2}},
		// A row-only projection narrows on the row side of the seal: the rows
		// it reads materialize from the full batch.
		"sealed-before-narrowing": {&logical.Project{
			Child: &logical.Filter{Child: diffScan(), Cond: sql.Col("b")},
			Exprs: []sql.Expr{sql.As(sql.NewCast(sql.Col("n"), sql.TypeString), "s")}}, logical.Append, nil},
		// Dedup copies the whole row into the shuffle.
		"distinct": {&logical.Distinct{Child: diffScan(), Cols: []string{"k"}}, logical.Append, nil},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := mustCompile(t, tc.plan, tc.mode).Pipelines[0]
			if !reflect.DeepEqual(p.SourceCols, tc.want) {
				t.Fatalf("SourceCols = %v, want %v", p.SourceCols, tc.want)
			}
		})
	}
}

// TestWindowDeadLanesNeverRead: behind a selection the window op computes
// bounds at live lanes only, so whatever sits in a dead lane — here poison
// in every column — must never reach the aggregate or a rendered row.
func TestWindowDeadLanesNeverRead(t *testing.T) {
	plan := &logical.Aggregate{
		Child: &logical.Filter{Child: diffScan(), Cond: sql.Ge(sql.Col("n"), sql.Lit(int64(0)))},
		Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 10*time.Second, 0), sql.Col("k")},
		Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}, {Agg: sql.SumOf(sql.Col("n")), Name: "total"}},
	}
	p := mustCompile(t, plan, logical.Update).Pipelines[0]
	if p.Vec == nil || len(p.Vec.Ops) != 2 || p.Vec.Agg == nil {
		t.Fatalf("want filter + window + columnar aggregate, got %+v", p.Vec)
	}
	rows := diffRows(rand.New(rand.NewSource(23)), 200)
	want := p.Process(rows)
	b, ok := vec.FromRows(diffSchema, rows)
	if !ok {
		t.Fatal("FromRows failed")
	}
	filtered := p.Vec.Ops[0].Apply(b)
	if len(filtered.Sel) == 0 || len(filtered.Sel) == b.Len {
		t.Fatalf("want some live and some dead lanes, got %d of %d", len(filtered.Sel), b.Len)
	}
	b = p.Vec.Ops[1].Apply(filtered)
	seen, live := make([]bool, b.Len), make([]bool, b.Len)
	for _, i := range filtered.Sel {
		seen[i] = true
	}
	for _, i := range b.Sel { // the window op drops NULL event times itself
		live[i] = true
	}
	wcol := b.Cols[len(b.Cols)-1]
	for i := 0; i < b.Len; i++ {
		if !seen[i] && (wcol.WStarts[i] != 0 || wcol.WEnds[i] != 0) {
			t.Fatalf("lane %d was dead on arrival and got window bounds [%d, %d)", i, wcol.WStarts[i], wcol.WEnds[i])
		}
		if live[i] {
			continue
		}
		for _, v := range b.Cols {
			v.Nulls.Clear(i)
			switch v.Kind {
			case vec.KindInt64:
				v.Int64s[i] = math.MinInt64 + 7
			case vec.KindFloat64:
				v.Float64s[i] = math.Inf(-1)
			case vec.KindBool:
				v.Bools[i] = !v.Bools[i]
			case vec.KindString:
				v.Strings[i] = "POISON"
			case vec.KindWindow:
				v.WStarts[i], v.WEnds[i] = -12345, 12345
			}
		}
	}
	h := newPartialAgg(nil, p.Vec.Agg.Aggs)
	h.updateBatch(b, p.Vec.Agg)
	if got := h.scatter(1)[0]; !reflect.DeepEqual(normalizeRows(got), normalizeRows(want)) {
		t.Fatalf("aggregate read a dead lane:\n want %v\n got  %v", want, got)
	}
	physical.EmitBatchRows(b, func(r sql.Row) {
		for _, v := range r {
			if v == "POISON" || v == (sql.Window{Start: -12345, End: 12345}) {
				t.Fatalf("a rendered row carries a dead lane's cell: %v", r)
			}
		}
	})
}
