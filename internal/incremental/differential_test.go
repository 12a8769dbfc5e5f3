package incremental

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"structream/internal/fsx"
	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
	"structream/internal/state"
)

// The differential suite drives the same data through a pipeline's row
// path (Process) and its columnar path (FromRows + ProcessBatchTo) and
// requires byte-identical output, in order. It also pins the fallback
// contract: query shapes outside the kernel set must leave the vector
// plan nil or partial, and partial plans must still produce identical
// results via materialize-then-row-stages.

var diffSchema = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "n", Type: sql.TypeInt64},
	sql.Field{Name: "v", Type: sql.TypeFloat64},
	sql.Field{Name: "b", Type: sql.TypeBool},
	sql.Field{Name: "ts", Type: sql.TypeTimestamp},
)

func diffScan() *logical.Scan {
	return &logical.Scan{Name: "d", Streaming: true, Out: diffSchema}
}

// diffRows draws schema-conforming rows with nulls and adversarial
// numerics (NaN, infinities, extremes, zeros).
func diffRows(rng *rand.Rand, n int) []sql.Row {
	keys := []string{"", "a", "b", "cc", "Aa"}
	ints := []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64}
	floats := []float64{0, 0.5, -1.25, 100, math.NaN(), math.Inf(1), math.Inf(-1)}
	rows := make([]sql.Row, n)
	for i := range rows {
		r := make(sql.Row, 5)
		if rng.Intn(6) != 0 {
			r[0] = keys[rng.Intn(len(keys))]
		}
		if rng.Intn(6) != 0 {
			r[1] = ints[rng.Intn(len(ints))]
		}
		if rng.Intn(6) != 0 {
			r[2] = floats[rng.Intn(len(floats))]
		}
		if rng.Intn(6) != 0 {
			r[3] = rng.Intn(2) == 0
		}
		if rng.Intn(6) != 0 {
			r[4] = int64(rng.Intn(100)) * sec
		}
		rows[i] = r
	}
	return rows
}

// normalizeRow maps NaN to a comparable sentinel so DeepEqual can
// compare rows containing NaN cells.
func normalizeRows(rows []sql.Row) []sql.Row {
	out := make([]sql.Row, len(rows))
	for i, r := range rows {
		nr := make(sql.Row, len(r))
		for c, v := range r {
			if f, ok := v.(float64); ok && math.IsNaN(f) {
				nr[c] = "NaN"
			} else {
				nr[c] = v
			}
		}
		out[i] = nr
	}
	return out
}

// runBoth executes the pipeline's row and columnar paths over rows and
// fails the test on any divergence. Returns false when the pipeline has
// no vector plan (nothing columnar to compare).
func runBoth(t *testing.T, p *Pipeline, rows []sql.Row) bool {
	t.Helper()
	rowOut := p.Process(rows)
	if p.Vec == nil {
		return false
	}
	b, ok := vec.FromRows(diffSchema, rows)
	if !ok {
		t.Fatal("FromRows failed on schema-conforming rows")
	}
	var vecOut []sql.Row
	p.ProcessBatchTo(b, func(r sql.Row) { vecOut = append(vecOut, r.Clone()) })
	got, want := normalizeRows(vecOut), normalizeRows(rowOut)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("columnar path diverged:\n row path (%d): %v\n vec path (%d): %v",
			len(want), want, len(got), got)
	}
	return true
}

// fixed shapes covering each vectorizable stage type, including the
// map-side partial aggregation.
func TestDifferentialFixedShapes(t *testing.T) {
	shapes := map[string]logical.Plan{
		"filter-int": &logical.Filter{Child: diffScan(),
			Cond: sql.Ge(sql.Col("n"), sql.Lit(int64(0)))},
		"filter-logic": &logical.Filter{Child: diffScan(),
			Cond: sql.And(sql.Gt(sql.Col("v"), sql.Lit(0.0)),
				sql.Or(sql.Col("b"), sql.IsNull(sql.Col("k"))))},
		"project-arith": &logical.Project{Child: diffScan(),
			Exprs: []sql.Expr{sql.Col("k"),
				sql.As(sql.Add(sql.Mul(sql.Col("n"), sql.Lit(int64(3))), sql.Lit(int64(1))), "m"),
				sql.As(sql.Div(sql.Col("v"), sql.Lit(2.0)), "h"),
				sql.As(sql.NewBinary(sql.OpMod, sql.Col("n"), sql.Lit(int64(7))), "r")}},
		"project-concat": &logical.Project{Child: diffScan(),
			Exprs: []sql.Expr{sql.As(sql.Add(sql.Col("k"), sql.Lit("!")), "kx"), sql.Col("n")}},
		"filter-project": &logical.Project{
			Child: &logical.Filter{Child: diffScan(),
				Cond: sql.IsNotNull(sql.Col("v"))},
			Exprs: []sql.Expr{sql.Col("v"), sql.As(sql.Neg(sql.Col("n")), "neg")}},
		// A stream-stream join's left side: its rows leave as join cells, keyed
		// by an expression, with NULL keys and NULL event times among them.
		"join-cells": &logical.Join{
			Left: &logical.WithWatermark{Child: diffScan(), Column: "ts", Delay: 5 * sec},
			Right: &logical.WithWatermark{Child: &logical.Scan{Name: "e", Streaming: true, Out: sql.NewSchema(
				sql.Field{Name: "ek", Type: sql.TypeString}, sql.Field{Name: "ets", Type: sql.TypeTimestamp})}, Column: "ets", Delay: 5 * sec},
			Type: logical.LeftOuterJoin,
			Cond: sql.And(sql.Eq(sql.Add(sql.Col("k"), sql.Lit("!")), sql.Col("ek")), sql.Le(sql.Col("ts"), sql.Col("ets")))},
		"agg-count-sum": &logical.Aggregate{
			Child: &logical.Filter{Child: diffScan(),
				Cond: sql.Ne(sql.Col("k"), sql.Lit("b"))},
			Keys: []sql.Expr{sql.Col("k")},
			Aggs: []logical.NamedAgg{
				{Agg: sql.CountAll(), Name: "cnt"},
				{Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
	}
	for name, plan := range shapes {
		t.Run(name, func(t *testing.T) {
			mode := logical.Append
			if _, isAgg := plan.(*logical.Aggregate); isAgg {
				mode = logical.Complete
			}
			q := mustCompile(t, plan, mode)
			p := q.Pipelines[0]
			if p.Vec == nil {
				t.Fatal("shape did not vectorize at all")
			}
			if len(p.Vec.Ops) != len(p.Stages) && !p.Scatters() {
				t.Fatalf("vector plan covers %d/%d stages", len(p.Vec.Ops), len(p.Stages))
			}
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 10; trial++ {
				runBoth(t, p, diffRows(rng, 50+rng.Intn(100)))
			}
			// Empty and single-row batches exercise the boundary cases.
			runBoth(t, p, nil)
			runBoth(t, p, diffRows(rng, 1))
		})
	}
}

// fallback-forcing shapes: the vector plan must stop short (or never
// start), and the hybrid prefix+row execution must still be identical.
func TestDifferentialFallbackShapes(t *testing.T) {
	type shape struct {
		plan   logical.Plan
		vecOps int // expected len(Vec.Ops); -1 means Vec must be nil
		mode   logical.OutputMode
	}
	shapes := map[string]shape{
		// LIKE has no kernel: the leading filter seals an empty plan.
		"like-first": {plan: &logical.Filter{Child: diffScan(),
			Cond: sql.NewBinary(sql.OpLike, sql.Col("k"), sql.Lit("a%"))},
			vecOps: -1, mode: logical.Append},
		// A vectorizable filter before a row-only projection keeps a
		// one-op prefix (adjacent filters would be merged by the
		// optimizer, so the seal is demonstrated across stage kinds).
		"filter-then-cast": {plan: &logical.Project{
			Child: &logical.Filter{Child: diffScan(),
				Cond: sql.Ge(sql.Col("n"), sql.Lit(int64(-10)))},
			Exprs: []sql.Expr{sql.Col("k"),
				sql.As(sql.NewCast(sql.Col("n"), sql.TypeString), "s")}},
			vecOps: 1, mode: logical.Append},
		// CAST has no kernel either.
		"cast-project": {plan: &logical.Project{Child: diffScan(),
			Exprs: []sql.Expr{sql.As(sql.NewCast(sql.Col("n"), sql.TypeString), "s")}},
			vecOps: -1, mode: logical.Append},
		// Sliding windows explode rows and have no kernel: the window stage
		// and the aggregate after it run on rows.
		"filter-then-sliding-window": {plan: &logical.Aggregate{
			Child: &logical.Filter{Child: diffScan(), Cond: sql.Ge(sql.Col("n"), sql.Lit(int64(-10)))},
			Keys:  []sql.Expr{sql.NewWindow(sql.Col("ts"), 20*time.Second, 10*time.Second), sql.Col("k")},
			Aggs:  []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}, {Agg: sql.SumOf(sql.Col("v")), Name: "total"}}},
			vecOps: 1, mode: logical.Complete},
		// flatMapGroupsWithState's key prefix (the computed key ahead of the
		// row) has no twin.
		"filter-then-mgws": {plan: &logical.MapGroups{
			Child:    &logical.Filter{Child: diffScan(), Cond: sql.IsNotNull(sql.Col("v"))},
			Keys:     []sql.Expr{sql.Add(sql.Col("k"), sql.Lit("!")), sql.Col("b")},
			KeyNames: []string{"kx", "b"},
			Out:      diffSchema,
		}, vecOps: 1, mode: logical.Append},
		// A stage after the seal must NOT be picked up out of order.
		"like-then-project": {plan: &logical.Project{
			Child: &logical.Filter{Child: diffScan(),
				Cond: sql.NewBinary(sql.OpLike, sql.Col("k"), sql.Lit("%"))},
			Exprs: []sql.Expr{sql.Col("n")}},
			vecOps: -1, mode: logical.Append},
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) {
			q := mustCompile(t, s.plan, s.mode)
			p := q.Pipelines[0]
			switch {
			case s.vecOps < 0:
				if p.Vec != nil && len(p.Vec.Ops) > 0 {
					t.Fatalf("expected no vector plan, got %d ops", len(p.Vec.Ops))
				}
			default:
				if p.Vec == nil || len(p.Vec.Ops) != s.vecOps {
					t.Fatalf("expected a %d-op prefix, got %+v", s.vecOps, p.Vec)
				}
				if len(p.Vec.Ops) >= len(p.Stages) {
					t.Fatalf("prefix unexpectedly covers all %d stages", len(p.Stages))
				}
			}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 10; trial++ {
				runBoth(t, p, diffRows(rng, 80))
			}
		})
	}
}

// TestRowStagesArePerTask: map tasks of one pipeline run concurrently, and
// each instantiates the row stages afresh, so no arena, window cache or
// probe key is shared — a race (under -race) or a torn row otherwise.
func TestRowStagesArePerTask(t *testing.T) {
	plan := &logical.Aggregate{
		Child: &logical.Join{
			Left: &logical.Project{Child: diffScan(), Exprs: []sql.Expr{sql.Col("k"),
				sql.As(sql.NewCast(sql.Col("n"), sql.TypeString), "s"), sql.Col("ts")}},
			Right: dimScan(dimTables["repeated"]), Type: logical.LeftOuterJoin,
			Cond: sql.Eq(sql.Col("k"), sql.Col("k2"))},
		Keys: []sql.Expr{sql.NewWindow(sql.Col("ts"), 20*time.Second, 10*time.Second), sql.Col("lbl")},
		Aggs: []logical.NamedAgg{{Agg: sql.CountAll(), Name: "cnt"}},
	}
	p := compileWithStatic(t, plan, logical.Complete).Pipelines[0]
	if p.Vec != nil {
		t.Fatalf("want every stage on rows, got vector plan %+v", p.Vec)
	}
	rows := diffRows(rand.New(rand.NewSource(11)), 400)
	want := normalizeRows(p.Process(rows))
	var wg sync.WaitGroup
	got := make([][]sql.Row, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = normalizeRows(p.Process(rows))
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("task %d diverged from a task run alone", i)
		}
	}
}

// TestDifferentialRandomQueries fuzzes whole pipelines: random
// filter/project chains over random data, byte-identical output
// required whenever anything vectorized.
func TestDifferentialRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	numExpr := func(depth int) sql.Expr { return randNumExpr(rng, depth) }
	compared := 0
	for trial := 0; trial < 120; trial++ {
		var plan logical.Plan = diffScan()
		for stages := 1 + rng.Intn(3); stages > 0; stages-- {
			if rng.Intn(2) == 0 {
				plan = &logical.Filter{Child: plan,
					Cond: sql.NewBinary(sql.BinOp(rng.Intn(6)), numExpr(1), numExpr(1))}
			} else {
				plan = &logical.Project{Child: plan, Exprs: []sql.Expr{
					sql.As(numExpr(2), "a"),
					sql.As(numExpr(1), "b"),
					sql.Col("k"),
					sql.Col("n"), sql.Col("v"), sql.Col("ts"),
				}}
			}
		}
		q := mustCompile(t, plan, logical.Append)
		if runBoth(t, q.Pipelines[0], diffRows(rng, 60)) {
			compared++
		}
	}
	if compared < 60 {
		t.Fatalf("only %d/120 random queries vectorized — fuzz coverage collapsed", compared)
	}
}

// randNumExpr builds numeric expressions over the differential schema.
func randNumExpr(rng *rand.Rand, depth int) sql.Expr {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return sql.Col("n")
		case 1:
			return sql.Col("v")
		case 2:
			return sql.Lit(int64(rng.Intn(9) - 4))
		default:
			return sql.Lit(float64(rng.Intn(7)) - 2.5)
		}
	}
	ops := []sql.BinOp{sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod}
	return sql.NewBinary(ops[rng.Intn(len(ops))], randNumExpr(rng, depth-1), randNumExpr(rng, depth-1))
}

// TestDifferentialJoinCells: a join side whose key expressions have kernels
// renders its cells from column vectors; a side whose key is a sealing
// expression (CAST) renders them from boxed rows. With the CAST an identity,
// the two queries are the same join, and each map task taking the engine's
// branch for its pipeline, they must emit the same rows and leave
// byte-identical state files — over NULL keys, NULL and negative event
// times, evictions and a left-outer join's padded rows, in a memtable that
// spills.
func TestDifferentialJoinCells(t *testing.T) {
	side := func(p string) sql.Schema {
		return sql.NewSchema(sql.Field{Name: p + "k", Type: sql.TypeInt64}, sql.Field{Name: p + "ts", Type: sql.TypeTimestamp},
			sql.Field{Name: p + "v", Type: sql.TypeString})
	}
	schemas := [2]sql.Schema{side("l"), side("r")}
	compile := func(key func(col string) sql.Expr) *Query {
		scan := func(p string) logical.Plan {
			return &logical.WithWatermark{Child: &logical.Scan{Name: p, Streaming: true, Out: side(p)}, Column: p + "ts", Delay: 5 * sec}
		}
		q, err := Compile(&logical.Join{Left: scan("l"), Right: scan("r"), Type: logical.LeftOuterJoin,
			Cond: sql.And(sql.Eq(key("lk"), key("rk")), sql.And(sql.Ge(sql.Col("rts"), sql.Col("lts")),
				sql.Le(sql.Col("rts"), sql.Add(sql.Col("lts"), sql.IntervalLit(4*sec)))))}, logical.Append, nil)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	columnar := compile(func(c string) sql.Expr { return sql.Col(c) })
	boxed := compile(func(c string) sql.Expr { return sql.NewCast(sql.Col(c), sql.TypeInt64) })
	for i := range columnar.Pipelines {
		if !columnar.Pipelines[i].Scatters() || boxed.Pipelines[i].Scatters() {
			t.Fatalf("pipeline %d: cells columnar %v with a column key, %v with a CAST key", i, columnar.Pipelines[i].Scatters(), boxed.Pipelines[i].Scatters())
		}
	}
	const nPart = 2
	rng := rand.New(rand.NewSource(5))
	var epochs [][2][]sql.Row
	for e := int64(0); e < 12; e++ {
		var in [2][]sql.Row
		for s := range in {
			for n := rng.Intn(60); n > 0; n-- {
				row := sql.Row{int64(rng.Intn(6)), (10*e + rng.Int63n(14) - 2) * sec, string(rune('a' + rng.Intn(26)))}
				switch rng.Intn(10) {
				case 0:
					row[0] = nil
				case 1:
					row[1] = nil
				case 2:
					row[1] = -rng.Int63n(5 * sec)
				}
				in[s] = append(in[s], row)
			}
		}
		epochs = append(epochs, in)
	}
	run := func(q *Query) (dir string, out []string) {
		dir = t.TempDir()
		prov := state.NewProviderFS(fsx.NoSync(), dir)
		prov.MemtableBytes = 4 << 10
		defer prov.Close()
		for e, in := range epochs {
			var shuffled [nPart][2][]sql.Row
			for s, pipe := range q.Pipelines {
				b, ok := vec.FromRows(schemas[s], in[s])
				if !ok {
					t.Fatal("FromRows failed on schema-conforming rows")
				}
				if pipe.Vec == nil {
					b = nil // rows, as the engine hands them to a pipeline without kernels
				}
				for p, bucket := range pipe.Scatter(in[s], b, nPart) {
					shuffled[p][s] = append(shuffled[p][s], bucket...)
				}
			}
			ctx := &EpochContext{Epoch: int64(e), Watermark: max(0, int64(10*e-6)*sec), Mode: logical.Append}
			for p := range shuffled {
				store, err := prov.Open(state.ID{Operator: q.Stateful.Name(), Partition: p}, int64(e)-1)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := q.Stateful.Process(ctx, store, shuffled[p][:])
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, rowStrings(rows)...)
				if err := store.Commit(int64(e)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return dir, out
	}
	dirA, outA := run(columnar)
	dirB, outB := run(boxed)
	if len(outA) == 0 || !reflect.DeepEqual(outA, outB) {
		t.Fatalf("emitted rows differ:\n columnar cells %v\n boxed cells    %v", outA, outB)
	}
	files := func(dir string) (names []string) {
		filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				rel, _ := filepath.Rel(dir, path)
				names = append(names, rel)
			}
			return err
		})
		sort.Strings(names)
		return names
	}
	namesA, namesB := files(dirA), files(dirB)
	if !reflect.DeepEqual(namesA, namesB) || len(namesA) < 2*len(epochs) {
		t.Fatalf("state files differ:\n columnar cells %v\n boxed cells    %v", namesA, namesB)
	}
	for _, name := range namesA {
		a, errA := os.ReadFile(filepath.Join(dirA, name))
		b, errB := os.ReadFile(filepath.Join(dirB, name))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("%s differs between the columnar and the boxed cells (%v, %v)", name, errA, errB)
		}
	}
}
