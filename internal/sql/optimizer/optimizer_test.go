package optimizer

import (
	"strings"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/logical"
)

func scan(name string, fields ...sql.Field) *logical.Scan {
	return &logical.Scan{Name: name, Out: sql.Schema{Fields: fields}}
}

func defaultScan() *logical.Scan {
	return scan("t",
		sql.Field{Name: "a", Type: sql.TypeInt64},
		sql.Field{Name: "b", Type: sql.TypeInt64},
		sql.Field{Name: "s", Type: sql.TypeString},
	)
}

func TestConstantFolding(t *testing.T) {
	p := &logical.Filter{
		Child: defaultScan(),
		Cond:  sql.Gt(sql.Col("a"), sql.Add(sql.Lit(1), sql.Mul(sql.Lit(2), sql.Lit(3)))),
	}
	out := Optimize(p)
	f := out.(*logical.Filter)
	b := f.Cond.(*sql.Binary)
	lit, ok := b.R.(*sql.Literal)
	if !ok || lit.Val != int64(7) {
		t.Errorf("folded cond = %s", f.Cond)
	}
}

func TestSimplifyBooleans(t *testing.T) {
	cases := []struct {
		in   sql.Expr
		want string
	}{
		{sql.And(sql.Gt(sql.Col("a"), sql.Lit(1)), sql.Lit(true)), "(a > 1)"},
		{sql.Or(sql.Gt(sql.Col("a"), sql.Lit(1)), sql.Lit(false)), "(a > 1)"},
		{sql.Not(sql.Not(sql.Gt(sql.Col("a"), sql.Lit(1)))), "(a > 1)"},
	}
	for _, c := range cases {
		p := Optimize(&logical.Filter{Child: defaultScan(), Cond: c.in})
		f, ok := p.(*logical.Filter)
		if !ok {
			t.Errorf("%s: filter was removed entirely: %T", c.in, p)
			continue
		}
		if f.Cond.String() != c.want {
			t.Errorf("simplify(%s) = %s, want %s", c.in, f.Cond, c.want)
		}
	}
}

func TestFilterTrueRemoved(t *testing.T) {
	p := Optimize(&logical.Filter{Child: defaultScan(), Cond: sql.Lit(true)})
	if _, ok := p.(*logical.Scan); !ok {
		t.Errorf("Filter(TRUE) should be removed, got %T", p)
	}
	// AND of two TRUEs also folds away.
	p2 := Optimize(&logical.Filter{Child: defaultScan(), Cond: sql.And(sql.Lit(true), sql.Lit(true))})
	if _, ok := p2.(*logical.Scan); !ok {
		t.Errorf("Filter(TRUE AND TRUE) should be removed, got %T", p2)
	}
}

func TestCombineFilters(t *testing.T) {
	p := &logical.Filter{
		Child: &logical.Filter{Child: defaultScan(), Cond: sql.Gt(sql.Col("a"), sql.Lit(1))},
		Cond:  sql.Lt(sql.Col("b"), sql.Lit(9)),
	}
	out := Optimize(p)
	f, ok := out.(*logical.Filter)
	if !ok {
		t.Fatalf("top = %T", out)
	}
	if _, ok := f.Child.(*logical.Scan); !ok {
		t.Errorf("filters not combined:\n%s", logical.Explain(out))
	}
}

func TestPushFilterThroughProject(t *testing.T) {
	proj := &logical.Project{Child: defaultScan(), Exprs: []sql.Expr{
		sql.As(sql.Col("a"), "x"),
		sql.As(sql.Mul(sql.Col("b"), sql.Lit(2)), "y"),
	}}
	p := &logical.Filter{Child: proj, Cond: sql.Gt(sql.Col("y"), sql.Lit(10))}
	out := Optimize(p)
	top, ok := out.(*logical.Project)
	if !ok {
		t.Fatalf("top = %T:\n%s", out, logical.Explain(out))
	}
	f, ok := top.Child.(*logical.Filter)
	if !ok {
		t.Fatalf("filter not pushed below project:\n%s", logical.Explain(out))
	}
	// The condition must now reference b, not y.
	if !strings.Contains(f.Cond.String(), "b") {
		t.Errorf("cond = %s", f.Cond)
	}
}

func TestPushFilterThroughJoin(t *testing.T) {
	left := &logical.SubqueryAlias{Child: defaultScan(), Alias: "l"}
	right := &logical.SubqueryAlias{Child: scan("u",
		sql.Field{Name: "c", Type: sql.TypeInt64},
		sql.Field{Name: "d", Type: sql.TypeInt64}), Alias: "r"}
	join := &logical.Join{Left: left, Right: right, Type: logical.InnerJoin,
		Cond: sql.Eq(sql.Col("l.a"), sql.Col("r.c"))}
	p := &logical.Filter{Child: join, Cond: sql.And(
		sql.Gt(sql.Col("l.b"), sql.Lit(5)),
		sql.Lt(sql.Col("r.d"), sql.Lit(3)),
	)}
	out := Optimize(p)
	j, ok := out.(*logical.Join)
	if !ok {
		t.Fatalf("filter should be fully pushed:\n%s", logical.Explain(out))
	}
	if _, ok := j.Left.(*logical.Filter); !ok {
		t.Errorf("left conjunct not pushed:\n%s", logical.Explain(out))
	}
	if _, ok := j.Right.(*logical.Filter); !ok {
		t.Errorf("right conjunct not pushed:\n%s", logical.Explain(out))
	}
}

func TestOuterJoinPushOnlyPreservedSide(t *testing.T) {
	left := &logical.SubqueryAlias{Child: defaultScan(), Alias: "l"}
	right := &logical.SubqueryAlias{Child: scan("u",
		sql.Field{Name: "c", Type: sql.TypeInt64}), Alias: "r"}
	join := &logical.Join{Left: left, Right: right, Type: logical.LeftOuterJoin,
		Cond: sql.Eq(sql.Col("l.a"), sql.Col("r.c"))}
	p := &logical.Filter{Child: join, Cond: sql.Lt(sql.Col("r.c"), sql.Lit(3))}
	out := Optimize(p)
	// The right-side predicate must NOT be pushed below a left outer join;
	// it stays above the join.
	if _, ok := out.(*logical.Filter); !ok {
		t.Errorf("predicate on null-extended side must stay above the join:\n%s", logical.Explain(out))
	}
}

func TestPushFilterThroughUnion(t *testing.T) {
	u := &logical.Union{Left: defaultScan(), Right: defaultScan()}
	p := &logical.Filter{Child: u, Cond: sql.Gt(sql.Col("a"), sql.Lit(1))}
	out := Optimize(p)
	un, ok := out.(*logical.Union)
	if !ok {
		t.Fatalf("top = %T", out)
	}
	if _, ok := un.Left.(*logical.Filter); !ok {
		t.Errorf("filter not duplicated into union sides:\n%s", logical.Explain(out))
	}
}

func TestPushFilterBelowWatermark(t *testing.T) {
	wm := &logical.WithWatermark{Child: scan("t",
		sql.Field{Name: "a", Type: sql.TypeInt64},
		sql.Field{Name: "ts", Type: sql.TypeTimestamp}), Column: "ts", Delay: 1}
	p := &logical.Filter{Child: wm, Cond: sql.Gt(sql.Col("a"), sql.Lit(0))}
	out := Optimize(p)
	w, ok := out.(*logical.WithWatermark)
	if !ok {
		t.Fatalf("top = %T", out)
	}
	if _, ok := w.Child.(*logical.Filter); !ok {
		t.Errorf("filter not pushed below watermark:\n%s", logical.Explain(out))
	}
}

// TestWindowAssignPushdownGuard: a filter above a window assignment stays
// there, above the window column it may read.
func TestWindowAssignPushdownGuard(t *testing.T) {
	wa := &logical.WindowAssign{
		Child:  scan("t", sql.Field{Name: "ts", Type: sql.TypeTimestamp}),
		Window: sql.NewWindow(sql.Col("ts"), 1000, 0),
		Name:   "window",
	}
	// Predicate over the window column must stay above WindowAssign.
	p := &logical.Filter{Child: wa,
		Cond: sql.IsNotNull(sql.Col("window"))}
	out := Optimize(p)
	if _, ok := out.(*logical.Filter); !ok {
		t.Errorf("window predicate must not be pushed below WindowAssign:\n%s", logical.Explain(out))
	}
}

func TestCollapseProjects(t *testing.T) {
	inner := &logical.Project{Child: defaultScan(), Exprs: []sql.Expr{
		sql.As(sql.Add(sql.Col("a"), sql.Lit(1)), "x"),
		sql.As(sql.Col("b"), "y"),
	}}
	outer := &logical.Project{Child: inner, Exprs: []sql.Expr{
		sql.As(sql.Mul(sql.Col("x"), sql.Lit(2)), "z"),
	}}
	out := Optimize(outer)
	proj, ok := out.(*logical.Project)
	if !ok {
		t.Fatalf("top = %T", out)
	}
	if _, ok := proj.Child.(*logical.Scan); !ok {
		t.Errorf("projects not collapsed:\n%s", logical.Explain(out))
	}
	s, err := out.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Field(0).Name != "z" {
		t.Errorf("schema = %s", s)
	}
}

func TestOptimizePreservesSchema(t *testing.T) {
	// Whatever the rules do, the output schema must not change.
	inner := &logical.Project{Child: defaultScan(), Exprs: []sql.Expr{
		sql.As(sql.Col("a"), "x"), sql.As(sql.Col("s"), "name"),
	}}
	p := &logical.Filter{Child: inner, Cond: sql.And(
		sql.Gt(sql.Col("x"), sql.Lit(1)), sql.Lit(true))}
	before, err := p.Schema()
	if err != nil {
		t.Fatal(err)
	}
	out := Optimize(p)
	after, err := out.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if !before.Equal(after) {
		t.Errorf("schema changed: %s -> %s", before, after)
	}
}

func TestOptimizeTerminates(t *testing.T) {
	// A deep stack of filters and projects must converge within the
	// iteration bound.
	var p logical.Plan = defaultScan()
	for i := 0; i < 30; i++ {
		p = &logical.Filter{Child: p, Cond: sql.Gt(sql.Col("a"), sql.Lit(i))}
		p = &logical.Project{Child: p, Exprs: []sql.Expr{
			sql.As(sql.Col("a"), "a"), sql.As(sql.Col("b"), "b"), sql.As(sql.Col("s"), "s")}}
	}
	out := Optimize(p)
	if _, err := out.Schema(); err != nil {
		t.Fatalf("optimized plan invalid: %v", err)
	}
}

func TestPushFilterThroughDistinct(t *testing.T) {
	d := &logical.Distinct{Child: defaultScan()}
	p := &logical.Filter{Child: d, Cond: sql.Gt(sql.Col("a"), sql.Lit(1))}
	out := Optimize(p)
	dd, ok := out.(*logical.Distinct)
	if !ok {
		t.Fatalf("top = %T", out)
	}
	if _, ok := dd.Child.(*logical.Filter); !ok {
		t.Errorf("filter not pushed below distinct:\n%s", logical.Explain(out))
	}
	// With a key subset the filter must stay above.
	d2 := &logical.Distinct{Child: defaultScan(), Cols: []string{"a"}}
	p2 := &logical.Filter{Child: d2, Cond: sql.Gt(sql.Col("b"), sql.Lit(1))}
	if _, ok := Optimize(p2).(*logical.Filter); !ok {
		t.Error("filter must not push below dropDuplicates(cols)")
	}
}
