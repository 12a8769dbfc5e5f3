package sql

import (
	"strings"
	"testing"
	"time"
)

var testSchema = NewSchema(
	Field{Name: "id", Type: TypeInt64},
	Field{Name: "name", Type: TypeString},
	Field{Name: "score", Type: TypeFloat64},
	Field{Name: "active", Type: TypeBool},
	Field{Name: "ts", Type: TypeTimestamp},
)

var testRow = Row{int64(7), "alice", 2.5, true, int64(1_000_000)}

// evalExpr binds e against testSchema and evaluates it on testRow.
func evalExpr(t *testing.T, e Expr) Value {
	t.Helper()
	b, err := e.Bind(testSchema)
	if err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	return b.Eval(testRow)
}

func TestColumnBind(t *testing.T) {
	if got := evalExpr(t, Col("id")); got != int64(7) {
		t.Errorf("id = %v", got)
	}
	if got := evalExpr(t, Col("NAME")); got != "alice" {
		t.Errorf("case-insensitive lookup failed: %v", got)
	}
	if _, err := Col("missing").Bind(testSchema); err == nil {
		t.Error("binding a missing column should fail")
	}
}

func TestQualifiedColumnResolution(t *testing.T) {
	qualified := testSchema.Qualify("t")
	b, err := Col("t.id").Bind(qualified)
	if err != nil {
		t.Fatalf("qualified bind: %v", err)
	}
	if got := b.Eval(testRow); got != int64(7) {
		t.Errorf("t.id = %v", got)
	}
	// Bare name also resolves when unambiguous.
	if _, err := Col("id").Bind(qualified); err != nil {
		t.Errorf("bare name in qualified schema: %v", err)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	s := NewSchema(Field{"x", TypeInt64}, Field{"x", TypeInt64})
	if _, err := Col("x").Bind(s); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		e    Expr
		want Value
	}{
		{Add(Col("id"), Lit(3)), int64(10)},
		{Sub(Col("id"), Lit(10)), int64(-3)},
		{Mul(Col("id"), Col("id")), int64(49)},
		{Div(Col("id"), Lit(2)), 3.5}, // division is always double
		{NewBinary(OpMod, Col("id"), Lit(4)), int64(3)},
		{Add(Col("score"), Lit(1)), 3.5},
		{Mul(Lit(2), Col("score")), 5.0},
		{Div(Col("id"), Lit(0)), nil}, // division by zero yields NULL
		{NewBinary(OpMod, Col("id"), Lit(0)), nil},
		{Add(Lit("a"), Lit("b")), "ab"}, // string concatenation via +
	}
	for _, c := range cases {
		if got := evalExpr(t, c.e); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestArithTypeErrors(t *testing.T) {
	if _, err := Add(Col("active"), Lit(1)).Bind(testSchema); err == nil {
		t.Error("bool + int should not bind")
	}
	if _, err := Mul(Col("name"), Lit(2)).Bind(testSchema); err == nil {
		t.Error("string * int should not bind")
	}
}

func TestTimestampArithmetic(t *testing.T) {
	e := Add(Col("ts"), IntervalLit(int64(time.Minute/time.Microsecond)))
	b, err := e.Bind(testSchema)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	if b.Type != TypeTimestamp {
		t.Errorf("ts + interval should be timestamp, got %s", b.Type)
	}
	if got := b.Eval(testRow); got != int64(61_000_000) {
		t.Errorf("ts + 1min = %v", got)
	}
	diff := Sub(Col("ts"), Col("ts"))
	db, err := diff.Bind(testSchema)
	if err != nil {
		t.Fatalf("bind diff: %v", err)
	}
	if db.Type != TypeInterval {
		t.Errorf("ts - ts should be interval, got %s", db.Type)
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		e    Expr
		want Value
	}{
		{Eq(Col("id"), Lit(7)), true},
		{Ne(Col("id"), Lit(7)), false},
		{Lt(Col("id"), Lit(8)), true},
		{Ge(Col("score"), Lit(2.5)), true},
		{Gt(Col("name"), Lit("aaa")), true},
		{Eq(Col("id"), Lit(nil)), nil},  // comparisons with NULL are NULL
		{Eq(Col("id"), Lit(7.0)), true}, // numeric promotion
	}
	for _, c := range cases {
		if got := evalExpr(t, c.e); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	if _, err := Eq(Col("active"), Lit("x")).Bind(testSchema); err == nil {
		t.Error("bool = string should not bind")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := Lit(nil)
	tr, fa := Lit(true), Lit(false)
	cases := []struct {
		e    Expr
		want Value
	}{
		{And(tr, tr), true},
		{And(tr, fa), false},
		{And(fa, null), false}, // false AND NULL = false
		{And(tr, null), nil},
		{Or(fa, fa), false},
		{Or(fa, tr), true},
		{Or(tr, null), true}, // true OR NULL = true
		{Or(fa, null), nil},
		{Not(tr), false},
		{Not(null), nil},
	}
	for _, c := range cases {
		if got := evalExpr(t, c.e); got != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestIsNull(t *testing.T) {
	if got := evalExpr(t, IsNull(Lit(nil))); got != true {
		t.Error("IsNull(NULL)")
	}
	if got := evalExpr(t, IsNotNull(Col("id"))); got != true {
		t.Error("IsNotNull(id)")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_", false},
		{"hello", "%", true},
		{"", "%", true},
		{"abc", "a%c", true},
		{"abc", "a%d", false},
		{"a.c", "a.c", true},
	}
	for _, c := range cases {
		e := NewBinary(OpLike, Lit(c.s), Lit(c.pat))
		if got := evalExpr(t, e); got != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestCase(t *testing.T) {
	e := &Case{
		Whens: []WhenClause{
			{When: Gt(Col("id"), Lit(10)), Then: Lit("big")},
			{When: Gt(Col("id"), Lit(5)), Then: Lit("medium")},
		},
		Else: Lit("small"),
	}
	if got := evalExpr(t, e); got != "medium" {
		t.Errorf("CASE = %v", got)
	}
	noElse := &Case{Whens: []WhenClause{{When: Lit(false), Then: Lit(1)}}}
	if got := evalExpr(t, noElse); got != nil {
		t.Errorf("CASE without ELSE should yield NULL, got %v", got)
	}
}

func TestInList(t *testing.T) {
	in := &InList{Child: Col("id"), List: []Expr{Lit(1), Lit(7), Lit(9)}}
	if got := evalExpr(t, in); got != true {
		t.Error("7 IN (1,7,9)")
	}
	notIn := &InList{Child: Col("id"), List: []Expr{Lit(1), Lit(2)}}
	if got := evalExpr(t, notIn); got != false {
		t.Error("7 IN (1,2)")
	}
	withNull := &InList{Child: Col("id"), List: []Expr{Lit(1), Lit(nil)}}
	if got := evalExpr(t, withNull); got != nil {
		t.Error("7 IN (1, NULL) should be NULL")
	}
}

func TestCastExpr(t *testing.T) {
	b, err := NewCast(Col("id"), TypeString).Bind(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if b.Type != TypeString || b.Eval(testRow) != "7" {
		t.Errorf("CAST(id AS string) = %v (%s)", b.Eval(testRow), b.Type)
	}
	// Casting to the same type is the identity and keeps the child type.
	same, err := NewCast(Col("id"), TypeInt64).Bind(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if same.Eval(testRow) != int64(7) {
		t.Error("identity cast")
	}
}

func TestAliasAndOutputName(t *testing.T) {
	if OutputName(As(Col("id"), "x")) != "x" {
		t.Error("alias output name")
	}
	if OutputName(Col("t.id")) != "id" {
		t.Error("qualified column output name strips prefix")
	}
	if OutputName(Add(Col("id"), Lit(1))) == "" {
		t.Error("derived output name must be non-empty")
	}
}

func TestTransformExpr(t *testing.T) {
	// Replace every column with literal 1, check the rewrite reaches leaves.
	e := Add(Col("id"), Mul(Col("score"), Lit(2)))
	rewritten := TransformExpr(e, func(x Expr) Expr {
		if _, ok := x.(*Column); ok {
			return Lit(1)
		}
		return x
	})
	b, err := rewritten.Bind(Schema{})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Eval(nil); got != int64(3) {
		t.Errorf("rewritten eval = %v", got)
	}
}

func TestWindowExprTumbling(t *testing.T) {
	w := NewWindow(Col("ts"), 10*time.Second, 0)
	b, err := w.Bind(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	if b.Type != TypeWindow {
		t.Fatalf("window type = %s", b.Type)
	}
	got := b.Eval(Row{nil, nil, nil, nil, int64(25_000_000)})
	want := Window{Start: 20_000_000, End: 30_000_000}
	if got != want {
		t.Errorf("window = %v, want %v", got, want)
	}
	// Negative timestamps floor correctly.
	got = b.Eval(Row{nil, nil, nil, nil, int64(-5_000_000)})
	want = Window{Start: -10_000_000, End: 0}
	if got != want {
		t.Errorf("window(-5s) = %v, want %v", got, want)
	}
}

func TestWindowExprSliding(t *testing.T) {
	w := NewWindow(Col("ts"), 10*time.Second, 5*time.Second)
	wins := w.Windows(12_000_000)
	if len(wins) != 2 {
		t.Fatalf("12s in 10s/5s windows: got %d windows %v", len(wins), wins)
	}
	if wins[0] != (Window{Start: 5_000_000, End: 15_000_000}) ||
		wins[1] != (Window{Start: 10_000_000, End: 20_000_000}) {
		t.Errorf("windows = %v", wins)
	}
	// Every returned window must contain the timestamp.
	for _, ts := range []int64{0, 1, 4_999_999, 5_000_000, 123_456_789} {
		for _, win := range w.Windows(ts) {
			if ts < win.Start || ts >= win.End {
				t.Errorf("ts %d not in window %v", ts, win)
			}
		}
	}
}
