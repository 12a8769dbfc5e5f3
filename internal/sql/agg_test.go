package sql

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// runAgg feeds values through a single buffer and returns the result.
func runAgg(t *testing.T, kind AggKind, vals ...Value) Value {
	t.Helper()
	agg := bindTestAgg(t, kind)
	buf := agg.NewBuffer()
	for _, v := range vals {
		buf.Update(v)
	}
	return buf.Result()
}

func bindTestAgg(t *testing.T, kind AggKind) BoundAgg {
	t.Helper()
	schema := NewSchema(Field{Name: "v", Type: TypeFloat64})
	var e *AggExpr
	if kind == AggCountAll {
		e = CountAll()
	} else {
		e = NewAgg(kind, Col("v"))
	}
	b, err := e.BindAgg(schema)
	if err != nil {
		t.Fatalf("BindAgg: %v", err)
	}
	return b
}

func TestAggBasics(t *testing.T) {
	if got := runAgg(t, AggCount, 1.0, 2.0, 3.0); got != int64(3) {
		t.Errorf("count = %v", got)
	}
	if got := runAgg(t, AggSum, 1.0, 2.0, 3.5); got != 6.5 {
		t.Errorf("sum = %v", got)
	}
	if got := runAgg(t, AggAvg, 2.0, 4.0); got != 3.0 {
		t.Errorf("avg = %v", got)
	}
	if got := runAgg(t, AggMin, 5.0, 2.0, 9.0); got != 2.0 {
		t.Errorf("min = %v", got)
	}
	if got := runAgg(t, AggMax, 5.0, 2.0, 9.0); got != 9.0 {
		t.Errorf("max = %v", got)
	}
	if got := runAgg(t, AggFirst, 7.0, 8.0); got != 7.0 {
		t.Errorf("first = %v", got)
	}
	if got := runAgg(t, AggLast, 7.0, 8.0); got != 8.0 {
		t.Errorf("last = %v", got)
	}
}

func TestAggEmptyAndNull(t *testing.T) {
	if got := runAgg(t, AggSum); got != nil {
		t.Errorf("sum of empty = %v, want NULL", got)
	}
	if got := runAgg(t, AggAvg); got != nil {
		t.Errorf("avg of empty = %v, want NULL", got)
	}
	if got := runAgg(t, AggMin); got != nil {
		t.Errorf("min of empty = %v, want NULL", got)
	}
	if got := runAgg(t, AggCount); got != int64(0) {
		t.Errorf("count of empty = %v", got)
	}
	// NULLs are skipped by min/avg but counted... count(v) skips NULLs? In
	// our engine count counts every Update call; the planner filters NULLs
	// for count(col) semantics at the operator level, so here NULL counts.
	if got := runAgg(t, AggMin, nil, 4.0, nil); got != 4.0 {
		t.Errorf("min with NULLs = %v", got)
	}
}

func TestIntSum(t *testing.T) {
	schema := NewSchema(Field{Name: "v", Type: TypeInt64})
	b, err := SumOf(Col("v")).BindAgg(schema)
	if err != nil {
		t.Fatal(err)
	}
	if b.ResultType != TypeInt64 {
		t.Fatalf("sum(int) type = %s", b.ResultType)
	}
	buf := b.NewBuffer()
	buf.Update(int64(3))
	buf.Update(int64(4))
	if got := buf.Result(); got != int64(7) {
		t.Errorf("int sum = %v", got)
	}
}

func TestCountDistinct(t *testing.T) {
	got := runAgg(t, AggCountDistinct, 1.0, 2.0, 1.0, nil, 2.0, 3.0)
	if got != int64(3) {
		t.Errorf("count distinct = %v", got)
	}
}

func TestStddevVariance(t *testing.T) {
	got := runAgg(t, AggVariance, 2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)
	if math.Abs(got.(float64)-4.571428571428571) > 1e-9 {
		t.Errorf("variance = %v", got)
	}
	sd := runAgg(t, AggStddev, 2.0, 4.0)
	if math.Abs(sd.(float64)-math.Sqrt2) > 1e-9 {
		t.Errorf("stddev = %v", sd)
	}
	if got := runAgg(t, AggStddev, 1.0); got != nil {
		t.Errorf("stddev of one sample = %v, want NULL", got)
	}
}

// TestAggMergeEqualsSequential is the core property the engine relies on:
// partial aggregation plus merge must equal sequential aggregation.
func TestAggMergeEqualsSequential(t *testing.T) {
	kinds := []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax, AggStddev, AggVariance, AggCountDistinct}
	for _, kind := range kinds {
		agg := bindTestAgg(t, kind)
		f := func(a, b []float64) bool {
			// Map generated values into a bounded range: the property is
			// about merge algebra, not float overflow at ±1e308.
			bound := func(xs []float64) []float64 {
				out := make([]float64, len(xs))
				for i, x := range xs {
					out[i] = math.Mod(x, 1e6)
					if math.IsNaN(out[i]) {
						out[i] = 0
					}
				}
				return out
			}
			a, b = bound(a), bound(b)
			seq := agg.NewBuffer()
			for _, v := range append(append([]float64{}, a...), b...) {
				seq.Update(v)
			}
			p1, p2 := agg.NewBuffer(), agg.NewBuffer()
			for _, v := range a {
				p1.Update(v)
			}
			for _, v := range b {
				p2.Update(v)
			}
			p1.Merge(p2)
			x, y := seq.Result(), p1.Result()
			if x == nil || y == nil {
				return x == nil && y == nil
			}
			xf, _ := AsFloat64(x)
			yf, _ := AsFloat64(y)
			return math.Abs(xf-yf) <= 1e-6*(1+math.Abs(xf))
		}
		cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(42))}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("kind %v: merge != sequential: %v", aggNames[kind], err)
		}
	}
}

// TestAggStateRoundTrip checks buffers survive the state store.
func TestAggStateRoundTrip(t *testing.T) {
	kinds := []AggKind{AggCount, AggSum, AggAvg, AggMin, AggMax, AggFirst, AggLast,
		AggStddev, AggVariance, AggCountDistinct, AggApproxCountDistinct}
	for _, kind := range kinds {
		agg := bindTestAgg(t, kind)
		buf := agg.NewBuffer()
		for _, v := range []Value{3.0, 1.0, 4.0, 1.0, 5.0} {
			buf.Update(v)
		}
		restored := agg.NewBuffer()
		if err := restored.LoadState(buf.AppendState(nil)); err != nil {
			t.Errorf("%s: load state: %v", aggNames[kind], err)
			continue
		}
		a, b := buf.Result(), restored.Result()
		if AsString(a) != AsString(b) {
			t.Errorf("%s: round trip %v != %v", aggNames[kind], a, b)
		}
		// The restored buffer must keep accumulating correctly.
		restored.Update(9.0)
	}
}

func TestApproxCountDistinctAccuracy(t *testing.T) {
	agg := bindTestAgg(t, AggApproxCountDistinct)
	buf := agg.NewBuffer()
	const n = 10000
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n*3; i++ {
		buf.Update(float64(rng.Intn(n)))
	}
	got := float64(buf.Result().(int64))
	if math.Abs(got-n)/n > 0.15 {
		t.Errorf("approx_count_distinct = %v, want within 15%% of %d", got, n)
	}
}

func TestAggKindByName(t *testing.T) {
	for name, want := range map[string]AggKind{
		"count": AggCount, "SUM": AggSum, "Avg": AggAvg, "mean": AggAvg,
		"stddev_samp": AggStddev,
	} {
		got, ok := AggKindByName(name)
		if !ok || got != want {
			t.Errorf("AggKindByName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := AggKindByName("median"); ok {
		t.Error("median should be unknown")
	}
}

func TestAggOutsideGroupByFails(t *testing.T) {
	if _, err := SumOf(Col("v")).Bind(NewSchema(Field{"v", TypeInt64})); err == nil {
		t.Error("aggregate in scalar context must fail to bind")
	}
}

func TestBindAggTypeErrors(t *testing.T) {
	s := NewSchema(Field{"s", TypeString})
	if _, err := SumOf(Col("s")).BindAgg(s); err == nil {
		t.Error("sum(string) should fail")
	}
	if _, err := AvgOf(Col("s")).BindAgg(s); err == nil {
		t.Error("avg(string) should fail")
	}
	if _, err := MinOf(Col("s")).BindAgg(s); err != nil {
		t.Errorf("min(string) is fine: %v", err)
	}
}
