package incremental

import (
	"math"
	"math/rand"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/sql/parser"
	"structream/internal/state"
)

// Tests for the time band the planner derives from a stream-stream join's
// condition (joinTimeBand): that it is what the condition says, that it never
// excludes a pair the condition accepts, and that the operator's reads follow
// it.

// bandSchema is left ++ right: lts and rts are the watermarked event-time
// columns, lts2 and rts2 timestamps that are not.
var bandSchema = sql.NewSchema(
	sql.Field{Name: "lk", Type: sql.TypeInt64},
	sql.Field{Name: "lts", Type: sql.TypeTimestamp},
	sql.Field{Name: "lts2", Type: sql.TypeTimestamp},
	sql.Field{Name: "rk", Type: sql.TypeInt64},
	sql.Field{Name: "rts", Type: sql.TypeTimestamp},
	sql.Field{Name: "rts2", Type: sql.TypeTimestamp},
)

const bandLeftTs, bandRightTs = 1, 4

func TestJoinTimeBandCases(t *testing.T) {
	const open = math.MaxInt64 // Hi: open above; -open−1, i.e. math.MinInt64, as Lo: open below
	band := func(lo, hi int64) *TimeBand { return &TimeBand{Lo: lo, Hi: hi} }
	for _, c := range []struct {
		what, cond string
		want       *TimeBand
		width      int64
		exact      bool // the band is all the condition says
	}{
		{"BETWEEN", "rts BETWEEN lts AND lts + INTERVAL 10 seconds", band(0, 10*sec), 10 * sec, true},
		{"non-strict ends", "rts >= lts AND rts <= lts + INTERVAL 10 seconds", band(0, 10*sec), 10 * sec, true},
		{"strict ends", "rts > lts AND rts < lts + INTERVAL 10 seconds", band(1, 10*sec-1), 10*sec - 2, true},
		{"operands swapped", "lts <= rts AND lts + INTERVAL 10 seconds >= rts", band(0, 10*sec), 10 * sec, true},
		{"r − i for l + i", "lts >= rts - INTERVAL 10 seconds AND lts <= rts", band(0, 10*sec), 10 * sec, true},
		{"offsets on both operands, literal first", "rts - INTERVAL 3 seconds >= lts + INTERVAL 2 seconds AND INTERVAL 1 second + lts > rts - INTERVAL 9 seconds", band(5*sec, 10*sec-1), 5*sec - 1, true},
		{"the tightest bound wins", "rts >= lts - INTERVAL 4 seconds AND rts <= lts + INTERVAL 4 seconds AND rts <= lts + INTERVAL 9 seconds", band(-4*sec, 4*sec), 8 * sec, true},
		{"one-sided: a pre-check, no buckets", "rts >= lts + INTERVAL 2 seconds", band(2*sec, open), 0, true},
		{"one-sided from above", "lts > rts", band(-open-1, -1), 0, true},
		{"zero width", "rts >= lts AND rts <= lts", band(0, 0), minJoinBucket, true},
		{"equality", "rts = lts + INTERVAL 3 seconds", band(3*sec, 3*sec), minJoinBucket, true},
		{"narrower than the smallest bucket", "rts >= lts AND rts <= lts + INTERVAL 200 milliseconds", band(0, sec/5), minJoinBucket, true},
		{"empty", "rts >= lts + INTERVAL 5 seconds AND rts <= lts", band(5*sec, 0), minJoinBucket, true},
		{"an OR bounds nothing", "rts >= lts AND lk < rk AND (rts <= lts + INTERVAL 1 second OR lk = 3)", band(0, open), 0, false},
		{"a column without a watermark", "rts2 BETWEEN lts AND lts + INTERVAL 10 seconds", nil, 0, false},
		{"a column without a watermark, left", "rts BETWEEN lts2 AND lts2 + INTERVAL 10 seconds", nil, 0, false},
		{"both operands on one side", "rts >= rts2 AND lts <= lts2 + INTERVAL 1 second", nil, 0, false},
		{"outside the grammar", "NOT (rts < lts) AND rts <> lts AND CAST(rts AS BIGINT) >= CAST(lts AS BIGINT)", nil, 0, false},
		{"a literal past the exact range", "rts >= lts + INTERVAL 4000000000000000000 microseconds", nil, 0, false},
		{"a band and a conjunct beside it", "rts BETWEEN lts AND lts + INTERVAL 10 seconds AND lk = rk + 1", band(0, 10*sec), 10 * sec, false},
	} {
		cond, err := parser.ParseExpr(c.cond)
		if err != nil {
			t.Fatalf("%s: %v", c.cond, err)
		}
		if _, err := cond.Bind(bandSchema); err != nil {
			t.Fatalf("%s: %v", c.cond, err)
		}
		got, exact := joinTimeBand(cond, bandSchema, bandLeftTs, bandRightTs)
		if (got == nil) != (c.want == nil) || got != nil && *got != *c.want || exact != c.exact {
			t.Errorf("%s (%s): band %+v (exact %v), want %+v (exact %v)", c.what, c.cond, got, exact, c.want, c.exact)
		}
		if w := (&StreamStreamJoin{Band: got}).bucketWidth(); w != c.width {
			t.Errorf("%s (%s): bucket width %d, want %d", c.what, c.cond, w, c.width)
		}
	}
}

// TestCompiledJoinCarriesItsBand: the planner hands the band to the operator
// only when both of its columns are the sides' watermarked ones.
func TestCompiledJoinCarriesItsBand(t *testing.T) {
	left := sql.NewSchema(sql.Field{Name: "ad", Type: sql.TypeInt64}, sql.Field{Name: "lts", Type: sql.TypeTimestamp})
	right := sql.NewSchema(sql.Field{Name: "pad", Type: sql.TypeString}, sql.Field{Name: "c_ad", Type: sql.TypeInt64}, sql.Field{Name: "rts", Type: sql.TypeTimestamp})
	cond := sql.And(sql.Eq(sql.Col("ad"), sql.Col("c_ad")), sql.And(
		sql.Ge(sql.Col("rts"), sql.Col("lts")),
		sql.Le(sql.Col("rts"), sql.Add(sql.Col("lts"), sql.IntervalLit(10*sec)))))
	for _, c := range []struct {
		watermarkLeft, watermarkRight bool
		want                          *TimeBand
	}{
		{true, true, &TimeBand{Lo: 0, Hi: 10 * sec}},
		{true, false, nil},
		{false, true, nil},
	} {
		side := func(name string, schema sql.Schema, col string, watermark bool) logical.Plan {
			var p logical.Plan = &logical.Scan{Name: name, Streaming: true, Out: schema}
			if watermark {
				p = &logical.WithWatermark{Child: p, Column: col, Delay: 80 * sec}
			}
			return p
		}
		q, err := Compile(&logical.Join{
			Left:  side("imps", left, "lts", c.watermarkLeft),
			Right: side("clicks", right, "rts", c.watermarkRight),
			Type:  logical.InnerJoin, Cond: cond,
		}, logical.Append, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := q.Stateful.(*StreamStreamJoin).Band
		if (got == nil) != (c.want == nil) || got != nil && *got != *c.want {
			t.Errorf("watermarks %v/%v: band %+v, want %+v", c.watermarkLeft, c.watermarkRight, got, c.want)
		}
	}
}

// randomBandResidual builds a residual from the grammar joinTimeBand reads —
// comparisons between lts and rts, either operand order, each operand bare,
// col + i, i + col or col − i — mixed with what it must ignore: other columns,
// ORs, NOTs, comparisons within one side. Offsets are small enough that pairs
// near them are easy to draw, with the odd huge one.
func randomBandResidual(rng *rand.Rand) sql.Expr {
	offset := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return rng.Int63n(maxBandOffset) - maxBandOffset/2
		}
		return rng.Int63n(40) - 20
	}
	operand := func(col string) sql.Expr {
		c := sql.Expr(sql.Col(col))
		switch rng.Intn(4) {
		case 0:
			return c
		case 1:
			return sql.Add(c, sql.IntervalLit(offset()))
		case 2:
			return sql.Add(sql.IntervalLit(offset()), c)
		}
		return sql.Sub(c, sql.IntervalLit(offset()))
	}
	comparison := func(a, b string) sql.Expr {
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		ops := []sql.BinOp{sql.OpGe, sql.OpGt, sql.OpLe, sql.OpLt, sql.OpEq, sql.OpNe}
		return sql.NewBinary(ops[rng.Intn(len(ops))], operand(a), operand(b))
	}
	var conjunct func(depth int) sql.Expr
	conjunct = func(depth int) sql.Expr {
		switch k := rng.Intn(10); {
		case k < 5:
			return comparison("lts", "rts")
		case k == 5:
			return comparison([]string{"lts2", "lts", "lts2"}[rng.Intn(3)], []string{"rts", "rts2", "rts2"}[rng.Intn(3)])
		case k == 6:
			return comparison("lts", "lts2")
		case k == 7:
			return sql.Lt(sql.Col("lk"), sql.Col("rk"))
		case k == 8 && depth < 2:
			return sql.Or(conjunct(depth+1), conjunct(depth+1))
		case depth < 2:
			return sql.Not(conjunct(depth + 1))
		}
		return sql.Ne(sql.Col("lk"), sql.Lit(int64(3)))
	}
	e := conjunct(0)
	for n := rng.Intn(4); n > 0; n-- {
		if rng.Intn(2) == 0 {
			e = sql.And(e, conjunct(0))
		} else {
			e = sql.And(conjunct(0), e)
		}
	}
	return e
}

// checkBandSound draws pairs around (l, l+d) and requires that whenever the
// band derived from residual excludes one — by the operator's own window
// arithmetic, in either probe direction — the bound residual is not true,
// and, where the band is exact and decides the pair (both event times known),
// that the residual is true for every pair the band does not exclude. NULL
// event times reach the operator as −1.
func checkBandSound(t *testing.T, rng *rand.Rand, residual sql.Expr, l, d int64) {
	t.Helper()
	bound, err := residual.Bind(bandSchema)
	if err != nil {
		t.Fatalf("%s: %v", residual, err)
	}
	band, exact := joinTimeBand(residual, bandSchema, bandLeftTs, bandRightTs)
	j := &StreamStreamJoin{Band: band, BandExact: exact}
	for n := 0; n < 64; n++ {
		lt, rt := l+rng.Int63n(7)-3, l+d+rng.Int63n(7)-3
		row := sql.Row{rng.Int63n(5), lt, lt + rng.Int63n(50) - 25, rng.Int63n(5), rt, rt + rng.Int63n(50) - 25}
		switch rng.Intn(12) {
		case 0:
			row[bandLeftTs], lt = nil, -1
		case 1:
			row[bandRightTs], rt = nil, -1
		}
		lo, hi := j.window(0, lt)
		excluded := rt < lo || rt > hi
		lo, hi = j.window(1, rt)
		excluded = excluded || lt < lo || lt > hi
		v, _ := bound.Eval(row).(bool)
		if excluded && v {
			t.Fatalf("%s is true for lts=%v rts=%v, which its band %+v excludes", residual, row[bandLeftTs], row[bandRightTs], *j.Band)
		}
		if !excluded && !v && j.bandDecides(lt, rt) {
			t.Fatalf("%s is not true for lts=%v rts=%v, inside its exact band %+v", residual, row[bandLeftTs], row[bandRightTs], *j.Band)
		}
	}
}

func TestJoinTimeBandIsSound(t *testing.T) {
	derived, twoSided, exact := 0, 0, 0
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		residual := randomBandResidual(rng)
		if b, all := joinTimeBand(residual, bandSchema, bandLeftTs, bandRightTs); b != nil {
			derived++
			if b.Lo > math.MinInt64 && b.Hi < math.MaxInt64 {
				twoSided++
			}
			if all {
				exact++
			}
		}
		for n := 0; n < 8; n++ {
			l := rng.Int63n(maxBandOffset) - maxBandOffset/2
			if n%2 == 0 {
				l = rng.Int63n(100) - 20 // around zero, where event times turn negative
			}
			checkBandSound(t, rng, residual, l, rng.Int63n(80)-40)
		}
	}
	if derived < 1000 || twoSided < 200 || exact < 200 {
		t.Fatalf("weak run: %d of 3000 residuals gave a band, %d a two-sided one, %d an exact one", derived, twoSided, exact)
	}
}

// FuzzJoinBand is the same property with the fuzzer choosing the residual
// (through the seed of its generator) and the pair. Event times and offsets
// stay within ±2^61 µs, where the residual's own arithmetic is exact.
func FuzzJoinBand(f *testing.F) {
	f.Add(int64(1), int64(1_600_000_000_000_000), int64(10*sec))
	f.Add(int64(7), int64(0), int64(-3))
	f.Add(int64(42), int64(-5), int64(20))
	f.Fuzz(func(t *testing.T, seed, l, d int64) {
		rng := rand.New(rand.NewSource(seed))
		checkBandSound(t, rng, randomBandResidual(rng), l%maxBandOffset, d%maxBandOffset)
	})
}

// TestJoinProbeReadsAreBandBounded: one hot key, 80 s of buffered rows per
// side, a 10 s band, the lsm backend. What an epoch's probes fetch must follow
// the rows inside the epoch's band — the union of its rows' windows — not the
// buffer: at most three times as many, and no more at epoch 60 than at epoch
// 10. (One bucket for everything, the layout before time buckets, fetches
// the whole buffer: about nine times the rows inside the band here.)
func TestJoinProbeReadsAreBandBounded(t *testing.T) {
	const perEpoch, epochs, step, buffer = 40, 60, 8 * sec, 80 * sec
	band := TimeBand{Lo: 0, Hi: 10 * sec}
	j := &StreamStreamJoin{OpName: "join", Type: logical.InnerJoin, LeftArity: 2, RightArity: 2,
		LeftEventIdx: 1, RightEventIdx: 1, Band: &band,
		Residual: func(r sql.Row) sql.Value {
			d := r[3].(int64) - r[1].(int64)
			return d >= band.Lo && d <= band.Hi
		}}
	_, store := joinStore(t, state.BackendLSM)
	rng := rand.New(rand.NewSource(1))
	var buffered [2][]int64 // event times committed and not yet evicted
	var fetched [epochs + 1]int64
	for epoch := int64(0); epoch <= epochs; epoch++ {
		// An epoch's rows spread over two steps of event time, so consecutive
		// epochs overlap and both sides find buffered rows inside their windows.
		var inputs [2][]sql.Row
		var arrived [2][]int64
		lo, hi := [2]int64{math.MaxInt64, math.MaxInt64}, [2]int64{math.MinInt64, math.MinInt64}
		for s := range inputs {
			for i := 0; i < perEpoch; i++ {
				ts := 1000*sec + epoch*step + rng.Int63n(2*step)
				inputs[s] = append(inputs[s], joinRow([]sql.Value{"hot"}, ts, sql.Row{"hot", ts}))
				arrived[s] = append(arrived[s], ts)
				lo[s], hi[s] = min(lo[s], ts), max(hi[s], ts)
			}
		}
		watermark := 1000*sec + epoch*step - buffer
		inBand := 0
		for _, ts := range buffered[1] { // right rows the left arrivals can match
			if ts >= lo[0]+band.Lo && ts <= hi[0]+band.Hi {
				inBand++
			}
		}
		for _, ts := range buffered[0] { // left rows the right arrivals can match
			if ts >= lo[1]-band.Hi && ts <= hi[1]-band.Lo {
				inBand++
			}
		}
		before := j.entriesRead.Load()
		out, err := j.Process(&EpochContext{Epoch: epoch, Watermark: max(watermark, 0), Mode: logical.Append}, store, inputs[:])
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Commit(epoch); err != nil {
			t.Fatal(err)
		}
		fetched[epoch] = j.entriesRead.Load() - before
		if epoch >= 10 && (len(out) == 0 || inBand < perEpoch || fetched[epoch] > 3*int64(inBand)) {
			t.Fatalf("epoch %d: probes fetched %d entries for %d buffered rows inside the band (%d of %d+%d buffered), %d matches",
				epoch, fetched[epoch], inBand, inBand, len(buffered[0]), len(buffered[1]), len(out))
		}
		for s := range buffered {
			kept := buffered[s][:0]
			for _, ts := range append(buffered[s], arrived[s]...) {
				// A left row stays matchable a band behind the watermark.
				if ts >= watermark-band.Hi*int64(1-s) {
					kept = append(kept, ts)
				}
			}
			buffered[s] = kept
		}
	}
	if len(buffered[0]) < 9*perEpoch {
		t.Fatalf("only %d rows buffered per side at the end", len(buffered[0]))
	}
	early, late := fetched[10]+fetched[11]+fetched[12], fetched[epochs-2]+fetched[epochs-1]+fetched[epochs]
	t.Logf("entries fetched at epochs 10-12: %d, at epochs %d-%d: %d", early, epochs-2, epochs, late)
	if float64(late) > 1.25*float64(early) {
		t.Errorf("entries fetched grew from %d to %d between epochs 10 and %d", early, late, epochs)
	}
}

// TestJoinEvictionLagCases: how far behind the watermark each side's rows are
// kept, per shape of band — finite ends move the bound, open ends and ends
// that point ahead of the watermark leave it at ts < W.
func TestJoinEvictionLagCases(t *testing.T) {
	for _, c := range []struct {
		what        string
		band        *TimeBand
		left, right int64
	}{
		{"no band: ts < W on both sides", nil, 0, 0},
		{"click within 10 s of its impression", &TimeBand{Lo: 0, Hi: 10 * sec}, 10 * sec, 0},
		{"symmetric", &TimeBand{Lo: -4 * sec, Hi: 4 * sec}, 4 * sec, 4 * sec},
		{"right strictly after left: no right row is kept past W", &TimeBand{Lo: 2 * sec, Hi: 5 * sec}, 5 * sec, 0},
		{"right strictly before left: no left row is kept past W", &TimeBand{Lo: -5 * sec, Hi: -2 * sec}, 0, 5 * sec},
		{"open above: the left side keeps ts < W", &TimeBand{Lo: -3 * sec, Hi: math.MaxInt64}, 0, 3 * sec},
		{"open below: the right side keeps ts < W", &TimeBand{Lo: math.MinInt64, Hi: 3 * sec}, 3 * sec, 0},
		{"the widest finite band", &TimeBand{Lo: math.MinInt64 + 1, Hi: math.MaxInt64 - 1}, math.MaxInt64 - 1, math.MaxInt64},
	} {
		j := &StreamStreamJoin{Band: c.band}
		if l, r := j.evictLag(0), j.evictLag(1); l != c.left || r != c.right {
			t.Errorf("%s: lag %d left, %d right; want %d, %d", c.what, l, r, c.left, c.right)
		}
	}
}

// TestOuterJoinPadsARowOnceTheBandHasPassed pins when a left-outer join gives
// up on an unmatched left row under rts BETWEEN lts AND lts + 10 s: not when
// the watermark passes the row (a right row up to 10 s younger may still come
// and is not late), but when it passes the row by the band. Until PR 30 the
// row came out at the first of these epochs, and the right row of the third
// found nothing to match.
func TestOuterJoinPadsARowOnceTheBandHasPassed(t *testing.T) {
	j := joinEvictFixtureOp()
	_, store := joinStore(t, state.BackendMemory)
	row := func(key string, ts int64) sql.Row { return joinRow([]sql.Value{key}, ts, sql.Row{key, ts}) }
	for epoch, c := range []struct {
		watermark   int64
		left, right []sql.Row
		want        []string
	}{
		{0, []sql.Row{row("gone", 100*sec), row("kept", 100*sec)}, nil, nil},
		{101 * sec, nil, nil, nil}, // behind the watermark, inside the band
		{110 * sec, nil, []sql.Row{row("kept", 110*sec)}, []string{"[kept, 100000000, kept, 110000000]"}}, // not late, 10 s on: the band's end
		{111 * sec, nil, nil, []string{"[gone, 100000000, NULL, NULL]"}},                                  // 100 s < 111 s − 10 s
		{200 * sec, nil, nil, nil}, // "kept" matched: never padded
	} {
		out, err := j.Process(&EpochContext{Epoch: int64(epoch), Watermark: c.watermark, Mode: logical.Append}, store, [][]sql.Row{c.left, c.right})
		if err != nil {
			t.Fatal(err)
		}
		if got := rowStrings(out); len(got) != len(c.want) || len(got) == 1 && got[0] != c.want[0] {
			t.Fatalf("epoch %d (watermark %d s): emitted %v, want %v", epoch, c.watermark/sec, got, c.want)
		}
		if err := store.Commit(int64(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	if live := indexedBuffered(t, j, store); len(live) != 0 {
		t.Fatalf("rows left behind the watermark and the band: %v", live)
	}
}

// TestJoinContinuesCheckpointEvictedUnderOldRule: a checkpoint whose last
// epoch evicted at ts < W (the fixture of join_evict_fixture_gen_test.go) is
// continued, not refused — the layout and the meaning of 'w' are the same.
// What the old rule dropped stays dropped: the left row of "a" at 140 s went,
// padded, under the watermark of 143 s, so the right row of "a" at 148 s finds
// nothing, while "b" at 145 s, which both rules kept, matches. And nothing the
// old rule left behind is skipped by the new rule's scan, which starts a band
// below the stored watermark: the store drains.
func TestJoinContinuesCheckpointEvictedUnderOldRule(t *testing.T) {
	store, j := copyJoinFixture(t, "pr29-join-evicted", joinEvictFixtureEpochs), joinEvictFixtureOp()
	row := func(key string, ts int64) sql.Row { return joinRow([]sql.Value{key}, ts, sql.Row{key, ts}) }
	live := indexedBuffered(t, j, store)
	if len(live) != 2 || live[0].ts != 145*sec || live[1].ts != 144*sec {
		t.Fatalf("the fixture holds %v, want the left row at 145 s and the right row at 144 s", live)
	}
	e := int64(joinEvictFixtureEpochs)
	out, err := j.Process(&EpochContext{Epoch: e, Watermark: 146 * sec, Mode: logical.Append}, store,
		[][]sql.Row{nil, {row("a", 148*sec), row("b", 149*sec)}})
	if err != nil {
		t.Fatalf("continuing the old-rule checkpoint: %v", err)
	}
	if got := rowStrings(out); len(got) != 1 || got[0] != "[b, 145000000, b, 149000000]" {
		t.Fatalf("emitted %v, want the one pair of b", got)
	}
	if err := store.Commit(e); err != nil {
		t.Fatal(err)
	}
	// The right row at 144 s is behind 146 s; the left row at 145 s stays
	// until 155 s have passed.
	if live = indexedBuffered(t, j, store); len(live) != 3 || live[0].ts != 145*sec {
		t.Fatalf("after one epoch under the new rule the store holds %v", live)
	}
	if out, err = j.Process(&EpochContext{Epoch: e + 1, Watermark: 160 * sec, Mode: logical.Append}, store, [][]sql.Row{nil, nil}); err != nil || len(out) != 0 {
		t.Fatalf("draining: %v, %v", rowStrings(out), err)
	}
	if err := store.Commit(e + 1); err != nil {
		t.Fatal(err)
	}
	if live = indexedBuffered(t, j, store); len(live) != 0 {
		t.Fatalf("rows skipped by the eviction scan: %v", live)
	}
}
