package incremental

import (
	"math"

	"structream/internal/sql"
)

// The time band of a stream-stream join: the constant interval its condition
// implies for right event time − left event time (joinTimeBand, from the
// planner), and what the operator makes of it — the width of the time buckets
// its state is grouped by, the window of event times a row can match, the
// buckets a probe reads and how far behind the watermark a side's rows are
// kept.

// TimeBand bounds rightTs − leftTs: Lo ≤ rightTs − leftTs ≤ Hi, in µs.
// math.MinInt64 and math.MaxInt64 leave an end open.
type TimeBand struct{ Lo, Hi int64 }

// minJoinBucket keeps a band narrower than the rows of one key are apart
// from costing a header per buffered row.
const minJoinBucket = 1_000_000 // µs

// bucketWidth is the width of the time buckets the state is grouped by: no
// less than the band's, so that the rows one row can match lie in at most two
// of them. 0 — one bucket for everything — unless both ends are finite.
func (j *StreamStreamJoin) bucketWidth() int64 {
	b := j.Band
	if b == nil || b.Lo == math.MinInt64 || b.Hi == math.MaxInt64 {
		return 0
	}
	if b.Hi < b.Lo {
		return minJoinBucket // nothing matches; any width will do
	}
	return int64(min(max(uint64(b.Hi)-uint64(b.Lo), minJoinBucket), math.MaxInt64))
}

// bucketOf is the bucket a row lives in: 0 for every row of an unbucketed
// join and for rows without a (non-negative) event time, which no watermark
// ever reaches; 1 + ts/width otherwise.
func bucketOf(width, ts int64) uint64 {
	if width == 0 || ts < 0 {
		return 0
	}
	return 1 + uint64(ts/width)
}

// window is the range of the other side's event times that a row of side s
// at ts can match.
func (j *StreamStreamJoin) window(s int, ts int64) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	if b := j.Band; b != nil && s == 0 {
		if b.Lo > math.MinInt64 {
			lo = satAdd(ts, b.Lo)
		}
		if b.Hi < math.MaxInt64 {
			hi = satAdd(ts, b.Hi)
		}
	} else if b != nil {
		if b.Hi < math.MaxInt64 {
			lo = satAdd(ts, -b.Hi)
		}
		if b.Lo > math.MinInt64 {
			hi = satAdd(ts, -b.Lo)
		}
	}
	return lo, hi
}

// evictLag is how far behind the watermark W side s's rows are kept (µs): a
// row is evicted when ts < W − evictLag(s). With lo ≤ rightTs − leftTs ≤ hi
// and every future right row at rightTs ≥ W, a left row can still be matched
// while leftTs ≥ W − hi, and by symmetry a right row while rightTs ≥ W + lo
// (Spark's per-side state watermark, §5.2): the lag is hi on the left and −lo
// on the right, when that end of the band is finite, and never negative — a
// band that lies wholly ahead evicts at ts < W as before. An open end says a
// row of that side can be matched forever; holding it forever is not on
// offer, so the unbounded side of a one-sided band, and both sides of a join
// without a band, keep ts < W.
func (j *StreamStreamJoin) evictLag(s int) int64 {
	switch b := j.Band; {
	case b != nil && s == 0 && b.Hi < math.MaxInt64:
		return max(b.Hi, 0)
	case b != nil && s == 1 && b.Lo > math.MinInt64:
		return max(-b.Lo, 0)
	}
	return 0
}

// satAdd is a + b, held at the end of int64 it would pass.
func satAdd(a, b int64) int64 {
	if c := a + b; (c > a) == (b > 0) {
		return c
	} else if b > 0 {
		return math.MaxInt64
	}
	return math.MinInt64
}

// timeBuckets is the range of time buckets [lo, hi] overlaps, first > last
// when there is none.
func timeBuckets(width, lo, hi int64) (first, last uint64) {
	if width == 0 || hi < 0 || hi < lo {
		return 1, 0
	}
	return bucketOf(width, max(lo, 0)), bucketOf(width, hi)
}

// reach is the buckets of the other side a row whose window is [lo, hi]
// probes — for b := from; b <= last; b = max(b+1, first) — bucket 0 when
// that side may hold it (zero), then the time buckets the window overlaps:
// at most two, the width being the band's.
func reach(width, lo, hi int64, zero bool) (from, first, last uint64) {
	first, last = timeBuckets(width, lo, hi)
	if from = first; zero {
		from = 0
	}
	return from, first, last
}

// bandDecides reports whether the band alone decides a pair of event times a
// and b inside it: the band is exact and both times are known and within the
// range where the residual's arithmetic is.
func (j *StreamStreamJoin) bandDecides(a, b int64) bool {
	return j.BandExact && uint64(a) < maxBandOffset && uint64(b) < maxBandOffset
}

// maxBandOffset bounds the interval literals joinTimeBand reads, so that the
// band's arithmetic cannot overflow; a literal beyond it contributes no bound.
const maxBandOffset = 1 << 61

// joinTimeBand derives the constant interval that residual's conjuncts imply
// for rightTs − leftTs, the event-time columns at leftTs and rightTs of the
// concatenated schema; nil when no conjunct bounds the difference. A conjunct
// counts when it compares (>=, >, <=, <, =) one of the two columns with the
// other, each bare or offset by an interval literal (col + i, i + col,
// col − i). Anything else — an OR, another column, a cast — contributes no
// bound, which is always sound: the band only excludes pairs that some
// conjunct rejects. exact reports that every conjunct counted: the residual
// is the band, so a pair inside it whose event times are both known is a
// match. Both take the residual's arithmetic to be exact, which it is for
// event times within ±2^61 µs.
func joinTimeBand(residual sql.Expr, concat sql.Schema, leftTs, rightTs int) (band *TimeBand, exact bool) {
	// operand reads e as one of the two columns plus a constant.
	operand := func(e sql.Expr) (right bool, off int64, ok bool) {
		if b, isBin := e.(*sql.Binary); isBin && (b.Op == sql.OpAdd || b.Op == sql.OpSub) {
			col, lit := b.L, b.R
			if _, litFirst := col.(*sql.Literal); litFirst && b.Op == sql.OpAdd {
				col, lit = lit, col
			}
			l, isLit := lit.(*sql.Literal)
			if !isLit || l.Type != sql.TypeInterval {
				return false, 0, false
			}
			if off, ok = l.Val.(int64); !ok || off < -maxBandOffset || off > maxBandOffset {
				return false, 0, false
			}
			if b.Op == sql.OpSub {
				off = -off
			}
			e = col
		}
		c, isCol := e.(*sql.Column)
		if !isCol {
			return false, 0, false
		}
		idx, err := concat.Resolve(c.Name)
		return idx == rightTs, off, err == nil && (idx == leftTs || idx == rightTs)
	}
	b, conjuncts, counted := TimeBand{Lo: math.MinInt64, Hi: math.MaxInt64}, sql.SplitConjuncts(residual), 0
	for _, c := range conjuncts {
		cmp, ok := c.(*sql.Binary)
		if !ok {
			continue
		}
		xRight, x, xok := operand(cmp.L)
		yRight, y, yok := operand(cmp.R)
		if !xok || !yok || xRight == yRight {
			continue
		}
		// right + x ≥ left + y  ⇔  right − left ≥ y − x: a lower bound; with
		// the sides the other way round it bounds the other end by x − y.
		var lower, upper bool
		switch cmp.Op {
		case sql.OpGe, sql.OpGt:
			lower = true
		case sql.OpLe, sql.OpLt:
			upper = true
		case sql.OpEq:
			lower, upper = true, true
		default:
			continue
		}
		counted++
		d, strict := y-x, int64(0)
		if cmp.Op == sql.OpGt || cmp.Op == sql.OpLt {
			strict = 1
		}
		if !xRight {
			d, lower, upper = x-y, upper, lower
		}
		if lower {
			b.Lo = max(b.Lo, d+strict)
		}
		if upper {
			b.Hi = min(b.Hi, d-strict)
		}
	}
	if b.Lo == math.MinInt64 && b.Hi == math.MaxInt64 {
		return nil, false
	}
	return &b, counted == len(conjuncts)
}
