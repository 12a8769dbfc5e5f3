package engine

import (
	"slices"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/physical"
)

// batchOracle is the paper's prefix consistency (§4.2) as a golden: after
// every epoch, the sink of a single-source streaming query must equal the
// batch query — physical.Compile, the engine's batch path, which shares no
// code with the incremental operators — over the rows consumed so far,
// without those the watermark dropped as late. The watermark is modelled
// here, not read off the engine: an epoch runs under the largest event time
// of all earlier epochs minus the delay, never regressing, and 0 means none
// yet. A row is late when its event-time grouping key has already expired
// under it — a window once its end ≤ the watermark, a timestamp once it is
// < the watermark. In Append mode an aggregate's groups reach the sink only
// once finalized, that is expired under the watermark after the newest
// epoch (the engine runs one more epoch when the watermark moves, so it
// finalizes under that one). Rows compare as multisets.
type batchOracle struct {
	plan logical.Plan // analyzed and optimized
	mode logical.OutputMode
	// ts is the source column the watermark reads, -1 without one, and
	// delay its lateness bound.
	ts    int
	delay int64
	// expires: the grouping — an aggregate's keys, a dedup's columns —
	// includes the event time, so late rows drop. key is that key's output
	// column in an aggregate (-1 otherwise) and window its tumbling window
	// size, 0 for the raw timestamp.
	expires bool
	key     int
	window  int64

	wm    int64 // the watermark the next epoch runs under
	maxTs int64 // the largest event time consumed, -1 before any
	kept  []sql.Row
}

// newBatchOracle reads the plan's watermark and event-time key. It models
// the shapes the differential suites run: at most one watermark, directly
// over the scan, and a grouping on a tumbling window of its column or on
// the column itself.
func newBatchOracle(t *testing.T, plan logical.Plan, mode logical.OutputMode) *batchOracle {
	t.Helper()
	analyzed, err := analysis.Analyze(plan)
	if err != nil {
		t.Fatalf("oracle: analyze: %v", err)
	}
	o := &batchOracle{plan: optimizer.Optimize(analyzed), mode: mode, ts: -1, key: -1, maxTs: -1}
	var nodes []logical.Plan
	var walk func(p logical.Plan)
	walk = func(p logical.Plan) {
		nodes = append(nodes, p)
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(plan)
	column := ""
	for _, p := range nodes {
		if n, ok := p.(*logical.WithWatermark); ok {
			scan, ok := n.Child.(*logical.Scan)
			if !ok || column != "" {
				t.Fatal("oracle: only one watermark, directly over the scan, is modelled")
			}
			if o.ts, err = scan.Out.Resolve(n.Column); err != nil {
				t.Fatalf("oracle: %v", err)
			}
			column, o.delay = n.Column, n.Delay
		}
	}
	isColumn := func(e sql.Expr) bool {
		c, ok := e.(*sql.Column)
		return ok && column != "" && c.Name == column
	}
	for _, p := range nodes {
		switch n := p.(type) {
		case *logical.Aggregate:
			for i, k := range n.Keys {
				if w, ok := k.(*sql.WindowExpr); ok && isColumn(w.Time) {
					if w.Slide != w.Size {
						t.Fatal("oracle: sliding windows are not modelled")
					}
					o.key, o.window = i, w.Size
				} else if isColumn(k) {
					o.key = i
				}
			}
			o.expires = o.key >= 0
		case *logical.Distinct:
			o.expires = column != "" && (n.Cols == nil || slices.Contains(n.Cols, column))
		}
	}
	if o.mode == logical.Complete && o.expires {
		t.Fatal("oracle: Complete mode over an expiring grouping is not modelled")
	}
	return o
}

// expired reports whether an event-time key has passed wm: a window by its
// end, a timestamp by itself.
func (o *batchOracle) expired(key int64, wm int64) bool {
	if o.window > 0 {
		return wm > 0 && key <= wm
	}
	return wm > 0 && key < wm
}

// epoch consumes one engine epoch's input rows.
func (o *batchOracle) epoch(rows []sql.Row) {
	for _, r := range rows {
		ts, ok := int64(0), false
		if o.ts >= 0 {
			ts, ok = r[o.ts].(int64)
		}
		if !ok { // no event time: never late
			o.kept = append(o.kept, r)
			continue
		}
		o.maxTs = max(o.maxTs, ts)
		key := ts
		if o.window > 0 {
			key = ts - ((ts%o.window)+o.window)%o.window + o.window // the window's end
		}
		if !o.expires || !o.expired(key, o.wm) {
			o.kept = append(o.kept, r)
		}
	}
	o.wm = max(o.wm, o.maxTs-o.delay) // maxTs -1 (nothing yet) never beats wm ≥ 0
}

// check holds the sink's rows to the batch query over the kept prefix.
func (o *batchOracle) check(t *testing.T, sink []sql.Row, context string) {
	t.Helper()
	op, err := physical.Compile(o.plan, func(s *logical.Scan) (physical.RowSource, error) {
		if static, ok := s.Handle.([]sql.Row); ok && !s.Streaming {
			return physical.NewSliceSource(s.Out, static), nil // a stream-static join's table
		}
		return physical.NewSliceSource(s.Out, o.kept), nil
	})
	if err != nil {
		t.Fatalf("oracle: compile: %v", err)
	}
	want, err := physical.Drain(op)
	if err != nil {
		t.Fatalf("oracle: batch run: %v", err)
	}
	if o.mode == logical.Append && o.key >= 0 {
		want = slices.DeleteFunc(want, func(r sql.Row) bool {
			switch k := r[o.key].(type) {
			case sql.Window:
				return !o.expired(k.End, o.wm)
			case int64:
				return !o.expired(k, o.wm)
			}
			return true // a NULL key never expires
		})
	}
	got, exp := sortedStrings(sink), sortedStrings(want)
	for i := 0; i < len(got) || i < len(exp); i++ {
		switch {
		case i >= len(got):
			t.Fatalf("%s: the sink lacks %s, which the batch query over the prefix has (%d rows, want %d)", context, exp[i], len(got), len(exp))
		case i >= len(exp):
			t.Fatalf("%s: the sink has %s, which the batch query over the prefix lacks (%d rows, want %d)", context, got[i], len(got), len(exp))
		case got[i] != exp[i]:
			t.Fatalf("%s: sorted row %d is %s, the batch query over the prefix has %s", context, i, got[i], exp[i])
		}
	}
}
