package physical

import (
	"structream/internal/sql"
	"structream/internal/sql/codec"
)

// HashAggregator is the shared hash-aggregation core: a map from encoded
// group key to per-aggregate buffers. The batch aggregate operator, the
// map-side partial aggregation used before shuffles, and the streaming
// StatefulAggregate all drive this structure.
type HashAggregator struct {
	keyEvals []func(sql.Row) sql.Value
	aggs     []sql.BoundAgg
	groups   map[string]*Group
	order    []string // insertion order for deterministic output
	scratch  []sql.Value
	enc      *codec.Encoder
}

// Group is one aggregation group: its key values and aggregate buffers.
type Group struct {
	Key     []sql.Value
	Buffers []sql.AggBuffer
}

// NewHashAggregator builds an aggregator for the given bound keys and
// aggregates.
func NewHashAggregator(keyEvals []func(sql.Row) sql.Value, aggs []sql.BoundAgg) *HashAggregator {
	return &HashAggregator{
		keyEvals: keyEvals,
		aggs:     aggs,
		groups:   map[string]*Group{},
		scratch:  make([]sql.Value, len(keyEvals)),
		enc:      codec.NewEncoder(64),
	}
}

// Update folds one input row into its group, creating the group on first
// sight. The encoded key is reused across rows; existing-group lookups do
// not allocate.
func (h *HashAggregator) Update(row sql.Row) {
	for i, e := range h.keyEvals {
		h.scratch[i] = e(row)
	}
	h.enc.Reset()
	for _, v := range h.scratch {
		h.enc.PutValue(v)
	}
	g, ok := h.groups[string(h.enc.Bytes())]
	if !ok {
		key := append([]sql.Value(nil), h.scratch...)
		g = &Group{Key: key, Buffers: make([]sql.AggBuffer, len(h.aggs))}
		for i, a := range h.aggs {
			g.Buffers[i] = a.NewBuffer()
		}
		ks := string(h.enc.Bytes())
		h.groups[ks] = g
		h.order = append(h.order, ks)
	}
	for i, a := range h.aggs {
		if a.Input == nil {
			g.Buffers[i].Update(nil) // count(*)
			continue
		}
		v := a.Input(row)
		if v == nil {
			continue // SQL aggregates skip NULL inputs
		}
		g.Buffers[i].Update(v)
	}
}

// MergeGroup folds a partial group (same agg layout) into this aggregator,
// used on the reduce side of a partial aggregation.
func (h *HashAggregator) MergeGroup(key []sql.Value, buffers []sql.AggBuffer) {
	ks := codec.KeyString(key)
	g, ok := h.groups[ks]
	if !ok {
		g = &Group{Key: key, Buffers: buffers}
		h.groups[ks] = g
		h.order = append(h.order, ks)
		return
	}
	for i := range g.Buffers {
		g.Buffers[i].Merge(buffers[i])
	}
}

// Len returns the number of groups.
func (h *HashAggregator) Len() int { return len(h.groups) }

// Groups returns the groups in first-seen order.
func (h *HashAggregator) Groups() []*Group {
	out := make([]*Group, len(h.order))
	for i, ks := range h.order {
		out[i] = h.groups[ks]
	}
	return out
}

// ResultRow renders one group as an output row: key values then aggregate
// results.
func (h *HashAggregator) ResultRow(g *Group) sql.Row {
	row := make(sql.Row, 0, len(g.Key)+len(g.Buffers))
	row = append(row, g.Key...)
	for _, b := range g.Buffers {
		row = append(row, b.Result())
	}
	return row
}

// ---------------------------------------------------------------- operator

// aggOp is the blocking batch hash-aggregate operator.
type aggOp struct {
	child  Operator
	agg    *HashAggregator
	schema sql.Schema
	done   bool
	// globalIfEmpty emits one all-NULL/zero row for grand aggregates over
	// empty input (SQL semantics for aggregation without GROUP BY).
	globalIfEmpty bool
}

// NewAggregate builds a hash-aggregate operator. keyEvals/aggs must be
// bound against child's schema; schema is the output schema.
func NewAggregate(child Operator, schema sql.Schema, keyEvals []func(sql.Row) sql.Value, aggs []sql.BoundAgg) Operator {
	return &aggOp{
		child:         child,
		agg:           NewHashAggregator(keyEvals, aggs),
		schema:        schema,
		globalIfEmpty: len(keyEvals) == 0,
	}
}

func (a *aggOp) Schema() sql.Schema { return a.schema }
func (a *aggOp) Open() error        { return a.child.Open() }

func (a *aggOp) Next() ([]sql.Row, error) {
	if a.done {
		return nil, nil
	}
	for {
		batch, err := a.child.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		for _, r := range batch {
			a.agg.Update(r)
		}
	}
	a.done = true
	if a.agg.Len() == 0 && a.globalIfEmpty {
		// Seed the single global group with fresh buffers so the operator
		// emits one row (count(*)=0, sum=NULL, ...) over empty input.
		buffers := make([]sql.AggBuffer, len(a.agg.aggs))
		for i, ba := range a.agg.aggs {
			buffers[i] = ba.NewBuffer()
		}
		a.agg.MergeGroup(nil, buffers)
	}
	groups := a.agg.Groups()
	out := make([]sql.Row, len(groups))
	for i, g := range groups {
		out[i] = a.agg.ResultRow(g)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

func (a *aggOp) Close() error { return a.child.Close() }
