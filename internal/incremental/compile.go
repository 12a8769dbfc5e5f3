package incremental

import (
	"fmt"

	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/physical"
	"structream/internal/sql/vec"
)

// Compile incrementalizes an analyzed, optimized streaming plan for the
// given output mode. resolveStatic materializes static-table scans (for
// stream-static joins and batch subplans). The caller must already have
// run analysis.CheckStreaming.
func Compile(plan logical.Plan, mode logical.OutputMode, resolveStatic physical.ScanResolver) (*Query, error) {
	c := &compiler{resolveStatic: resolveStatic, watermarks: analysis.Watermarks(plan)}

	boundary := findBoundary(plan)
	if err := c.checkSingleBoundary(plan, boundary); err != nil {
		return nil, err
	}

	q := &Query{Mode: mode}
	var stageSchema sql.Schema

	if boundary == nil {
		// Map-only query: the whole plan is stateless.
		pipes, schema, err := c.stateless(plan)
		if err != nil {
			return nil, err
		}
		q.Pipelines = pipes
		q.OutSchema = schema
		q.Post = func(rows []sql.Row) ([]sql.Row, error) { return rows, nil }
		c.finish(q)
		return q, nil
	}

	// Compile the stateful stage.
	var op StatefulOp
	var keyArity int
	var err error
	switch b := boundary.(type) {
	case *logical.Aggregate:
		op, keyArity, err = c.compileAggregate(b, q)
	case *logical.Distinct:
		op, err = c.compileDistinct(b, q)
	case *logical.MapGroups:
		op, err = c.compileMapGroups(b, q)
		// When the user's output schema leads with the grouping keys (by
		// name), update-mode sinks can upsert per key.
		if err == nil && len(b.KeyNames) > 0 && b.Out.Len() >= len(b.KeyNames) {
			match := true
			for i, kn := range b.KeyNames {
				if baseName(b.Out.Field(i).Name) != baseName(kn) {
					match = false
					break
				}
			}
			if match {
				keyArity = len(b.KeyNames)
			}
		}
	case *logical.Join:
		op, err = c.compileStreamStreamJoin(b, q)
	default:
		err = fmt.Errorf("incremental: unexpected boundary %T", boundary)
	}
	if err != nil {
		return nil, err
	}
	q.Stateful = op
	stageSchema = op.OutputSchema()

	// Compile the post segment: the plan above the boundary, re-rooted on a
	// marker scan that the driver feeds with the stage's output each epoch.
	marker := &logical.Scan{Name: "__stage__", Out: stageSchema}
	abovePlan := replaceNode(plan, boundary, marker)
	postIdentity := abovePlan == logical.Plan(marker)
	outSchema, err := abovePlan.Schema()
	if err != nil {
		return nil, err
	}
	q.OutSchema = outSchema
	q.Post = func(rows []sql.Row) ([]sql.Row, error) {
		if postIdentity {
			// Nothing above the boundary: the stage's rows are the result,
			// and need no operator tree to copy them out of.
			return rows, nil
		}
		resolver := func(s *logical.Scan) (physical.RowSource, error) {
			if s == marker {
				return physical.NewSliceSource(stageSchema, rows), nil
			}
			if c.resolveStatic == nil {
				return nil, fmt.Errorf("incremental: no resolver for table %s", s.Name)
			}
			return c.resolveStatic(s)
		}
		compiled, err := physical.Compile(abovePlan, resolver)
		if err != nil {
			return nil, err
		}
		return physical.Drain(compiled)
	}

	// Update-mode sinks upsert by key; that only works when the post
	// segment preserves the grouping keys as the leading output columns.
	if keyArity > 0 && (postIdentity || keysAreOutputPrefix(abovePlan, marker, stageSchema, keyArity)) {
		q.KeyArity = keyArity
	}
	c.finish(q)
	return q, nil
}

func (c *compiler) finish(q *Query) {
	for _, p := range q.Pipelines {
		if p.WatermarkEval != nil {
			q.HasWatermark = true
		}
		// Drop vector plans that cover nothing: a bare scan gains nothing
		// from the columnar detour, and a nil Vec is the engine's signal
		// to stay on the row path.
		if p.Vec != nil && len(p.Vec.Ops) == 0 && p.Vec.Agg == nil && p.Vec.Join == nil {
			p.Vec = nil
		}
		p.SourceCols = p.reads.columns(p)
	}
}

// sourceReads accumulates, while the compiler walks a pipeline up from its
// scan, which source columns the stages read. Until a stage narrows the row
// (a projection, or the terminal aggregate, replaces the source columns
// with its own outputs) the source columns sit at their own positions in
// every stage's input schema, so a column reference that resolves below
// the source arity names a source column; after it, no stage can reach one.
type sourceReads struct {
	need []bool // by source column
	// narrowedAt is the index of the narrowing stage, -1 while the source
	// columns are still flowing.
	narrowedAt int
}

func newSourceReads(arity int) *sourceReads {
	return &sourceReads{need: make([]bool, arity), narrowedAt: -1}
}

func (r *sourceReads) all() {
	if r.narrowedAt < 0 {
		for c := range r.need {
			r.need[c] = true
		}
	}
}

// noteReads records the columns the stage just appended to pipes reads
// through exprs, bound against the stage's input schema; narrows marks the
// stage as replacing the row.
func noteReads(pipes []*Pipeline, schema sql.Schema, narrows bool, exprs ...sql.Expr) {
	for _, p := range pipes {
		r := p.reads
		if r.narrowedAt >= 0 {
			continue
		}
		for _, e := range exprs {
			sql.WalkExpr(e, func(x sql.Expr) {
				if col, ok := x.(*sql.Column); ok {
					if idx, err := schema.Resolve(col.Name); err == nil && idx < len(r.need) {
						r.need[idx] = true
					}
				}
			})
		}
		if narrows {
			r.narrowedAt = len(p.Stages) - 1
		}
	}
}

// columns is the pipeline's SourceCols: the columns read up to the narrowing
// stage plus the watermark column, or nil (every column) when the vector
// plan stops short of that stage — rows then materialize from the source
// batch at full width — or nothing narrows at all.
func (r *sourceReads) columns(p *Pipeline) []int {
	if p.Vec == nil || r.narrowedAt < 0 {
		return nil
	}
	covered := len(p.Vec.Ops)
	if p.Vec.Agg != nil || p.Vec.Join != nil {
		covered++
	}
	if r.narrowedAt >= covered {
		return nil
	}
	var cols []int
	for c, needed := range r.need {
		if needed || c == p.WatermarkIdx {
			cols = append(cols, c)
		}
	}
	if len(cols) == len(r.need) {
		return nil
	}
	return cols
}

// compiler holds shared compile state.
type compiler struct {
	resolveStatic physical.ScanResolver
	watermarks    []analysis.WatermarkSpec
	opSeq         int
}

func (c *compiler) nextOpName(kind string) string {
	c.opSeq++
	return fmt.Sprintf("%s-%d", kind, c.opSeq)
}

// isWatermarked reports whether the named schema column carries a declared
// watermark.
func (c *compiler) isWatermarked(name string) bool {
	name = baseName(name)
	for _, w := range c.watermarks {
		if baseName(w.Column) == name {
			return true
		}
	}
	return false
}

func baseName(s string) string {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return s[i+1:]
		}
	}
	return s
}

// findBoundary returns the topmost stateful streaming operator, or nil.
func findBoundary(p logical.Plan) logical.Plan {
	if isStatefulBoundary(p) {
		return p
	}
	for _, ch := range p.Children() {
		if b := findBoundary(ch); b != nil {
			return b
		}
	}
	return nil
}

func isStatefulBoundary(p logical.Plan) bool {
	if !logical.IsStreaming(p) {
		return false
	}
	switch n := p.(type) {
	case *logical.Aggregate, *logical.Distinct, *logical.MapGroups:
		return true
	case *logical.Join:
		return logical.IsStreaming(n.Left) && logical.IsStreaming(n.Right)
	}
	return false
}

// checkSingleBoundary rejects plans with more than one stateful streaming
// operator — the incrementalizer (like early Spark releases) supports a
// single stateful stage per query; §5.2 calls incrementalization "an active
// area of work".
func (c *compiler) checkSingleBoundary(plan, boundary logical.Plan) error {
	count := 0
	logical.Walk(plan, func(p logical.Plan) {
		if isStatefulBoundary(p) {
			count++
		}
	})
	if count > 1 {
		return fmt.Errorf("incremental: query contains %d stateful operators; only one stateful stage per streaming query is supported (chain queries through a message-bus sink and a second query instead)", count)
	}
	return nil
}

// replaceNode rebuilds the plan with the (pointer-identical) old node
// swapped for repl.
func replaceNode(plan, old, repl logical.Plan) logical.Plan {
	if plan == old {
		return repl
	}
	children := plan.Children()
	if len(children) == 0 {
		return plan
	}
	newChildren := make([]logical.Plan, len(children))
	changed := false
	for i, ch := range children {
		newChildren[i] = replaceNode(ch, old, repl)
		if newChildren[i] != ch {
			changed = true
		}
	}
	if !changed {
		return plan
	}
	return plan.WithChildren(newChildren)
}

// keysAreOutputPrefix checks that the post plan is a projection over the
// marker whose first keyArity expressions are exactly the stage's key
// columns, so update-mode upserts stay keyed correctly.
func keysAreOutputPrefix(above logical.Plan, marker *logical.Scan, stageSchema sql.Schema, keyArity int) bool {
	proj, ok := above.(*logical.Project)
	if !ok || proj.Child != logical.Plan(marker) {
		return false
	}
	if len(proj.Exprs) < keyArity {
		return false
	}
	for i := 0; i < keyArity; i++ {
		e := proj.Exprs[i]
		if a, isAlias := e.(*sql.Alias); isAlias {
			e = a.Child
		}
		col, isCol := e.(*sql.Column)
		if !isCol || baseName(col.Name) != baseName(stageSchema.Field(i).Name) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- stateless

// stateless compiles the plan segment below the stateful boundary into
// per-source pipelines, returning them plus the segment's output schema.
func (c *compiler) stateless(p logical.Plan) ([]*Pipeline, sql.Schema, error) {
	switch n := p.(type) {
	case *logical.Scan:
		if !n.Streaming {
			return nil, sql.Schema{}, fmt.Errorf("incremental: static table %s outside a join is not a stream", n.Name)
		}
		return []*Pipeline{{SourceName: n.Name, WatermarkIdx: -1, Vec: &VecPlan{}, reads: newSourceReads(n.Out.Len())}}, n.Out, nil

	case *logical.SubqueryAlias:
		pipes, schema, err := c.stateless(n.Child)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		_ = schema
		out, err := n.Schema()
		return pipes, out, err

	case *logical.Filter:
		pipes, schema, err := c.stateless(n.Child)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		b, err := n.Cond.Bind(schema)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		pred := b.Eval
		appendStage(pipes, func(next RowEmit) (RowEmit, func()) {
			return func(r sql.Row) {
				if keep, ok := pred(r).(bool); ok && keep {
					next(r)
				}
			}, nil
		})
		var vop physical.VecOp
		if prog, ok := vec.Compile(n.Cond, schema); ok {
			vop = physical.NewVecFilter(prog)
		}
		noteReads(pipes, schema, false, n.Cond)
		appendVec(pipes, vop)
		return pipes, schema, nil

	case *logical.Project:
		pipes, schema, err := c.stateless(n.Child)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		evals, outSchema, err := physical.BindProjection(n.Exprs, schema)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		width := len(evals)
		appendStage(pipes, func(next RowEmit) (RowEmit, func()) {
			arena := physical.NewRowArena(width)
			return func(r sql.Row) {
				nr := arena.Next()
				for j, e := range evals {
					nr[j] = e(r)
				}
				next(nr)
			}, nil
		})
		var vop physical.VecOp
		if progs, ok := vec.CompileAll(n.Exprs, schema); ok {
			vop = physical.NewVecProject(progs, outSchema)
		}
		noteReads(pipes, schema, true, n.Exprs...)
		appendVec(pipes, vop)
		return pipes, outSchema, nil

	case *logical.WindowAssign:
		pipes, schema, err := c.stateless(n.Child)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		t, err := n.Window.Time.Bind(schema)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		timeEval := t.Eval
		w := n.Window
		tumbling := w.Size == w.Slide
		size, slide := w.Size, w.Slide
		width := schema.Len() + 1
		appendStage(pipes, func(next RowEmit) (RowEmit, func()) {
			arena := physical.NewRowArena(width)
			var cachedStart int64 = -1 << 62
			var cached sql.Value
			return func(r sql.Row) {
				ts, ok := timeEval(r).(int64)
				if !ok {
					return // NULL event times drop, as in Spark
				}
				if tumbling {
					start := ts - ((ts%slide)+slide)%slide
					if start != cachedStart {
						cachedStart = start
						cached = sql.Window{Start: start, End: start + size}
					}
					nr := arena.Next()
					copy(nr, r)
					nr[len(r)] = cached
					next(nr)
					return
				}
				for _, win := range w.Windows(ts) {
					nr := arena.Next()
					copy(nr, r)
					nr[len(r)] = win
					next(nr)
				}
			}, nil
		})
		out, err := n.Schema()
		if err != nil {
			return nil, sql.Schema{}, err
		}
		var vop physical.VecOp
		if tumbling {
			// Sliding windows explode rows and stay on the row path.
			if prog, ok := vec.Compile(n.Window.Time, schema); ok && vec.KindOf(prog.Type) == vec.KindInt64 {
				vop = physical.NewVecWindow(prog, w, out)
			}
		}
		noteReads(pipes, schema, false, n.Window.Time)
		appendVec(pipes, vop)
		return pipes, out, nil

	case *logical.WithWatermark:
		pipes, schema, err := c.stateless(n.Child)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		// The watermark is tracked on raw source rows, so the column must
		// exist in each upstream source's schema (it virtually always does:
		// watermarks are declared on source timestamp columns).
		for _, pipe := range pipes {
			srcSchema, err := c.sourceSchema(p, pipe.SourceName)
			if err != nil {
				return nil, sql.Schema{}, err
			}
			idx, err := srcSchema.Resolve(n.Column)
			if err != nil {
				return nil, sql.Schema{}, fmt.Errorf("incremental: watermark column %q must be a source column: %v", n.Column, err)
			}
			i := idx
			pipe.WatermarkEval = func(r sql.Row) sql.Value { return r[i] }
			pipe.WatermarkIdx = i
			pipe.WatermarkDelay = n.Delay
		}
		return pipes, schema, nil

	case *logical.Union:
		left, ls, err := c.stateless(n.Left)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		right, _, err := c.stateless(n.Right)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		return append(left, right...), ls, nil

	case *logical.Join:
		leftStream := logical.IsStreaming(n.Left)
		rightStream := logical.IsStreaming(n.Right)
		if leftStream && rightStream {
			return nil, sql.Schema{}, fmt.Errorf("incremental: nested stream-stream join below another stateful operator is not supported")
		}
		if leftStream {
			return c.streamStaticJoin(n, true)
		}
		if rightStream {
			return c.streamStaticJoin(n, false)
		}
		return nil, sql.Schema{}, fmt.Errorf("incremental: join with no streaming side inside streaming segment")

	case *logical.Limit, *logical.Sort, *logical.Aggregate, *logical.Distinct, *logical.MapGroups:
		return nil, sql.Schema{}, fmt.Errorf("incremental: operator %T is not allowed below the stateful stage", p)

	default:
		return nil, sql.Schema{}, fmt.Errorf("incremental: unsupported streaming operator %T", p)
	}
}

// sourceSchema finds the scan schema for the named source below p.
func (c *compiler) sourceSchema(p logical.Plan, name string) (sql.Schema, error) {
	var found *logical.Scan
	logical.Walk(p, func(q logical.Plan) {
		if s, ok := q.(*logical.Scan); ok && s.Streaming && s.Name == name && found == nil {
			found = s
		}
	})
	if found == nil {
		return sql.Schema{}, fmt.Errorf("incremental: source %q not found", name)
	}
	return found.Out, nil
}

func appendStage(pipes []*Pipeline, f StageFactory) {
	for _, p := range pipes {
		p.Stages = append(p.Stages, f)
	}
}

// appendVec extends each pipeline's vector plan with the columnar twin of
// the stage appendStage just added. op == nil marks the stage
// non-vectorizable, which seals the plan: later vectorized stages cannot
// run before an uncovered row stage, so the columnar prefix stops growing
// there and ProcessBatchTo hands the remaining stages their rows.
func appendVec(pipes []*Pipeline, op physical.VecOp) {
	for _, p := range pipes {
		v := p.Vec
		if v == nil || v.sealed {
			continue
		}
		if op == nil || len(v.Ops)+1 != len(p.Stages) {
			v.sealed = true
			continue
		}
		v.Ops = append(v.Ops, op)
	}
}

// appendTerminal seals each pipeline's vector plan at the blocking terminal
// stage appendStage just added — the map-side partial aggregate, a join's
// cell rendering — letting end install the stage's columnar twin where the
// plan still covers every earlier stage; end == nil marks the stage
// non-vectorizable.
func appendTerminal(pipes []*Pipeline, end func(*VecPlan)) {
	for _, p := range pipes {
		if v := p.Vec; v != nil && !v.sealed {
			if end != nil && len(v.Ops)+1 == len(p.Stages) {
				end(v)
			}
			v.sealed = true
		}
	}
}

// streamStaticJoin compiles a broadcast hash join between a stream and a
// static table into a map-side batch function. The static side is
// materialized once per engine start (its hash table is broadcast to every
// task), matching Spark's behaviour of re-reading static data per run.
func (c *compiler) streamStaticJoin(n *logical.Join, streamIsLeft bool) ([]*Pipeline, sql.Schema, error) {
	streamChild, staticChild := n.Left, n.Right
	if !streamIsLeft {
		streamChild, staticChild = n.Right, n.Left
	}
	pipes, streamSchema, err := c.stateless(streamChild)
	if err != nil {
		return nil, sql.Schema{}, err
	}
	staticSchema, err := staticChild.Schema()
	if err != nil {
		return nil, sql.Schema{}, err
	}
	if c.resolveStatic == nil {
		return nil, sql.Schema{}, fmt.Errorf("incremental: stream-static join requires a static table resolver")
	}
	staticOp, err := physical.Compile(staticChild, c.resolveStatic)
	if err != nil {
		return nil, sql.Schema{}, err
	}
	staticRows, err := physical.Drain(staticOp)
	if err != nil {
		return nil, sql.Schema{}, err
	}

	leftSchema, rightSchema := streamSchema, staticSchema
	if !streamIsLeft {
		leftSchema, rightSchema = staticSchema, streamSchema
	}
	outSchema, err := n.Schema()
	if err != nil {
		return nil, sql.Schema{}, err
	}
	if n.Cond == nil {
		return nil, sql.Schema{}, fmt.Errorf("incremental: stream-static join requires a condition")
	}
	keys := physical.ExtractEquiKeys(n.Cond, leftSchema, rightSchema)
	if len(keys.Left) == 0 {
		return nil, sql.Schema{}, fmt.Errorf("incremental: stream-static join requires at least one equality predicate")
	}
	streamKeys, staticKeys := keys.Left, keys.Right
	if !streamIsLeft {
		streamKeys, staticKeys = keys.Right, keys.Left
	}
	streamKeyEvals, err := physical.BindKeyExprs(streamKeys, streamSchema)
	if err != nil {
		return nil, sql.Schema{}, err
	}
	staticKeyEvals, err := physical.BindKeyExprs(staticKeys, staticSchema)
	if err != nil {
		return nil, sql.Schema{}, err
	}
	var residual func(sql.Row) sql.Value
	if keys.Residual != nil {
		b, err := keys.Residual.Bind(leftSchema.Concat(rightSchema))
		if err != nil {
			return nil, sql.Schema{}, err
		}
		residual = b.Eval
	}

	// The broadcast table is built once at compile time and only read by
	// tasks; all per-task probe state lives inside the stage factory.
	spec := physical.BroadcastJoinSpec{
		Table:        physical.NewBroadcastTable(staticSchema, staticRows, staticKeyEvals),
		StreamIsLeft: streamIsLeft,
		Outer: n.Type == logical.LeftOuterJoin && streamIsLeft ||
			n.Type == logical.RightOuterJoin && !streamIsLeft,
		Semi:   n.Type == logical.LeftSemiJoin,
		Anti:   n.Type == logical.LeftAntiJoin,
		Joined: leftSchema.Concat(rightSchema),
	}
	table, outer, semi, anti := spec.Table, spec.Outer, spec.Semi, spec.Anti
	staticArity := staticSchema.Len()
	streamArity := streamSchema.Len()
	joinedWidth := streamArity + staticArity
	appendStage(pipes, func(next RowEmit) (RowEmit, func()) {
		probeKey := make([]sql.Value, len(streamKeyEvals))
		arena := physical.NewRowArena(joinedWidth)
		return func(sr sql.Row) {
			for i, e := range streamKeyEvals {
				probeKey[i] = e(sr)
			}
			matched := false
			for r := table.Lookup(probeKey); r >= 0; r = table.Next(r) {
				st := table.Rows[r]
				joined := arena.Next()
				if streamIsLeft {
					copy(joined, sr)
					copy(joined[streamArity:], st)
				} else {
					copy(joined, st)
					copy(joined[staticArity:], sr)
				}
				if residual != nil {
					if b, ok := residual(joined).(bool); !ok || !b {
						continue
					}
				}
				matched = true
				if semi || anti {
					break
				}
				next(joined)
			}
			switch {
			case semi && matched, anti && !matched:
				next(sr)
			case outer && !matched:
				joined := arena.Next()
				for i := range joined {
					joined[i] = nil
				}
				if streamIsLeft {
					copy(joined, sr)
				} else {
					copy(joined[staticArity:], sr)
				}
				next(joined)
			}
		}, nil
	})
	// The twin probes the same table with keys hashed straight off the
	// stream's key vectors. It needs the static side columnar and kernels
	// for the key expressions and the residual; anything else seals the plan.
	var vop physical.VecOp
	if keyProgs, ok := vec.CompileAll(streamKeys, streamSchema); ok && table.Cols != nil {
		var resid *vec.Program
		if keys.Residual != nil {
			resid, ok = vec.Compile(keys.Residual, spec.Joined)
		}
		if ok {
			vop = physical.NewVecBroadcastJoin(spec, keyProgs, resid)
		}
	}
	// The joined row carries every stream column (shifted, when the stream
	// is the right side), so a pipeline not yet narrowed reads them all.
	for _, p := range pipes {
		p.reads.all()
	}
	appendVec(pipes, vop)
	if semi || anti {
		return pipes, streamSchema, nil
	}
	return pipes, outSchema, nil
}

// ---------------------------------------------------------------- stages

func (c *compiler) compileAggregate(a *logical.Aggregate, q *Query) (StatefulOp, int, error) {
	pipes, childSchema, err := c.stateless(a.Child)
	if err != nil {
		return nil, 0, err
	}
	keyEvals, aggs, outSchema, err := physical.BindAggregate(a, childSchema)
	if err != nil {
		return nil, 0, err
	}
	op := &StatefulAggregate{
		OpName:      c.nextOpName("agg"),
		NumKeys:     len(a.Keys),
		Aggs:        aggs,
		EventKeyIdx: -1,
		Out:         outSchema,
	}
	// Locate the event-time key: a window-typed key, or a key over a
	// watermarked column.
	for i, k := range a.Keys {
		b, err := k.Bind(childSchema)
		if err != nil {
			return nil, 0, err
		}
		if b.Type == sql.TypeWindow {
			op.EventKeyIdx = i
			break
		}
		if name, ok := underlyingColumnName(k); ok && c.isWatermarked(name) {
			op.EventKeyIdx = i
		}
	}
	// Map-side partial aggregation is a blocking terminal stage: rows fold
	// into per-task buffers and the flush emits one shuffle row per group.
	appendStage(pipes, func(next RowEmit) (RowEmit, func()) {
		h := newPartialAgg(keyEvals, aggs)
		return h.update, func() {
			for _, row := range h.scatter(1)[0] {
				next(row)
			}
		}
	})
	// The aggregation itself vectorizes when its keys and inputs compile
	// to kernels AND the vector plan still covers every earlier stage —
	// otherwise rows would reach the columnar aggregator out of order with
	// the row stages.
	vecAgg := compileVecAgg(a, aggs, childSchema)
	aggReads := append([]sql.Expr(nil), a.Keys...)
	for _, na := range a.Aggs {
		if na.Agg.Child != nil {
			aggReads = append(aggReads, na.Agg.Child)
		}
	}
	noteReads(pipes, childSchema, true, aggReads...)
	var end func(*VecPlan)
	if vecAgg != nil {
		end = func(v *VecPlan) { v.Agg = vecAgg }
	}
	appendTerminal(pipes, end)
	keyIdxs := make([]int, len(a.Keys))
	for i := range keyIdxs {
		keyIdxs[i] = i
	}
	routeByCell(pipes, len(a.Keys), keyIdxs)
	q.Pipelines = pipes
	return op, len(a.Keys), nil
}

func (c *compiler) compileDistinct(d *logical.Distinct, q *Query) (StatefulOp, error) {
	pipes, schema, err := c.stateless(d.Child)
	if err != nil {
		return nil, err
	}
	keyIdxs, err := physical.ResolveColumns(d.Cols, schema)
	if err != nil {
		return nil, err
	}
	op := &StreamingDedup{OpName: c.nextOpName("dedup"), KeyIdxs: keyIdxs, EventIdx: -1, Out: schema}
	for i, f := range schema.Fields {
		if c.isWatermarked(f.Name) {
			op.EventIdx = i
		}
	}
	// Route by the duplicate key so every occurrence of a key lands on the
	// same state partition.
	if keyIdxs == nil {
		routeByLeadingColumns(pipes, schema.Len())
	} else {
		evals := make([]func(sql.Row) sql.Value, len(keyIdxs))
		for i, idx := range keyIdxs {
			idx := idx
			evals[i] = func(r sql.Row) sql.Value { return r[idx] }
		}
		for _, p := range pipes {
			p.KeyEvals = evals
			p.KeyIdxs = keyIdxs
		}
	}
	q.Pipelines = pipes
	return op, nil
}

func (c *compiler) compileMapGroups(m *logical.MapGroups, q *Query) (StatefulOp, error) {
	pipes, schema, err := c.stateless(m.Child)
	if err != nil {
		return nil, err
	}
	keyEvals, err := physical.BindKeyExprs(m.Keys, schema)
	if err != nil {
		return nil, err
	}
	nkeys := len(m.Keys)
	width := nkeys + schema.Len()
	appendStage(pipes, func(next RowEmit) (RowEmit, func()) {
		arena := physical.NewRowArena(width)
		return func(r sql.Row) {
			sr := arena.Next()
			for i, e := range keyEvals {
				sr[i] = e(r)
			}
			copy(sr[nkeys:], r)
			next(sr)
		}, nil
	})
	appendVec(pipes, nil)
	routeByLeadingColumns(pipes, nkeys)
	q.Pipelines = pipes
	return &FlatMapGroupsWithState{
		OpName:  c.nextOpName("mgws"),
		NumKeys: nkeys,
		InArity: schema.Len(),
		Func:    m.Func,
		Timeout: m.Timeout,
		Out:     m.Out,
	}, nil
}

func (c *compiler) compileStreamStreamJoin(j *logical.Join, q *Query) (StatefulOp, error) {
	leftPipes, leftSchema, err := c.stateless(j.Left)
	if err != nil {
		return nil, err
	}
	rightPipes, rightSchema, err := c.stateless(j.Right)
	if err != nil {
		return nil, err
	}
	if j.Cond == nil {
		return nil, fmt.Errorf("incremental: stream-stream join requires a condition")
	}
	keys := physical.ExtractEquiKeys(j.Cond, leftSchema, rightSchema)
	if len(keys.Left) == 0 {
		return nil, fmt.Errorf("incremental: stream-stream join requires at least one equality predicate")
	}
	outSchema, err := j.Schema()
	if err != nil {
		return nil, err
	}
	op := &StreamStreamJoin{
		OpName:       c.nextOpName("join"),
		Type:         j.Type,
		LeftArity:    leftSchema.Len(),
		RightArity:   rightSchema.Len(),
		LeftEventIdx: -1, RightEventIdx: -1,
		Out: outSchema,
	}
	if keys.Residual != nil {
		b, err := keys.Residual.Bind(leftSchema.Concat(rightSchema))
		if err != nil {
			return nil, err
		}
		op.Residual = b.Eval
	}
	for i, f := range leftSchema.Fields {
		if c.isWatermarked(f.Name) {
			op.LeftEventIdx = i
		}
	}
	for i, f := range rightSchema.Fields {
		if c.isWatermarked(f.Name) {
			op.RightEventIdx = i
		}
	}
	if keys.Residual != nil && op.LeftEventIdx >= 0 && op.RightEventIdx >= 0 {
		op.Band, op.BandExact = joinTimeBand(keys.Residual, leftSchema.Concat(rightSchema), op.LeftEventIdx, leftSchema.Len()+op.RightEventIdx)
	}

	// Each side's map task renders its rows as join cells: with kernels for
	// the key expressions when they compile (the stream-static join's rule),
	// boxed otherwise — the same cells either way. A cell carries the whole
	// row, so a pipeline not yet narrowed reads every column.
	side := func(pipes []*Pipeline, keyExprs []sql.Expr, schema sql.Schema, eventIdx int) error {
		keyEvals, err := physical.BindKeyExprs(keyExprs, schema)
		if err != nil {
			return err
		}
		sh := &joinShuffle{keyEvals: keyEvals, eventIdx: eventIdx}
		appendStage(pipes, func(next RowEmit) (RowEmit, func()) {
			c := sh.cells()
			return func(r sql.Row) { c.add(sh, r) }, func() {
				for _, row := range c.scatter(1)[0] {
					next(row)
				}
				sh.release(c)
			}
		})
		for _, p := range pipes {
			p.reads.all()
		}
		var end func(*VecPlan)
		if progs, ok := vec.CompileAll(keyExprs, schema); ok {
			sh.keyProgs, end = progs, func(v *VecPlan) { v.Join = sh }
		}
		appendTerminal(pipes, end)
		routeByCell(pipes, len(keyExprs), nil)
		return nil
	}
	if err := side(leftPipes, keys.Left, leftSchema, op.LeftEventIdx); err != nil {
		return nil, err
	}
	if err := side(rightPipes, keys.Right, rightSchema, op.RightEventIdx); err != nil {
		return nil, err
	}
	for _, p := range rightPipes {
		p.Side = 1
	}
	q.Pipelines = append(leftPipes, rightPipes...)
	return op, nil
}

// routeByLeadingColumns sets pipelines to route shuffle rows by their first
// n columns.
func routeByLeadingColumns(pipes []*Pipeline, n int) {
	evals := make([]func(sql.Row) sql.Value, n)
	idxs := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		evals[i] = func(r sql.Row) sql.Value { return r[i] }
		idxs[i] = i
	}
	for _, p := range pipes {
		p.KeyEvals = evals
		p.KeyIdxs = idxs
	}
}

// routeByCell routes shuffle rows that are cells — an aggregate's partial
// cells, a join's cells — by the hash of its n-value encoded key each one
// carries (Pipeline.PartitionOf). KeyEvals say what that hash is of, for
// callers that route through them: evaluator i decodes value i out of the
// cell's key bytes, boxed. keyIdxs are the key's columns in the input of a
// terminal stage the vector plan covers, nil where there are none.
func routeByCell(pipes []*Pipeline, n int, keyIdxs []int) {
	evals := make([]func(sql.Row) sql.Value, n)
	for i := range evals {
		evals[i] = func(r sql.Row) sql.Value {
			_, key, ok := cellOf(r)
			if !ok {
				return nil
			}
			pos := keyValueAt(key, i)
			if pos < 0 {
				return nil
			}
			v, _ := sql.ReadValue(key, pos) // a cell's key is the engine's own encoding
			return v
		}
	}
	for _, p := range pipes {
		p.KeyEvals, p.KeyIdxs, p.cells = evals, keyIdxs, true
	}
}

// compileVecAgg lowers the map-side partial aggregation's grouping keys
// and aggregate inputs to kernel programs; nil when any expression needs
// the row path.
func compileVecAgg(a *logical.Aggregate, aggs []sql.BoundAgg, schema sql.Schema) *VecAggPlan {
	keyProgs, ok := vec.CompileAll(a.Keys, schema)
	if !ok {
		return nil
	}
	inProgs := make([]*vec.Program, len(a.Aggs))
	for i, na := range a.Aggs {
		if na.Agg.Child == nil {
			continue // count(*): no input, Update(nil) per row
		}
		prog, ok := vec.Compile(na.Agg.Child, schema)
		if !ok {
			return nil
		}
		inProgs[i] = prog
	}
	return &VecAggPlan{KeyProgs: keyProgs, InputProgs: inProgs, Aggs: aggs}
}

func underlyingColumnName(e sql.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *sql.Alias:
			e = x.Child
		case *sql.Column:
			return baseName(x.Name), true
		default:
			return "", false
		}
	}
}
