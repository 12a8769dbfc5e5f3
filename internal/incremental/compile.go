package incremental

import (
	"fmt"

	"structream/internal/sources"
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
		if p.WatermarkIdx >= 0 {
			q.HasWatermark = true
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
	need     []bool // by source column
	narrowed bool   // a stage has replaced the source columns
}

func newSourceReads(arity int) *sourceReads {
	return &sourceReads{need: make([]bool, arity)}
}

func (r *sourceReads) all() {
	if !r.narrowed {
		for c := range r.need {
			r.need[c] = true
		}
	}
}

// noteReads records the columns the stage (or terminal) just appended to
// pipes reads through exprs, bound against its input schema; narrows marks
// it as replacing the row.
func noteReads(pipes []*Pipeline, schema sql.Schema, narrows bool, exprs ...sql.Expr) {
	for _, p := range pipes {
		r := p.reads
		if r.narrowed {
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
		r.narrowed = r.narrowed || narrows
	}
}

// columns is the pipeline's SourceCols: the columns read up to the narrowing
// stage plus the watermark column, or nil (every column) when nothing
// narrows.
func (r *sourceReads) columns(p *Pipeline) []int {
	if !r.narrowed {
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
		return []*Pipeline{{SourceName: n.Name, schema: n.Out, WatermarkIdx: -1, Vec: &VecPlan{}, reads: newSourceReads(n.Out.Len())}}, n.Out, nil

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
		prog, err := vec.Compile(n.Cond, schema)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		noteReads(pipes, schema, false, n.Cond)
		appendOp(pipes, physical.NewVecFilter(prog))
		return pipes, schema, nil

	case *logical.Project:
		pipes, schema, err := c.stateless(n.Child)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		progs, err := vec.CompileAll(n.Exprs, schema)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		fields := make([]sql.Field, len(progs))
		for i, prog := range progs {
			fields[i] = sql.Field{Name: sql.OutputName(n.Exprs[i]), Type: prog.Type}
		}
		outSchema := sql.Schema{Fields: fields}
		noteReads(pipes, schema, true, n.Exprs...)
		appendOp(pipes, physical.NewVecProject(progs, outSchema))
		return pipes, outSchema, nil

	case *logical.WindowAssign:
		pipes, schema, err := c.stateless(n.Child)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		prog, err := vec.Compile(n.Window.Time, schema)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		out, err := n.Schema()
		if err != nil {
			return nil, sql.Schema{}, err
		}
		noteReads(pipes, schema, false, n.Window.Time)
		appendOp(pipes, physical.NewVecWindow(prog, n.Window, out))
		return pipes, out, nil

	case *logical.WithWatermark:
		pipes, schema, err := c.stateless(n.Child)
		if err != nil {
			return nil, sql.Schema{}, err
		}
		// The watermark is tracked on the raw source batch, so the column
		// must exist in each upstream source's schema (it virtually always
		// does: watermarks are declared on source timestamp columns).
		for _, pipe := range pipes {
			srcSchema, err := c.sourceSchema(p, pipe.SourceName)
			if err != nil {
				return nil, sql.Schema{}, err
			}
			idx, err := srcSchema.Resolve(n.Column)
			if err != nil {
				return nil, sql.Schema{}, fmt.Errorf("incremental: watermark column %q must be a source column: %v", n.Column, err)
			}
			pipe.WatermarkIdx = idx
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

// appendOp extends each pipeline's vector plan with the op of the stage
// just compiled.
func appendOp(pipes []*Pipeline, op physical.VecOp) {
	for _, p := range pipes {
		p.Vec.Ops = append(p.Vec.Ops, op)
	}
}

// appendTerminal ends each pipeline in the blocking terminal — the map-side
// partial aggregate, a join side's cell rendering — and lets end record it
// in the vector plan.
func appendTerminal(pipes []*Pipeline, term terminal, end func(*VecPlan)) {
	for _, p := range pipes {
		p.term = term
		end(p.Vec)
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
	for i, r := range staticRows {
		if len(r) != staticSchema.Len() {
			return nil, sql.Schema{}, fmt.Errorf("%w: static row %d of a stream-static join has %d values, the schema %d",
				sources.ErrRowArity, i, len(r), staticSchema.Len())
		}
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
	keyProgs, err := vec.CompileAll(streamKeys, streamSchema)
	if err != nil {
		return nil, sql.Schema{}, err
	}
	staticKeyEvals, err := physical.BindKeyExprs(staticKeys, staticSchema)
	if err != nil {
		return nil, sql.Schema{}, err
	}
	var residual *vec.Program
	if keys.Residual != nil {
		if residual, err = vec.Compile(keys.Residual, leftSchema.Concat(rightSchema)); err != nil {
			return nil, sql.Schema{}, err
		}
	}

	// The broadcast table is built once at compile time and only read by
	// tasks, which probe it with keys hashed straight off the stream's key
	// vectors.
	spec := physical.BroadcastJoinSpec{
		Table:        physical.NewBroadcastTable(staticSchema, staticRows, staticKeyEvals),
		StreamIsLeft: streamIsLeft,
		Outer: n.Type == logical.LeftOuterJoin && streamIsLeft ||
			n.Type == logical.RightOuterJoin && !streamIsLeft,
		Semi:   n.Type == logical.LeftSemiJoin,
		Anti:   n.Type == logical.LeftAntiJoin,
		Joined: leftSchema.Concat(rightSchema),
	}
	// The joined row carries every stream column (shifted, when the stream
	// is the right side), so a pipeline not yet narrowed reads them all.
	for _, p := range pipes {
		p.reads.all()
	}
	appendOp(pipes, physical.NewVecBroadcastJoin(spec, keyProgs, residual))
	if spec.Semi || spec.Anti {
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
	_, aggs, outSchema, err := physical.BindAggregate(a, childSchema)
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
	// Map-side partial aggregation is the pipelines' terminal: a task's
	// batch folds into a per-task table, which scatters one partial cell per
	// group.
	plan, err := compileVecAgg(a, aggs, childSchema)
	if err != nil {
		return nil, 0, err
	}
	term := &aggTerminal{aggs: aggs, vec: plan}
	appendTerminal(pipes, term, func(v *VecPlan) { v.Agg = plan })
	aggReads := append([]sql.Expr(nil), a.Keys...)
	for _, na := range a.Aggs {
		if na.Agg.Child != nil {
			aggReads = append(aggReads, na.Agg.Child)
		}
	}
	noteReads(pipes, childSchema, true, aggReads...)
	for _, p := range pipes {
		p.KeyIdxs = allColumns(len(a.Keys))
	}
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
	route := keyIdxs
	if route == nil {
		route = allColumns(schema.Len())
	}
	for _, p := range pipes {
		p.KeyEvals = columnEvals(route)
	}
	q.Pipelines = pipes
	return op, nil
}

func (c *compiler) compileMapGroups(m *logical.MapGroups, q *Query) (StatefulOp, error) {
	pipes, schema, err := c.stateless(m.Child)
	if err != nil {
		return nil, err
	}
	keys, err := vec.CompileAll(m.Keys, schema)
	if err != nil {
		return nil, err
	}
	// Each row leaves keyed: the key values, then the row, which carries
	// every column a pipeline not yet narrowed reads.
	nkeys := len(m.Keys)
	fields := make([]sql.Field, 0, nkeys+schema.Len())
	for i, k := range keys {
		fields = append(fields, sql.Field{Name: sql.OutputName(m.Keys[i]), Type: k.Type})
	}
	keyed := sql.Schema{Fields: append(fields, schema.Fields...)}
	for _, p := range pipes {
		p.reads.all()
		p.KeyEvals = columnEvals(allColumns(nkeys))
	}
	appendOp(pipes, physical.NewVecKeyed(keys, keyed))
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

	// Each side's map task renders its batch's rows as join cells, the key
	// through its programs. A cell carries the whole row, so a pipeline not
	// yet narrowed reads every column.
	side := func(pipes []*Pipeline, keyExprs []sql.Expr, schema sql.Schema, eventIdx int) error {
		progs, err := vec.CompileAll(keyExprs, schema)
		if err != nil {
			return err
		}
		sh := &joinShuffle{keyProgs: progs, eventIdx: eventIdx}
		for _, p := range pipes {
			p.reads.all()
		}
		appendTerminal(pipes, sh, func(v *VecPlan) { v.Join = sh })
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

// allColumns is 0..n-1.
func allColumns(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// columnEvals reads the given columns off a row.
func columnEvals(idxs []int) []func(sql.Row) sql.Value {
	evals := make([]func(sql.Row) sql.Value, len(idxs))
	for i, idx := range idxs {
		evals[i] = func(r sql.Row) sql.Value { return r[idx] }
	}
	return evals
}

// compileVecAgg lowers the map-side partial aggregation's grouping keys
// and aggregate inputs to programs.
func compileVecAgg(a *logical.Aggregate, aggs []sql.BoundAgg, schema sql.Schema) (*VecAggPlan, error) {
	keyProgs, err := vec.CompileAll(a.Keys, schema)
	if err != nil {
		return nil, err
	}
	inProgs := make([]*vec.Program, len(a.Aggs))
	for i, na := range a.Aggs {
		if na.Agg.Child == nil {
			continue // count(*): no input, Update(nil) per row
		}
		if inProgs[i], err = vec.Compile(na.Agg.Child, schema); err != nil {
			return nil, err
		}
	}
	return &VecAggPlan{KeyProgs: keyProgs, InputProgs: inProgs, Aggs: aggs}, nil
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
