package structream

import (
	"fmt"
	"io"
	"time"

	"structream/internal/sql"
	"structream/internal/sql/analysis"
	"structream/internal/sql/logical"
	"structream/internal/sql/optimizer"
	"structream/internal/sql/parser"
	"structream/internal/sql/physical"
)

// DataFrame is a lazily evaluated relational view — the paper's core user
// abstraction (§4.1): a table computed from input sources. The same
// DataFrame runs as a batch job (Collect) or incrementally as a stream
// (WriteStream), because the API is agnostic to the execution strategy.
type DataFrame struct {
	s    *Session
	plan logical.Plan
}

func (df *DataFrame) derive(plan logical.Plan) *DataFrame {
	return &DataFrame{s: df.s, plan: plan}
}

// Plan exposes the logical plan (read-only) for tooling.
func (df *DataFrame) Plan() logical.Plan { return df.plan }

// Schema resolves and returns the DataFrame's output schema.
func (df *DataFrame) Schema() (Schema, error) { return df.plan.Schema() }

// IsStreaming reports whether the DataFrame reads any streaming source.
func (df *DataFrame) IsStreaming() bool { return logical.IsStreaming(df.plan) }

// Explain renders the analyzed and optimized logical plans.
func (df *DataFrame) Explain() string {
	analyzed, err := analysis.Analyze(df.plan)
	if err != nil {
		return fmt.Sprintf("error: %v\nraw plan:\n%s", err, logical.Explain(df.plan))
	}
	optimized := optimizer.Optimize(analyzed)
	return fmt.Sprintf("== Analyzed Plan ==\n%s== Optimized Plan ==\n%s",
		logical.Explain(analyzed), logical.Explain(optimized))
}

// ---------------------------------------------------------------- relational

// Select projects expressions.
func (df *DataFrame) Select(exprs ...Expr) *DataFrame {
	return df.derive(&logical.Project{Child: df.plan, Exprs: exprs})
}

// SelectNames projects columns by name.
func (df *DataFrame) SelectNames(names ...string) *DataFrame {
	exprs := make([]Expr, len(names))
	for i, n := range names {
		exprs[i] = Col(n)
	}
	return df.Select(exprs...)
}

// Where keeps rows satisfying the condition. Filter is an alias.
func (df *DataFrame) Where(cond Expr) *DataFrame {
	return df.derive(&logical.Filter{Child: df.plan, Cond: cond})
}

// Filter keeps rows satisfying the condition.
func (df *DataFrame) Filter(cond Expr) *DataFrame { return df.Where(cond) }

// WhereSQL parses a SQL boolean expression and filters by it, e.g.
// df.WhereSQL("country = 'CA' AND latency > 100").
func (df *DataFrame) WhereSQL(cond string) (*DataFrame, error) {
	e, err := parser.ParseExpr(cond)
	if err != nil {
		return nil, err
	}
	return df.Where(e), nil
}

// WithColumn appends (or replaces) a named column computed from an
// expression.
func (df *DataFrame) WithColumn(name string, e Expr) *DataFrame {
	schema, err := df.plan.Schema()
	if err != nil {
		// Defer the error to analysis time.
		return df.derive(&logical.Project{Child: df.plan, Exprs: []Expr{sql.As(e, name)}})
	}
	var exprs []Expr
	replaced := false
	for _, f := range schema.Fields {
		if f.Name == name {
			exprs = append(exprs, sql.As(e, name))
			replaced = true
			continue
		}
		exprs = append(exprs, Col(f.Name))
	}
	if !replaced {
		exprs = append(exprs, sql.As(e, name))
	}
	return df.Select(exprs...)
}

// As qualifies the DataFrame's columns with an alias for joins.
func (df *DataFrame) As(alias string) *DataFrame {
	return df.derive(&logical.SubqueryAlias{Child: df.plan, Alias: alias})
}

// Distinct removes duplicate rows; on a stream it becomes stateful
// deduplication with watermark-based eviction.
func (df *DataFrame) Distinct() *DataFrame {
	return df.derive(&logical.Distinct{Child: df.plan})
}

// DropDuplicates keeps the first row per combination of the named columns
// (all columns when none are given), matching Spark's dropDuplicates. On a
// stream it deduplicates statefully across epochs.
func (df *DataFrame) DropDuplicates(cols ...string) *DataFrame {
	return df.derive(&logical.Distinct{Child: df.plan, Cols: cols})
}

// Union concatenates two DataFrames with compatible schemas (UNION ALL).
func (df *DataFrame) Union(other *DataFrame) *DataFrame {
	return df.derive(&logical.Union{Left: df.plan, Right: other.plan})
}

// OrderBy sorts (batch jobs, or complete-mode streaming after
// aggregation). Use Desc to build descending terms.
func (df *DataFrame) OrderBy(orders ...SortOrder) *DataFrame {
	terms := make([]logical.SortOrder, len(orders))
	for i, o := range orders {
		terms[i] = logical.SortOrder{Expr: o.expr, Desc: o.desc}
	}
	return df.derive(&logical.Sort{Child: df.plan, Orders: terms})
}

// SortOrder is one ORDER BY term.
type SortOrder struct {
	expr Expr
	desc bool
}

// Asc builds an ascending sort term.
func Asc(e Expr) SortOrder { return SortOrder{expr: e} }

// Desc builds a descending sort term.
func Desc(e Expr) SortOrder { return SortOrder{expr: e, desc: true} }

// Limit keeps the first n rows.
func (df *DataFrame) Limit(n int64) *DataFrame {
	return df.derive(&logical.Limit{Child: df.plan, N: n})
}

// JoinType names for the Join method.
const (
	InnerJoin      = "inner"
	LeftOuterJoin  = "left_outer"
	RightOuterJoin = "right_outer"
	FullOuterJoin  = "full_outer"
	LeftSemiJoin   = "left_semi"
	LeftAntiJoin   = "left_anti"
)

// Join joins with another DataFrame on a condition. joinType is one of the
// *Join constants ("inner" by default when empty). Streaming support
// follows §5.2: stream-static joins, and stream-stream inner/outer joins
// (outer requires a watermarked column in the condition).
func (df *DataFrame) Join(other *DataFrame, cond Expr, joinType string) *DataFrame {
	var jt logical.JoinType
	switch joinType {
	case "", InnerJoin:
		jt = logical.InnerJoin
	case LeftOuterJoin, "left":
		jt = logical.LeftOuterJoin
	case RightOuterJoin, "right":
		jt = logical.RightOuterJoin
	case FullOuterJoin, "full":
		jt = logical.FullOuterJoin
	case LeftSemiJoin:
		jt = logical.LeftSemiJoin
	case LeftAntiJoin:
		jt = logical.LeftAntiJoin
	default:
		// Invalid join types surface at analysis time via an impossible
		// condition; better to fail fast here.
		panic(fmt.Sprintf("structream: unknown join type %q", joinType))
	}
	return df.derive(&logical.Join{Left: df.plan, Right: other.plan, Type: jt, Cond: cond})
}

// WithWatermark declares an event-time column and a lateness bound
// (§4.3.1): the watermark is max(eventTime) − delay, and it governs when
// windows finalize and state is evicted.
func (df *DataFrame) WithWatermark(column string, delay Duration) *DataFrame {
	return df.derive(&logical.WithWatermark{Child: df.plan, Column: column, Delay: delay.Microseconds()})
}

// ---------------------------------------------------------------- grouping

// GroupedData is a DataFrame grouped by key expressions, awaiting
// aggregates.
type GroupedData struct {
	df   *DataFrame
	keys []Expr
}

// GroupBy groups by key expressions (columns or WindowOf windows).
func (df *DataFrame) GroupBy(keys ...Expr) *GroupedData {
	return &GroupedData{df: df, keys: keys}
}

// Agg computes the given aggregates per group.
func (g *GroupedData) Agg(aggs ...AggColumn) *DataFrame {
	named := make([]logical.NamedAgg, len(aggs))
	for i, a := range aggs {
		named[i] = logical.NamedAgg{Agg: a.agg, Name: a.name}
	}
	return g.df.derive(&logical.Aggregate{Child: g.df.plan, Keys: g.keys, Aggs: named})
}

// Count is shorthand for Agg(CountAll().As("count")).
func (g *GroupedData) Count() *DataFrame {
	return g.Agg(CountAll().As("count"))
}

// ---------------------------------------------------------------- stateful

// KeyedDataFrame is a DataFrame grouped by key for custom stateful
// processing (§4.3.2).
type KeyedDataFrame struct {
	df   *DataFrame
	keys []Expr
}

// GroupByKey groups rows for MapGroupsWithState / FlatMapGroupsWithState.
func (df *DataFrame) GroupByKey(keys ...Expr) *KeyedDataFrame {
	return &KeyedDataFrame{df: df, keys: keys}
}

// FlatMapGroupsWithState applies a custom update function per key with
// durable state: fn receives the key, the new values since the last call,
// and a state handle, and returns zero or more output rows with the given
// schema. It works identically in batch jobs (called once per key).
func (k *KeyedDataFrame) FlatMapGroupsWithState(out Schema, stateSchema Schema, timeout TimeoutKind, fn UpdateFunc) *DataFrame {
	names := make([]string, len(k.keys))
	for i, e := range k.keys {
		names[i] = sql.OutputName(e)
	}
	return k.df.derive(&logical.MapGroups{
		Child:       k.df.plan,
		Keys:        k.keys,
		KeyNames:    names,
		Func:        fn,
		StateSchema: stateSchema,
		Out:         out,
		Timeout:     timeout,
	})
}

// MapGroupsWithState is FlatMapGroupsWithState restricted to exactly one
// output row per invocation.
func (k *KeyedDataFrame) MapGroupsWithState(out Schema, stateSchema Schema, timeout TimeoutKind,
	fn func(key Row, values []Row, state GroupState) Row) *DataFrame {
	wrapped := func(key Row, values []Row, state GroupState) []Row {
		return []Row{fn(key, values, state)}
	}
	return k.FlatMapGroupsWithState(out, stateSchema, timeout, wrapped)
}

// ---------------------------------------------------------------- batch

// Collect executes the DataFrame as a batch job and returns all rows.
// Streaming sources are snapshotted at their current contents — the hybrid
// execution path the paper's users rely on for backfill and testing (§7.3).
func (df *DataFrame) Collect() ([]Row, error) {
	analyzed, err := analysis.Analyze(df.plan)
	if err != nil {
		return nil, err
	}
	optimized := optimizer.Optimize(analyzed)
	op, err := physical.Compile(optimized, df.s.batchResolver)
	if err != nil {
		return nil, err
	}
	return physical.Drain(op)
}

// Show executes the DataFrame and renders up to n rows to w.
func (df *DataFrame) Show(w io.Writer, n int) error {
	rows, err := df.Collect()
	if err != nil {
		return err
	}
	schema, err := df.Schema()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%v\n", schema.Names())
	for i, r := range rows {
		if n > 0 && i >= n {
			fmt.Fprintf(w, "... (%d more rows)\n", len(rows)-i)
			break
		}
		fmt.Fprintln(w, r.String())
	}
	return nil
}

// Duration aliases time.Duration for watermark delays.
type Duration = time.Duration
