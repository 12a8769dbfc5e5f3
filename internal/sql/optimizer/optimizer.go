// Package optimizer implements the rule-based logical optimizer (§5.3 of
// the paper): constant folding, expression simplification, filter merging,
// predicate pushdown (including through joins and unions) and projection
// collapsing. Rules run to a fixpoint, Catalyst-style, and apply equally to
// batch and streaming plans — which is how "most of the work in logical
// optimization for analytical workloads automatically applies to streaming".
package optimizer

import (
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// maxIterations bounds the fixpoint loop against rule ping-pong.
const maxIterations = 20

// Rule is one logical rewrite applied bottom-up across the plan.
type Rule struct {
	Name  string
	Apply func(logical.Plan) logical.Plan
}

// DefaultRules is the standard rule battery, in application order.
func DefaultRules() []Rule {
	return []Rule{
		{Name: "FoldConstants", Apply: foldConstantsRule},
		{Name: "SimplifyExpressions", Apply: simplifyRule},
		{Name: "CombineFilters", Apply: combineFilters},
		{Name: "PushDownPredicates", Apply: pushDownPredicates},
		{Name: "CollapseProjects", Apply: collapseProjects},
		{Name: "RemoveNoopFilters", Apply: removeNoopFilters},
	}
}

// Optimize runs the default rules to fixpoint and returns the rewritten
// plan. Plans compare by their Explain rendering, which is cheap at query
// sizes and exact enough for convergence detection.
func Optimize(plan logical.Plan) logical.Plan {
	rules := DefaultRules()
	prev := logical.Explain(plan)
	for i := 0; i < maxIterations; i++ {
		for _, r := range rules {
			plan = r.Apply(plan)
		}
		cur := logical.Explain(plan)
		if cur == prev {
			break
		}
		prev = cur
	}
	return plan
}

// ---------------------------------------------------------------- folding

// foldConstantsRule evaluates every literal-only sub-expression at plan
// time.
func foldConstantsRule(plan logical.Plan) logical.Plan {
	return transformExprs(plan, foldConstants)
}

func foldConstants(e sql.Expr) sql.Expr {
	return sql.TransformExpr(e, func(x sql.Expr) sql.Expr {
		switch x.(type) {
		case *sql.Literal, *sql.Column, *sql.AggExpr, *sql.WindowExpr, *sql.Alias:
			return x
		}
		if len(x.Children()) == 0 {
			return x
		}
		for _, c := range x.Children() {
			if !isLiteral(c) {
				return x
			}
		}
		b, err := x.Bind(sql.Schema{})
		if err != nil {
			return x
		}
		v := b.Eval(nil)
		return &sql.Literal{Val: v, Type: b.Type}
	})
}

func isLiteral(e sql.Expr) bool {
	_, ok := e.(*sql.Literal)
	return ok
}

// ---------------------------------------------------------------- simplify

// simplifyRule applies boolean algebra identities: x AND TRUE → x,
// x OR FALSE → x, x AND FALSE → FALSE, x OR TRUE → TRUE, NOT NOT x → x,
// and double-cast elimination.
func simplifyRule(plan logical.Plan) logical.Plan {
	return transformExprs(plan, simplifyExpr)
}

func simplifyExpr(e sql.Expr) sql.Expr {
	return sql.TransformExpr(e, func(x sql.Expr) sql.Expr {
		switch n := x.(type) {
		case *sql.Binary:
			switch n.Op {
			case sql.OpAnd:
				if isBoolLit(n.L, true) {
					return n.R
				}
				if isBoolLit(n.R, true) {
					return n.L
				}
				if isBoolLit(n.L, false) || isBoolLit(n.R, false) {
					return sql.Lit(false)
				}
			case sql.OpOr:
				if isBoolLit(n.L, false) {
					return n.R
				}
				if isBoolLit(n.R, false) {
					return n.L
				}
				if isBoolLit(n.L, true) || isBoolLit(n.R, true) {
					return sql.Lit(true)
				}
			}
		case *sql.Unary:
			if n.Op == sql.OpNot {
				if inner, ok := n.Child.(*sql.Unary); ok && inner.Op == sql.OpNot {
					return inner.Child
				}
				if lit, ok := n.Child.(*sql.Literal); ok {
					if b, ok := lit.Val.(bool); ok {
						return sql.Lit(!b)
					}
				}
			}
		case *sql.CastExpr:
			if inner, ok := n.Child.(*sql.CastExpr); ok && inner.To == n.To {
				return &sql.CastExpr{Child: inner.Child, To: n.To}
			}
		}
		return x
	})
}

func isBoolLit(e sql.Expr, want bool) bool {
	lit, ok := e.(*sql.Literal)
	if !ok {
		return false
	}
	b, ok := lit.Val.(bool)
	return ok && b == want
}

// ---------------------------------------------------------------- filters

// combineFilters merges Filter(Filter(x)) into one conjunction.
func combineFilters(plan logical.Plan) logical.Plan {
	return logical.Transform(plan, func(p logical.Plan) logical.Plan {
		f, ok := p.(*logical.Filter)
		if !ok {
			return p
		}
		inner, ok := f.Child.(*logical.Filter)
		if !ok {
			return p
		}
		return &logical.Filter{Child: inner.Child, Cond: sql.And(inner.Cond, f.Cond)}
	})
}

// removeNoopFilters drops Filter(TRUE) nodes.
func removeNoopFilters(plan logical.Plan) logical.Plan {
	return logical.Transform(plan, func(p logical.Plan) logical.Plan {
		if f, ok := p.(*logical.Filter); ok && isBoolLit(f.Cond, true) {
			return f.Child
		}
		return p
	})
}

// pushDownPredicates moves filters toward the leaves: below projections
// (substituting aliases), into the matching side of joins, below unions
// and below watermark operators. A window assignment sits straight under
// its aggregate (analysis puts it there), so no filter is ever above one;
// one written there by hand stays.
func pushDownPredicates(plan logical.Plan) logical.Plan {
	return logical.Transform(plan, func(p logical.Plan) logical.Plan {
		f, ok := p.(*logical.Filter)
		if !ok {
			return p
		}
		switch child := f.Child.(type) {
		case *logical.Project:
			if cond, ok := substituteThroughProject(f.Cond, child); ok {
				return &logical.Project{
					Child: &logical.Filter{Child: child.Child, Cond: cond},
					Exprs: child.Exprs,
				}
			}
		case *logical.Join:
			return pushThroughJoin(f, child)
		case *logical.Union:
			return &logical.Union{
				Left:  &logical.Filter{Child: child.Left, Cond: f.Cond},
				Right: &logical.Filter{Child: child.Right, Cond: f.Cond},
			}
		case *logical.WithWatermark:
			return &logical.WithWatermark{
				Child:  &logical.Filter{Child: child.Child, Cond: f.Cond},
				Column: child.Column,
				Delay:  child.Delay,
			}
		case *logical.Distinct:
			// Filtering commutes with duplicate elimination only when the
			// whole row is the key; with a column subset, filtering first
			// could change which representative row survives.
			if len(child.Cols) == 0 {
				return &logical.Distinct{
					Child: &logical.Filter{Child: child.Child, Cond: f.Cond},
				}
			}
		}
		return p
	})
}

// substituteThroughProject rewrites a predicate over a projection's output
// into one over its input by inlining projection expressions. It refuses
// when a referenced output column maps to an aggregate (cannot push below)
// or cannot be found.
func substituteThroughProject(cond sql.Expr, proj *logical.Project) (sql.Expr, bool) {
	byName := map[string]sql.Expr{}
	for _, e := range proj.Exprs {
		inner := e
		if a, ok := e.(*sql.Alias); ok {
			inner = a.Child
		}
		if sql.ContainsAgg(inner) {
			continue
		}
		byName[sql.OutputName(e)] = inner
	}
	ok := true
	out := sql.TransformExpr(cond, func(x sql.Expr) sql.Expr {
		c, isCol := x.(*sql.Column)
		if !isCol {
			return x
		}
		name := c.Name
		if i := lastDot(name); i >= 0 {
			name = name[i+1:]
		}
		if repl, found := byName[name]; found {
			return repl
		}
		if _, found := byName[c.Name]; found {
			return byName[c.Name]
		}
		ok = false
		return x
	})
	return out, ok
}

// pushThroughJoin splits a conjunctive predicate and pushes each conjunct
// to the side whose schema fully covers it, respecting outer-join
// null-extension semantics.
func pushThroughJoin(f *logical.Filter, j *logical.Join) logical.Plan {
	leftSchema, err1 := j.Left.Schema()
	rightSchema, err2 := j.Right.Schema()
	if err1 != nil || err2 != nil {
		return f
	}
	var leftConds, rightConds, keep []sql.Expr
	for _, c := range sql.SplitConjuncts(f.Cond) {
		coveredLeft := coveredBy(c, leftSchema)
		coveredRight := coveredBy(c, rightSchema)
		switch {
		// For an outer join, only predicates on the preserved side can be
		// pushed; pushing into the null-extended side would change results.
		case coveredLeft && (j.Type == logical.InnerJoin || j.Type == logical.LeftOuterJoin ||
			j.Type == logical.LeftSemiJoin || j.Type == logical.LeftAntiJoin):
			leftConds = append(leftConds, c)
		case coveredRight && (j.Type == logical.InnerJoin || j.Type == logical.RightOuterJoin):
			rightConds = append(rightConds, c)
		default:
			keep = append(keep, c)
		}
	}
	if len(leftConds) == 0 && len(rightConds) == 0 {
		return f
	}
	left := j.Left
	if len(leftConds) > 0 {
		left = &logical.Filter{Child: left, Cond: conjoin(leftConds)}
	}
	right := j.Right
	if len(rightConds) > 0 {
		right = &logical.Filter{Child: right, Cond: conjoin(rightConds)}
	}
	var out logical.Plan = &logical.Join{Left: left, Right: right, Type: j.Type, Cond: j.Cond}
	if len(keep) > 0 {
		out = &logical.Filter{Child: out, Cond: conjoin(keep)}
	}
	return out
}

func conjoin(exprs []sql.Expr) sql.Expr {
	out := exprs[0]
	for _, e := range exprs[1:] {
		out = sql.And(out, e)
	}
	return out
}

// coveredBy reports whether every column reference in e resolves in s.
func coveredBy(e sql.Expr, s sql.Schema) bool {
	ok := true
	sql.WalkExpr(e, func(x sql.Expr) {
		if c, isCol := x.(*sql.Column); isCol {
			if _, err := s.Resolve(c.Name); err != nil {
				ok = false
			}
		}
	})
	return ok
}

// collapseProjects merges Project(Project(x)) by inlining the inner
// projection's expressions into the outer one.
func collapseProjects(plan logical.Plan) logical.Plan {
	return logical.Transform(plan, func(p logical.Plan) logical.Plan {
		outer, ok := p.(*logical.Project)
		if !ok {
			return p
		}
		inner, ok := outer.Child.(*logical.Project)
		if !ok {
			return p
		}
		// Refuse when the inner projection contains aggregates (should not
		// occur post-analysis) or when substitution fails.
		exprs := make([]sql.Expr, len(outer.Exprs))
		for i, e := range outer.Exprs {
			name := sql.OutputName(e)
			sub, ok := substituteThroughProject(stripAlias(e), inner)
			if !ok {
				return p
			}
			exprs[i] = sql.As(sub, name)
		}
		return &logical.Project{Child: inner.Child, Exprs: exprs}
	})
}

func stripAlias(e sql.Expr) sql.Expr {
	if a, ok := e.(*sql.Alias); ok {
		return a.Child
	}
	return e
}

func lastDot(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}

// transformExprs applies fn to every expression in every node of the plan.
func transformExprs(plan logical.Plan, fn func(sql.Expr) sql.Expr) logical.Plan {
	return logical.Transform(plan, func(p logical.Plan) logical.Plan {
		switch n := p.(type) {
		case *logical.Project:
			exprs := make([]sql.Expr, len(n.Exprs))
			for i, e := range n.Exprs {
				exprs[i] = fn(e)
			}
			return &logical.Project{Child: n.Child, Exprs: exprs}
		case *logical.Filter:
			return &logical.Filter{Child: n.Child, Cond: fn(n.Cond)}
		case *logical.Join:
			if n.Cond == nil {
				return p
			}
			return &logical.Join{Left: n.Left, Right: n.Right, Type: n.Type, Cond: fn(n.Cond)}
		case *logical.Aggregate:
			keys := make([]sql.Expr, len(n.Keys))
			for i, k := range n.Keys {
				keys[i] = fn(k)
			}
			aggs := make([]logical.NamedAgg, len(n.Aggs))
			for i, na := range n.Aggs {
				agg := na.Agg
				if agg.Child != nil {
					agg = &sql.AggExpr{Kind: agg.Kind, Child: fn(agg.Child)}
				}
				aggs[i] = logical.NamedAgg{Agg: agg, Name: na.Name}
			}
			return &logical.Aggregate{Child: n.Child, Keys: keys, Aggs: aggs}
		case *logical.Sort:
			orders := make([]logical.SortOrder, len(n.Orders))
			for i, o := range n.Orders {
				orders[i] = logical.SortOrder{Expr: fn(o.Expr), Desc: o.Desc}
			}
			return &logical.Sort{Child: n.Child, Orders: orders}
		default:
			return p
		}
	})
}
