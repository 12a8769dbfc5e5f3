package physical

import (
	"fmt"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

// EquiKeys is the result of analyzing a join condition: matching key
// expression pairs (left side, right side) plus any residual predicate that
// must be evaluated on the concatenated row.
type EquiKeys struct {
	Left     []sql.Expr
	Right    []sql.Expr
	Residual sql.Expr // nil when the condition is a pure equi-join
}

// ExtractEquiKeys splits a join condition into equi-join key pairs and a
// residual. A conjunct "l = r" becomes a key pair when one side resolves
// entirely against the left schema and the other against the right.
func ExtractEquiKeys(cond sql.Expr, left, right sql.Schema) EquiKeys {
	var out EquiKeys
	var residuals []sql.Expr
	for _, c := range sql.SplitConjuncts(cond) {
		b, ok := c.(*sql.Binary)
		if ok && b.Op == sql.OpEq {
			switch {
			case coveredBy(b.L, left) && coveredBy(b.R, right):
				out.Left = append(out.Left, b.L)
				out.Right = append(out.Right, b.R)
				continue
			case coveredBy(b.L, right) && coveredBy(b.R, left):
				out.Left = append(out.Left, b.R)
				out.Right = append(out.Right, b.L)
				continue
			}
		}
		residuals = append(residuals, c)
	}
	for _, r := range residuals {
		if out.Residual == nil {
			out.Residual = r
		} else {
			out.Residual = sql.And(out.Residual, r)
		}
	}
	return out
}

func coveredBy(e sql.Expr, s sql.Schema) bool {
	ok := true
	found := false
	sql.WalkExpr(e, func(x sql.Expr) {
		if c, isCol := x.(*sql.Column); isCol {
			found = true
			if _, err := s.Resolve(c.Name); err != nil {
				ok = false
			}
		}
	})
	return ok && found
}

// joinOp is a blocking hash join: it builds a hash table over the right
// child, then streams the left child through it.
type joinOp struct {
	left, right Operator
	typ         logical.JoinType
	schema      sql.Schema

	leftKeys   []func(sql.Row) sql.Value
	rightKeys  []func(sql.Row) sql.Value
	residual   func(sql.Row) sql.Value // over concatenated row; may be nil
	rightArity int

	table            map[string][]sql.Row
	rightMatched     map[string][]bool // for right/full outer
	opened           bool
	leftDone         bool
	emittedUnmatched bool
}

// NewHashJoin compiles a join. cond may be nil for a cross join (batch
// only). The child operators must already produce qualified schemas.
func NewHashJoin(left, right Operator, typ logical.JoinType, cond sql.Expr, schema sql.Schema) (Operator, error) {
	j := &joinOp{left: left, right: right, typ: typ, schema: schema,
		rightArity: right.Schema().Len()}
	if cond != nil {
		keys := ExtractEquiKeys(cond, left.Schema(), right.Schema())
		for _, e := range keys.Left {
			b, err := e.Bind(left.Schema())
			if err != nil {
				return nil, err
			}
			j.leftKeys = append(j.leftKeys, b.Eval)
		}
		for _, e := range keys.Right {
			b, err := e.Bind(right.Schema())
			if err != nil {
				return nil, err
			}
			j.rightKeys = append(j.rightKeys, b.Eval)
		}
		if keys.Residual != nil {
			concat := left.Schema().Concat(right.Schema())
			b, err := keys.Residual.Bind(concat)
			if err != nil {
				return nil, err
			}
			j.residual = b.Eval
		}
	} else if typ != logical.InnerJoin {
		return nil, fmt.Errorf("physical: %s join requires a condition", typ)
	}
	return j, nil
}

func (j *joinOp) Schema() sql.Schema { return j.schema }

func (j *joinOp) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	// Build phase over the right child.
	j.table = map[string][]sql.Row{}
	j.rightMatched = map[string][]bool{}
	for {
		batch, err := j.right.Next()
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
		for _, r := range batch {
			ks := j.rightKeyString(r)
			j.table[ks] = append(j.table[ks], r)
			j.rightMatched[ks] = append(j.rightMatched[ks], false)
		}
	}
	j.opened = true
	return nil
}

func (j *joinOp) rightKeyString(r sql.Row) string {
	if len(j.rightKeys) == 0 {
		return "" // cross join: single bucket
	}
	key := make([]sql.Value, len(j.rightKeys))
	for i, e := range j.rightKeys {
		key[i] = e(r)
	}
	return codec.KeyString(key)
}

func (j *joinOp) leftKeyString(r sql.Row) (string, bool) {
	if len(j.leftKeys) == 0 {
		return "", true
	}
	key := make([]sql.Value, len(j.leftKeys))
	for i, e := range j.leftKeys {
		key[i] = e(r)
		if key[i] == nil {
			return "", false // NULL keys never match
		}
	}
	return codec.KeyString(key), true
}

func (j *joinOp) Next() ([]sql.Row, error) {
	if !j.leftDone {
		for {
			batch, err := j.left.Next()
			if err != nil {
				return nil, err
			}
			if batch == nil {
				j.leftDone = true
				break
			}
			out := j.probeBatch(batch)
			if len(out) > 0 {
				return out, nil
			}
		}
	}
	// Right/full outer: emit unmatched right rows null-padded on the left.
	if !j.emittedUnmatched && (j.typ == logical.RightOuterJoin || j.typ == logical.FullOuterJoin) {
		j.emittedUnmatched = true
		leftArity := j.left.Schema().Len()
		var out []sql.Row
		for ks, rows := range j.table {
			for i, r := range rows {
				if !j.rightMatched[ks][i] {
					nr := make(sql.Row, leftArity+len(r))
					copy(nr[leftArity:], r)
					out = append(out, nr)
				}
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
	return nil, nil
}

// probeBatch joins one batch of left rows against the build table.
func (j *joinOp) probeBatch(batch []sql.Row) []sql.Row {
	var out []sql.Row
	for _, l := range batch {
		ks, valid := j.leftKeyString(l)
		matched := false
		if valid {
			rows := j.table[ks]
			for i, r := range rows {
				joined := append(append(make(sql.Row, 0, len(l)+len(r)), l...), r...)
				if j.residual != nil {
					if b, ok := j.residual(joined).(bool); !ok || !b {
						continue
					}
				}
				matched = true
				j.rightMatched[ks][i] = true
				switch j.typ {
				case logical.LeftSemiJoin:
					// emit left row once below
				case logical.LeftAntiJoin:
					// matched anti rows are dropped below
				default:
					out = append(out, joined)
				}
				if j.typ == logical.LeftSemiJoin {
					break
				}
			}
		}
		switch j.typ {
		case logical.LeftOuterJoin, logical.FullOuterJoin:
			if !matched {
				nr := make(sql.Row, len(l)+j.rightArity)
				copy(nr, l)
				out = append(out, nr)
			}
		case logical.LeftSemiJoin:
			if matched {
				out = append(out, l)
			}
		case logical.LeftAntiJoin:
			if !matched {
				out = append(out, l)
			}
		}
	}
	return out
}

func (j *joinOp) Close() error {
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
