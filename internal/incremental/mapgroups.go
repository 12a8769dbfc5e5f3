package incremental

import (
	"encoding/binary"
	"fmt"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/physical"
	"structream/internal/state"
)

// FlatMapGroupsWithState is the streaming form of the paper's stateful
// operators (§4.3.2): a user-defined update function invoked per key with
// the new values for that key, a durable state handle, and timeout
// callbacks in processing or event time. mapGroupsWithState is the
// one-row-per-call special case of the same operator.
type FlatMapGroupsWithState struct {
	OpName string
	// NumKeys is the grouping-key arity; shuffle rows are
	// [keys..., inputRow...].
	NumKeys int
	// InArity is the width of the input rows handed to Func.
	InArity int
	// Func is the user update function.
	Func logical.UpdateFunc
	// Timeout selects the timeout semantics.
	Timeout logical.TimeoutKind
	Out     sql.Schema
}

// Name implements StatefulOp.
func (m *FlatMapGroupsWithState) Name() string { return m.OpName }

// OutputSchema implements StatefulOp.
func (m *FlatMapGroupsWithState) OutputSchema() sql.Schema { return m.Out }

// state value encoding: uvarint row length + encoded state row, varint
// timeoutAt (0 = unarmed), byte eventTimed.
func encodeGroupState(stateRow sql.Row, timeoutAt int64, eventTimed bool) []byte {
	rb := codec.EncodeRow(stateRow)
	out := binary.AppendUvarint(nil, uint64(len(rb)))
	out = append(out, rb...)
	out = binary.AppendVarint(out, timeoutAt)
	if eventTimed {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

func decodeGroupState(data []byte) (sql.Row, int64, bool, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 || w+int(n) > len(data) {
		return nil, 0, false, fmt.Errorf("incremental: corrupt group state")
	}
	row, err := codec.DecodeRow(data[w : w+int(n)])
	if err != nil {
		return nil, 0, false, err
	}
	pos := w + int(n)
	timeoutAt, w2 := binary.Varint(data[pos:])
	if w2 <= 0 || pos+w2 >= len(data) {
		return nil, 0, false, fmt.Errorf("incremental: corrupt group state tail")
	}
	pos += w2
	eventTimed := data[pos] == 1
	return row, timeoutAt, eventTimed, nil
}

// Process implements StatefulOp.
func (m *FlatMapGroupsWithState) Process(ctx *EpochContext, store *state.Store, inputs [][]sql.Row) ([]sql.Row, error) {
	// Group this epoch's rows by key, preserving arrival order.
	type group struct {
		key  sql.Row
		rows []sql.Row
	}
	groups := map[string]*group{}
	var order []string
	for _, sr := range inputs[0] {
		if len(sr) != m.NumKeys+m.InArity {
			return nil, fmt.Errorf("incremental: malformed shuffle row for %s", m.OpName)
		}
		key := append(sql.Row(nil), sr[:m.NumKeys]...)
		ks := codec.KeyString(key)
		g, ok := groups[ks]
		if !ok {
			g = &group{key: key}
			groups[ks] = g
			order = append(order, ks)
		}
		g.rows = append(g.rows, append(sql.Row(nil), sr[m.NumKeys:]...))
	}

	var out []sql.Row
	// invoke runs the update function for one group; data/ok are the group's
	// state value as the store holds it.
	invoke := func(keyBytes []byte, key sql.Row, rows []sql.Row, data []byte, ok, timedOut bool) error {
		gs := &physical.GroupStateImpl{
			WM:       ctx.Watermark,
			Now:      ctx.ProcTime,
			TimedOut: timedOut,
		}
		if ok {
			stateRow, _, _, err := decodeGroupState(data)
			if err != nil {
				return err
			}
			gs.StateRow = stateRow
			gs.Present = true
		}
		out = append(out, m.Func(key, rows, gs)...)
		// The writes say what the read found: ok.
		put := store.PutNew
		if ok {
			put = store.PutLive
		}
		switch {
		case gs.Removed && ok:
			store.RemoveLive(keyBytes)
		case gs.Removed:
			store.Remove(keyBytes)
		case gs.Dirty:
			put(keyBytes, encodeGroupState(gs.StateRow, gs.TimeoutAt, gs.EventTimed))
		case timedOut:
			// A fired timeout that neither updated nor removed state still
			// clears its arming, as in Spark.
			put(keyBytes, encodeGroupState(gs.StateRow, 0, gs.EventTimed))
		}
		return nil
	}

	// One batched read loads the state of every group this epoch touches
	// (the groups are distinct, so no invocation changes what a later one
	// reads). A group's map key is its state key: KeyString and EncodeValues
	// render the same bytes.
	keyBytes := make([][]byte, len(order))
	for i, ks := range order {
		keyBytes[i] = []byte(ks)
	}
	values, oks := store.GetBatch(keyBytes)
	for i, ks := range order {
		g := groups[ks]
		if err := invoke(keyBytes[i], g.key, g.rows, values[i], oks[i], false); err != nil {
			return nil, err
		}
	}

	// Timeout pass: fire callbacks for keys not seen this epoch whose
	// timeout has expired (processing-time against the epoch's clock,
	// event-time against the watermark).
	if m.Timeout != logical.NoTimeout {
		type fired struct {
			keyBytes []byte
			key      sql.Row
		}
		var expired []fired
		var iterErr error
		store.Iterate(func(k, v []byte) bool {
			if _, updated := groups[string(k)]; updated {
				return true
			}
			_, timeoutAt, eventTimed, err := decodeGroupState(v)
			if err != nil {
				iterErr = err
				return false
			}
			if timeoutAt == 0 {
				return true
			}
			due := false
			if eventTimed || m.Timeout == logical.EventTimeTimeout {
				due = ctx.Watermark > 0 && timeoutAt < ctx.Watermark
			} else {
				due = timeoutAt <= ctx.ProcTime
			}
			if due {
				key, err := codec.DecodeValues(k)
				if err != nil {
					iterErr = err
					return false
				}
				expired = append(expired, fired{keyBytes: append([]byte(nil), k...), key: key})
			}
			return true
		})
		if iterErr != nil {
			return nil, iterErr
		}
		for _, f := range expired {
			data, ok := store.Get(f.keyBytes)
			if err := invoke(f.keyBytes, f.key, nil, data, ok, true); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
