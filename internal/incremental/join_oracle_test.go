package incremental

// The list-valued stream-stream join this package shipped before the indexed
// state layout: one state value per (side, join key) holding every buffered
// row. It survives only here, as the reference the differential test in
// join_test.go holds the new layout to. It shares the operator's
// configuration struct, the shuffle cell's fields and the row codec with
// join.go, and nothing else.

import (
	"encoding/binary"
	"fmt"
	"math"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/state"
)

// oracleEntry is one buffered row on one side.
type oracleEntry struct {
	row     sql.Row
	matched bool
	ts      int64 // event time, -1 unknown
}

func oracleEncodeEntries(entries []oracleEntry) []byte {
	out := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, e := range entries {
		rb := codec.EncodeRow(e.row)
		out = binary.AppendUvarint(out, uint64(len(rb)))
		out = append(out, rb...)
		if e.matched {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = binary.AppendVarint(out, e.ts)
	}
	return out
}

func oracleDecodeEntries(data []byte) ([]oracleEntry, error) {
	n, w := binary.Uvarint(data)
	if w <= 0 {
		return nil, fmt.Errorf("incremental: corrupt join state")
	}
	pos := w
	out := make([]oracleEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		rl, w := binary.Uvarint(data[pos:])
		if w <= 0 || pos+w+int(rl)+1 > len(data) {
			return nil, fmt.Errorf("incremental: corrupt join entry")
		}
		pos += w
		row, err := codec.DecodeRow(data[pos : pos+int(rl)])
		if err != nil {
			return nil, err
		}
		pos += int(rl)
		matched := data[pos] == 1
		pos++
		ts, w := binary.Varint(data[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("incremental: corrupt join entry ts")
		}
		pos += w
		out = append(out, oracleEntry{row: row, matched: matched, ts: ts})
	}
	return out, nil
}

const (
	oracleLeft  byte = 'L'
	oracleRight byte = 'R'
)

// oracleStateKey prefixes the equi-key bytes with the side marker. The equi-key
// values are already part of the shuffle routing, so rows of both sides
// with equal keys land in the same partition's store.
func oracleStateKey(side byte, keyBytes []byte) []byte {
	return append([]byte{side}, keyBytes...)
}

// oracleEvictBefore is the event time below which the watermark wm drops a
// side's rows, worked out here from the rule and not by calling the
// operator's arithmetic: a right row that is not late sits at wm or later, so
// under lo ≤ rightTs − leftTs ≤ hi a left row stays until wm − hi and a right
// row until wm + lo, where that end of the band is finite; never later than
// wm itself, and at wm where there is no such end.
func oracleEvictBefore(j *StreamStreamJoin, side byte, wm int64) int64 {
	if b := j.Band; b != nil && side == oracleLeft && b.Hi > 0 && b.Hi != math.MaxInt64 {
		return wm - b.Hi
	} else if b != nil && side == oracleRight && b.Lo < 0 && b.Lo != math.MinInt64 {
		return wm + b.Lo
	}
	return wm
}

// joinRowOf reads a join shuffle row back with the codec alone: the equi-key
// values, the event time, and the row.
func joinRowOf(sr sql.Row) (key []sql.Value, ts int64, row sql.Row, err error) {
	c, ok := sr[0].(*joinCell)
	if !ok || len(sr) != 2 || sr[1] != sql.Value(c.ts) {
		return nil, 0, nil, fmt.Errorf("incremental: malformed join shuffle row")
	}
	if key, err = codec.DecodeValues(c.key); err != nil {
		return nil, 0, nil, err
	}
	entryTs, w := binary.Varint(c.entry)
	if w <= 0 || entryTs != c.ts || len(c.entry) == w || c.entry[w] != 0 {
		return nil, 0, nil, fmt.Errorf("incremental: malformed join cell entry")
	}
	row, err = codec.DecodeRow(c.entry[w+1:])
	return key, c.ts, row, err
}

// oracleJoinProcess is the parent's Process (it also reports where the rows
// emitted by eviction start): per arriving row a Get,
// decode-all, append, re-encode-all, Put on both sides, and a full Iterate
// at every watermark advance.
func oracleJoinProcess(j *StreamStreamJoin, ctx *EpochContext, store *state.Store, inputs [][]sql.Row) (out []sql.Row, evictedFrom int, err error) {

	emit := func(left, right sql.Row) {
		row := make(sql.Row, j.LeftArity+j.RightArity)
		if left != nil {
			copy(row, left)
		}
		if right != nil {
			copy(row[j.LeftArity:], right)
		}
		if j.Residual != nil && left != nil && right != nil {
			if b, ok := j.Residual(row).(bool); !ok || !b {
				return
			}
		}
		out = append(out, row)
	}
	// residualOK checks the residual without emitting (for match marking).
	residualOK := func(left, right sql.Row) bool {
		if j.Residual == nil {
			return true
		}
		row := make(sql.Row, j.LeftArity+j.RightArity)
		copy(row, left)
		copy(row[j.LeftArity:], right)
		b, ok := j.Residual(row).(bool)
		return ok && b
	}

	process := func(rows []sql.Row, ownSide, otherSide byte, ownArity int) error {
		for _, sr := range rows {
			key, ts, row, err := joinRowOf(sr)
			if err != nil {
				return err
			}
			if len(row) != ownArity {
				return fmt.Errorf("incremental: join row of %d values on a side of %d", len(row), ownArity)
			}
			keyBytes := codec.EncodeValues(key)

			// Skip NULL keys: they can never match, and buffering them
			// would leak state.
			nullKey := false
			for _, k := range key {
				if k == nil {
					nullKey = true
				}
			}

			matched := false
			if !nullKey {
				if data, ok := store.Get(oracleStateKey(otherSide, keyBytes)); ok {
					entries, err := oracleDecodeEntries(data)
					if err != nil {
						return err
					}
					changed := false
					for i := range entries {
						var l, r sql.Row
						if ownSide == oracleLeft {
							l, r = row, entries[i].row
						} else {
							l, r = entries[i].row, row
						}
						if residualOK(l, r) {
							emit(l, r)
							matched = true
							if !entries[i].matched {
								entries[i].matched = true
								changed = true
							}
						}
					}
					if changed {
						store.Put(oracleStateKey(otherSide, keyBytes), oracleEncodeEntries(entries))
					}
				}
			}

			// Buffer the row on its own side for future matches.
			if !nullKey {
				var entries []oracleEntry
				if data, ok := store.Get(oracleStateKey(ownSide, keyBytes)); ok {
					var err error
					entries, err = oracleDecodeEntries(data)
					if err != nil {
						return err
					}
				}
				entries = append(entries, oracleEntry{row: row, matched: matched, ts: ts})
				store.Put(oracleStateKey(ownSide, keyBytes), oracleEncodeEntries(entries))
			} else if ownSide == oracleLeft && j.Type == logical.LeftOuterJoin {
				emit(row, nil) // NULL-keyed preserved row can never match
			} else if ownSide == oracleRight && j.Type == logical.RightOuterJoin {
				emit(nil, row)
			}
		}
		return nil
	}

	// Left rows first (probing committed right state), then right rows
	// (probing left state including this epoch's additions): every
	// cross-epoch pair matches exactly once.
	if err := process(inputs[0], oracleLeft, oracleRight, j.LeftArity); err != nil {
		return nil, 0, err
	}
	if err := process(inputs[1], oracleRight, oracleLeft, j.RightArity); err != nil {
		return nil, 0, err
	}
	evictedFrom = len(out) // rows from here on are emitted by eviction

	// Watermark eviction: drop expired entries; on the preserved side of an
	// outer join, emit unmatched expired rows null-padded.
	if ctx.Watermark > 0 {
		type rewrite struct {
			key  []byte
			data []byte // nil = remove
		}
		var changes []rewrite
		var iterErr error
		store.Iterate(func(k, v []byte) bool {
			if len(k) == 0 {
				return true
			}
			side := k[0]
			eventIdx := j.LeftEventIdx
			if side == oracleRight {
				eventIdx = j.RightEventIdx
			}
			if eventIdx < 0 {
				return true
			}
			entries, err := oracleDecodeEntries(v)
			if err != nil {
				iterErr = err
				return false
			}
			kept := entries[:0:0]
			for _, e := range entries {
				if e.ts >= 0 && e.ts < oracleEvictBefore(j, side, ctx.Watermark) {
					if !e.matched {
						if side == oracleLeft && j.Type == logical.LeftOuterJoin {
							emit(e.row, nil)
						} else if side == oracleRight && j.Type == logical.RightOuterJoin {
							emit(nil, e.row)
						}
					}
					continue
				}
				kept = append(kept, e)
			}
			if len(kept) != len(entries) {
				key := append([]byte(nil), k...)
				if len(kept) == 0 {
					changes = append(changes, rewrite{key: key})
				} else {
					changes = append(changes, rewrite{key: key, data: oracleEncodeEntries(kept)})
				}
			}
			return true
		})
		if iterErr != nil {
			return nil, 0, iterErr
		}
		for _, c := range changes {
			if c.data == nil {
				store.Remove(c.key)
			} else {
				store.Put(c.key, c.data)
			}
		}
	}
	return out, evictedFrom, nil
}
