package codec

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// prunedSchema covers every vector kind, so a fuzzed record can drift or
// truncate inside any of them.
var prunedSchema = sql.NewSchema(
	sql.Field{Name: "i", Type: sql.TypeInt64},
	sql.Field{Name: "s", Type: sql.TypeString},
	sql.Field{Name: "f", Type: sql.TypeFloat64},
	sql.Field{Name: "b", Type: sql.TypeBool},
	sql.Field{Name: "w", Type: sql.TypeWindow},
	sql.Field{Name: "a", Type: sql.TypeAny},
	sql.Field{Name: "t", Type: sql.TypeString},
)

// maskedCols allocates one-slot vectors for the schema columns whose bit is
// set in mask; the others stay nil (stepped over).
func maskedCols(schema sql.Schema, mask uint8) []*vec.Vector {
	cols := make([]*vec.Vector, schema.Len())
	for c := range cols {
		if mask&(1<<uint(c)) != 0 {
			cols[c] = vec.NewVector(vec.KindOf(schema.Field(c).Type), 1)
		}
	}
	return cols
}

// wrappingLength is a one-column record whose string length varint decodes
// to 2⁶³: int(sl) is negative, so a signed `pos+sw+int(sl) > len(buf)` check
// passes and the slice expression below it panics.
func wrappingLength() []byte {
	buf := binary.AppendUvarint(nil, 1)
	buf = append(buf, tagString)
	buf = binary.AppendUvarint(buf, 1<<63)
	return append(buf, "payload"...)
}

func TestDecodeRejectsWrappingLength(t *testing.T) {
	rec := wrappingLength()
	if _, err := DecodeRow(rec); err == nil {
		t.Fatal("boxed decoder accepted a wrapping string length")
	}
	col := vec.NewVector(vec.KindString, 1)
	if added, compat := DecodeRowToBatchShared(rec, []*vec.Vector{col}, 0, 1); added || !compat {
		t.Fatalf("typed decoder returned added=%v compat=%v, want a skipped row", added, compat)
	}
	if added, compat := DecodeRowToBatchShared(rec, []*vec.Vector{nil}, 0, 1); added || !compat {
		t.Fatalf("pruned decoder returned added=%v compat=%v, want a skipped row", added, compat)
	}
	// The column-block decoder reads the same value layout without the row
	// length prefix.
	if ok, err := DecodeColumnToVector(rec[1:], vec.NewVector(vec.KindString, 1), 1); ok || err == nil {
		t.Fatalf("column decoder returned ok=%v err=%v, want an error", ok, err)
	}
}

// FuzzDecodeRowPruned feeds arbitrary bytes and an arbitrary keep mask to
// the three decoders of a bus record. The boxed decoder is the reference:
//   - it rejects (malformed / wrong arity) ⇔ the pruned and the full typed
//     decoder skip the record;
//   - it accepts ⇒ each typed decoder either lands the row with exactly the
//     boxed cells in every column it keeps, or reports a type drift in a
//     column it keeps — never in one it steps over.
func FuzzDecodeRowPruned(f *testing.F) {
	good := EncodeRow(sql.Row{int64(7), "view", 1.5, true, sql.Window{Start: 0, End: 10}, []byte{1}, "10.0.0.1"})
	f.Add(good, uint8(0b0100101))
	f.Add(good, uint8(0))
	f.Add(good[:len(good)-3], uint8(0b0000001))                                               // truncated inside the last, skipped column
	f.Add(EncodeRow(sql.Row{int64(7), int64(8), 1.5, true, nil, nil, "x"}), uint8(0b1111101)) // drift in a skipped column
	f.Add(EncodeRow(sql.Row{"seven", "view", 1.5, true, nil, nil, "x"}), uint8(0b0000001))    // drift in a kept column
	f.Add(wrappingLength(), uint8(0b10))
	f.Add(append(binary.AppendUvarint(nil, 7), 0xee), uint8(0x7f)) // unknown tag
	f.Fuzz(func(t *testing.T, rec []byte, mask uint8) {
		want, err := DecodeRow(rec)
		accepted := err == nil && len(want) == prunedSchema.Len()
		for _, m := range []uint8{mask, 0x7f} {
			cols := maskedCols(prunedSchema, m)
			added, compat := DecodeRowToBatchShared(rec, cols, 0, 1)
			if !accepted {
				if added {
					t.Fatalf("mask %07b: typed decoder kept a record the boxed decoder rejects (%v)", m, err)
				}
				// compat=false is allowed: the batch is then redone boxed,
				// which drops the record.
				continue
			}
			if !compat {
				drift := false
				for c, col := range cols {
					if col != nil && want[c] != nil && !kindHolds(col.Kind, want[c]) {
						drift = true
					}
				}
				if !drift {
					t.Fatalf("mask %07b: type drift reported, but every kept cell of %v fits its column", m, want)
				}
				continue
			}
			if !added {
				t.Fatalf("mask %07b: typed decoder skipped a record the boxed decoder accepts: %v", m, want)
			}
			for c, col := range cols {
				if col == nil {
					continue
				}
				if got := col.Get(0); !cellEq(got, want[c]) {
					t.Fatalf("mask %07b col %d: typed cell %v, boxed cell %v", m, c, got, want[c])
				}
			}
		}
	})
}

func kindHolds(k vec.Kind, v sql.Value) bool {
	switch v.(type) {
	case int64:
		return k == vec.KindInt64 || k == vec.KindAny
	case float64:
		return k == vec.KindFloat64 || k == vec.KindAny
	case bool:
		return k == vec.KindBool || k == vec.KindAny
	case string:
		return k == vec.KindString || k == vec.KindAny
	case sql.Window:
		return k == vec.KindWindow || k == vec.KindAny
	}
	return k == vec.KindAny
}

func cellEq(a, b sql.Value) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return valueEq(a, b)
}

// ysbEventSchema is the benchmark's ad-event layout: the Yahoo! query reads
// ad_id, event_type and event_time and steps over the other four.
var ysbEventSchema = sql.NewSchema(
	sql.Field{Name: "user_id", Type: sql.TypeInt64},
	sql.Field{Name: "page_id", Type: sql.TypeInt64},
	sql.Field{Name: "ad_id", Type: sql.TypeInt64},
	sql.Field{Name: "ad_type", Type: sql.TypeString},
	sql.Field{Name: "event_type", Type: sql.TypeString},
	sql.Field{Name: "event_time", Type: sql.TypeTimestamp},
	sql.Field{Name: "ip", Type: sql.TypeString},
)

// BenchmarkDecodeVec decodes one 8 192-record slice per iteration into a
// reused batch, every column (all) or only the three the Yahoo! query reads
// (pruned).
func BenchmarkDecodeVec(b *testing.B) {
	const n = 8192
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = EncodeRow(sql.Row{int64(i * 7919 % 100000), int64(i * 104729 % 100000), int64(i % 1000),
			[]string{"banner", "modal", "sponsored-search", "mail", "mobile"}[i%5],
			[]string{"view", "click", "purchase"}[i%3],
			int64(1_600_000_000_000_000 + i*100), "10.140.7.1"})
	}
	for _, tc := range []struct {
		name string
		mask uint8
	}{{"all", 0x7f}, {"pruned", 1<<2 | 1<<4 | 1<<5}} {
		b.Run(tc.name, func(b *testing.B) {
			cols := make([]*vec.Vector, ysbEventSchema.Len())
			for c := range cols {
				if tc.mask&(1<<uint(c)) != 0 {
					cols[c] = vec.NewVector(vec.KindOf(ysbEventSchema.Field(c).Type), n)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, rec := range recs {
					if added, compat := DecodeRowToBatchShared(rec, cols, r, n); !added || !compat {
						b.Fatalf("record %d: added=%v compat=%v", r, added, compat)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			rows := float64(b.N) * n
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
		})
	}
}
