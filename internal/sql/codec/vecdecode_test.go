package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
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
	// The varint reader's boundaries: int64s of 8, 9 and 10 bytes (the word
	// path's widest, and the stdlib's); a last varint that ends exactly
	// eight bytes after its tag, kept (a drift: the column is a string) and
	// stepped over; and the same record with that varint cut short.
	for _, v := range []int64{1 << 50, 1 << 55, math.MinInt64} {
		f.Add(EncodeRow(sql.Row{v, "view", 1.5, true, sql.Window{Start: 0, End: 10}, []byte{1}, "x"}), uint8(0x7f))
	}
	lastWord := EncodeRow(sql.Row{int64(7), "view", 1.5, true, nil, nil, int64(1 << 50)})
	f.Add(lastWord, uint8(0x7f))
	f.Add(lastWord, uint8(0b0111111))
	f.Add(lastWord[:len(lastWord)-1], uint8(0b0111111))
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

// TestVarintBoundaries pins where the varint reader switches between its word
// path and encoding/binary: a varint of every width from 1 to 10, at every
// column of a three-int64 record, with 0–9 bytes after the record, and every
// prefix of each record. The typed decoder — every column kept, and every
// subset stepped over — must accept exactly the records the boxed decoder
// accepts, with its cells.
func TestVarintBoundaries(t *testing.T) {
	schema := sql.NewSchema(
		sql.Field{Name: "a", Type: sql.TypeInt64},
		sql.Field{Name: "b", Type: sql.TypeInt64},
		sql.Field{Name: "c", Type: sql.TypeInt64},
	)
	var payloads [][]byte
	for w := 1; w <= binary.MaxVarintLen64; w++ {
		ux := uint64(1)<<(7*(w-1)) | 1 // a negative int64: the zig-zag sign bit set
		payloads = append(payloads, binary.AppendUvarint(nil, ux))
	}
	// Two payloads every decoder must refuse: a tenth byte above 1 and an
	// eleventh byte.
	tooBig := binary.AppendUvarint(nil, math.MaxUint64)
	tooBig[9] = 2
	tooLong := append(binary.AppendUvarint(nil, math.MaxUint64)[:9], 0x81, 0x00)
	payloads = append(payloads, tooBig, tooLong)

	accepted := 0
	for _, p := range payloads {
		v, pw := binary.Varint(p) // the cell, from code the decoders do not share
		for at := 0; at < 3; at++ {
			rec := binary.AppendUvarint(nil, 3)
			for c := 0; c < 3; c++ {
				rec = append(rec, tagInt64)
				if c == at {
					rec = append(rec, p...)
				} else {
					rec = append(rec, 0x02) // 1
				}
			}
			for tail := 0; tail <= 9; tail++ {
				// Trailing bytes all carry a continuation bit, so a reader that
				// ran past a stop bit would decode something else.
				full := append(append([]byte(nil), rec...), bytes.Repeat([]byte{0xff}, tail)...)
				for n := 0; n <= len(full); n++ {
					row := sameRecord(t, schema, full[:n])
					if row == nil {
						continue
					}
					accepted++
					if pw <= 0 || n < len(rec) || row[at] != v {
						t.Fatalf("%x: accepted as %v; the payload is %d, width %d", full[:n], row, v, pw)
					}
				}
			}
		}
	}
	// A well-formed record is accepted with 0..tail of its trailing bytes,
	// tail+1 prefixes per tail; every shorter prefix and both refused
	// payloads are rejected.
	if want := binary.MaxVarintLen64 * 3 * (10 * 11 / 2); accepted != want {
		t.Fatalf("%d records accepted, want %d", accepted, want)
	}
}

// sameRecord decodes rec boxed and typed under every keep mask of schema's
// columns, fails the test where they disagree, and returns the boxed row, or
// nil when the boxed decoder rejects rec.
func sameRecord(t *testing.T, schema sql.Schema, rec []byte) sql.Row {
	t.Helper()
	want, err := DecodeRow(rec)
	accepted := err == nil && len(want) == schema.Len()
	for mask := uint8(0); mask < 1<<schema.Len(); mask++ {
		cols := maskedCols(schema, mask)
		added, compat := DecodeRowToBatchShared(rec, cols, 0, 1)
		if !compat {
			t.Fatalf("%x mask %03b: type drift on an all-int64 record", rec, mask)
		}
		if added != accepted {
			t.Fatalf("%x mask %03b: typed decoder added=%v, boxed decoder accepted=%v (%v)", rec, mask, added, accepted, err)
		}
		if !added {
			continue
		}
		for c, col := range cols {
			if col != nil && !cellEq(col.Get(0), want[c]) {
				t.Fatalf("%x mask %03b col %d: typed cell %v, boxed cell %v", rec, mask, c, col.Get(0), want[c])
			}
		}
	}
	if !accepted {
		return nil
	}
	return want
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

// mapBulkSchema is the map-bulk workload's record: a value uniform in
// [0, 1 000 000) and a microsecond timestamp near 1.6·10¹⁵ (a 3- and an
// 8-byte varint).
var mapBulkSchema = sql.NewSchema(
	sql.Field{Name: "value", Type: sql.TypeInt64},
	sql.Field{Name: "produced", Type: sql.TypeTimestamp},
)

// BenchmarkDecodeVec decodes one 8 192-record slice per iteration into a
// reused batch: the Yahoo! event at every column (all) or only the three the
// query reads (pruned), and map-bulk's two-column record.
func BenchmarkDecodeVec(b *testing.B) {
	const n = 8192
	ysb := make([][]byte, n)
	for i := range ysb {
		ysb[i] = EncodeRow(sql.Row{int64(i * 7919 % 100000), int64(i * 104729 % 100000), int64(i % 1000),
			[]string{"banner", "modal", "sponsored-search", "mail", "mobile"}[i%5],
			[]string{"view", "click", "purchase"}[i%3],
			int64(1_600_000_000_000_000 + i*100), "10.140.7.1"})
	}
	rng := rand.New(rand.NewSource(1))
	mapBulk := make([][]byte, n)
	for i := range mapBulk {
		mapBulk[i] = EncodeRow(sql.Row{rng.Int63n(1_000_000), int64(1_600_000_000_000_000 + i)})
	}
	for _, tc := range []struct {
		name   string
		schema sql.Schema
		recs   [][]byte
		mask   uint8
	}{
		{"all", ysbEventSchema, ysb, 0x7f},
		{"pruned", ysbEventSchema, ysb, 1<<2 | 1<<4 | 1<<5},
		{"map-bulk", mapBulkSchema, mapBulk, 0b11},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cols := make([]*vec.Vector, tc.schema.Len())
			for c := range cols {
				if tc.mask&(1<<uint(c)) != 0 {
					cols[c] = vec.NewVector(vec.KindOf(tc.schema.Field(c).Type), n)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, rec := range tc.recs {
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
