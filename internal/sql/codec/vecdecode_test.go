package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

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
	return maskedColsN(schema, mask, 1)
}

// maskedColsN is maskedCols with n slots.
func maskedColsN(schema sql.Schema, mask uint8, n int) []*vec.Vector {
	cols := make([]*vec.Vector, schema.Len())
	for c := range cols {
		if mask&(1<<uint(c)) != 0 {
			cols[c] = vec.NewVector(vec.KindOf(schema.Field(c).Type), n)
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
//
// The decode program runs the record as a run's record followed by 0 to
// runMargin bytes of the run: with runMargin its steps may take the record,
// with fewer the general decoder does. It also runs the record among good
// records, across and inside its spans. Each time it must give the
// per-record typed decoder's answer: the same kept or dropped records, the
// same cells, the same compat.
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
	// What the program's steps hand to the general decoder: an arity
	// of 128, whose header takes two bytes, and this schema's arity in two
	// bytes; a 128-byte string, whose length does too; a NULL in each kept
	// column; drift in a column stepped over.
	wide := make(sql.Row, 128)
	for c := range wide {
		wide[c] = int64(c)
	}
	f.Add(EncodeRow(wide), uint8(0x5f))
	f.Add(append([]byte{0x87, 0x00}, good[1:]...), uint8(0x5f))
	f.Add(EncodeRow(sql.Row{int64(7), strings.Repeat("v", 128), 1.5, true, nil, nil, "x"}), uint8(0b1011111))
	for c := range prunedSchema.Len() {
		row := sql.Row{int64(7), "view", 1.5, true, sql.Window{Start: 0, End: 10}, nil, "x"}
		row[c] = nil
		f.Add(EncodeRow(row), uint8(0b1011111))
	}
	f.Add(EncodeRow(sql.Row{"seven", "view", 1.5, true, nil, nil, "x"}), uint8(0b1011110))
	// Cut after the window's tag: the widest loads, both varints read from
	// past the record's end.
	window := len(EncodeRow(sql.Row{int64(7), "view", 1.5, true}))
	f.Add(good[:window+1], uint8(0x5f))
	f.Add(good[:window+1], uint8(0b0001111))
	f.Fuzz(func(t *testing.T, rec []byte, mask uint8) {
		want, err := DecodeRow(rec)
		accepted := err == nil && len(want) == prunedSchema.Len()
		for _, m := range []uint8{mask, 0x7f, 0x5f} {
			cols := maskedCols(prunedSchema, m)
			added, compat := DecodeRowToBatchShared(rec, cols, 0, 1)
			p := sameAsProgram(t, prunedSchema, m, rec, cols, added, compat)
			sameInRuns(t, m, p, rec)
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

// sameAsProgram runs rec through schema's decode program for mask, followed
// by 0 to runMargin bytes of its run — the steps may take it only with
// runMargin — and fails the test where a run differs from the per-record
// decoder's answer (added, compat) and cells (cols). It returns the program.
func sameAsProgram(t *testing.T, schema sql.Schema, mask uint8, rec []byte, cols []*vec.Vector, added, compat bool) *DecodeProgram {
	t.Helper()
	keep := make([]bool, schema.Len())
	for c := range keep {
		keep[c] = mask&(1<<uint(c)) != 0
	}
	p := CompileDecode(schema, keep)
	// The record follows a copy of itself, so its end offsets do not start
	// at zero; the bytes after it hold stop bits and continuation bits both.
	L := len(rec)
	vals := append(append(append([]byte(nil), rec...), rec...), bytes.Repeat([]byte{0x81, 0x01}, runMargin/2)...)
	for after := 0; after <= runMargin; after++ {
		run := vals[: 2*L+after : 2*L+after]
		got := maskedCols(schema, mask)
		n, ok := p.DecodeRun(run, []uint32{uint32(L), uint32(2 * L)}, got, 0, 1)
		if ok != compat || ok && (n == 1) != added {
			t.Fatalf("mask %07b, %d bytes after: program landed %d record(s), compat=%v; per-record decoder added=%v compat=%v",
				mask, after, n, ok, added, compat)
		}
		// Landed or not, a string cell aliases only its own record's bytes:
		// the slot may outlive the record in a reused batch.
		for _, col := range got {
			if col != nil && col.Kind == vec.KindString && col.Strings[0] != "" {
				at := uintptr(unsafe.Pointer(unsafe.StringData(col.Strings[0]))) - uintptr(unsafe.Pointer(&run[0]))
				if at < uintptr(L) || at+uintptr(len(col.Strings[0])) > uintptr(2*L) {
					t.Fatalf("mask %07b, %d bytes after: a string cell aliases run bytes [%d, %d), the record is [%d, %d)",
						mask, after, at, at+uintptr(len(col.Strings[0])), L, 2*L)
				}
			}
		}
		if !ok || n == 0 {
			continue
		}
		for c, col := range cols {
			if col != nil && !cellEq(got[c].Get(0), col.Get(0)) {
				t.Fatalf("mask %07b, %d bytes after, col %d: program cell %v, per-record cell %v",
					mask, after, c, got[c].Get(0), col.Get(0))
			}
		}
	}
	return p
}

// goodRecords is a run every step takes, each record's cells distinct from
// its neighbours'.
var goodRecords = func() [][]byte {
	recs := make([][]byte, 2*spanLen+8)
	for k := range recs {
		recs[k] = EncodeRow(sql.Row{int64(k*7919 - 1000), []string{"view", "click", "purchase"}[k%3], float64(k) / 2, k%2 == 0,
			sql.Window{Start: int64(k), End: int64(k) + 10}, []byte{byte(k)}, strings.Repeat("x", k%5)})
	}
	return recs
}()

// sameInRuns places rec, a record of prunedSchema that p was compiled for
// with mask, in a run of good records longer than two spans:
// first in a span, last in one, as both records either side of a span
// boundary, and last in the run with 0 to runMargin bytes after it (so it
// may end inside the slab's last runMargin bytes). It fails
// the test where the program's run differs from the per-record decoder's,
// record by record: compat, the slots that landed (a dropped record shifts
// the ones after it down) and every kept cell in them. A string cell in any
// slot, landed or not, aliases the bytes of one record only — in a landed
// slot with a value, the record that landed there.
func sameInRuns(t *testing.T, mask uint8, p *DecodeProgram, rec []byte) {
	t.Helper()
	runLen := len(goodRecords)
	for _, at := range [][]int{{0}, {spanLen - 1}, {spanLen}, {spanLen - 1, spanLen}, {runLen - 1}} {
		var vals []byte
		ends := []uint32{0}
		for k := range runLen {
			if slices.Contains(at, k) {
				vals = append(vals, rec...)
			} else {
				vals = append(vals, goodRecords[k]...)
			}
			ends = append(ends, uint32(len(vals)))
		}
		vals = append(vals, bytes.Repeat([]byte{0x81, 0x01}, runMargin/2)...)
		// The reference: each record alone through the per-record decoder.
		want := maskedColsN(prunedSchema, mask, runLen)
		var from []int // the record that landed in each slot
		wantOK := true
		for k := range runLen {
			added, compat := DecodeRowToBatchShared(vals[ends[k]:ends[k+1]:ends[k+1]], want, len(from), runLen)
			if !compat {
				wantOK = false
				break
			}
			if added {
				from = append(from, k)
			}
		}
		afters := []int{runMargin}
		if at[0] == runLen-1 {
			afters = []int{0, 1, runMargin / 2, runMargin - 1, runMargin}
		}
		for _, after := range afters {
			run := vals[: int(ends[runLen])+after : int(ends[runLen])+after]
			got := maskedColsN(prunedSchema, mask, runLen)
			n, ok := p.DecodeRun(run, ends, got, 0, runLen)
			if ok != wantOK || ok && n != len(from) {
				t.Fatalf("mask %07b, rec at %v, %d bytes after: program landed %d record(s), compat=%v; per-record decoder %d, compat=%v",
					mask, at, after, n, ok, len(from), wantOK)
			}
			for c, col := range got {
				if col == nil || col.Kind != vec.KindString {
					continue
				}
				for j, str := range col.Strings {
					if str == "" {
						continue
					}
					lo := int(uintptr(unsafe.Pointer(unsafe.StringData(str))) - uintptr(unsafe.Pointer(&run[0])))
					var k int
					if ok && j < n && !col.IsNull(j) {
						k = from[j]
					} else {
						k = sort.Search(runLen, func(k int) bool { return int(ends[k+1]) > lo })
					}
					if k >= runLen || lo < int(ends[k]) || lo+len(str) > int(ends[k+1]) {
						t.Fatalf("mask %07b, rec at %v, %d bytes after, col %d slot %d: string cell aliases run bytes [%d, %d), outside record %d",
							mask, at, after, c, j, lo, lo+len(str), k)
					}
				}
			}
			if !ok {
				continue
			}
			for c, col := range want {
				for j := 0; col != nil && j < n; j++ {
					if !slotEq(got[c], col, j) {
						t.Fatalf("mask %07b, rec at %v, %d bytes after, col %d slot %d (record %d): program cell %v, per-record cell %v",
							mask, at, after, c, j, from[j], got[c].Get(j), col.Get(j))
					}
				}
			}
		}
	}
}

// TestVarintBoundaries pins where the varint reader switches between its word
// path and encoding/binary: a varint of every width from 1 to 10, at every
// column of a three-int64 record, with 0–9 bytes after the record, and every
// prefix of each record. The typed decoder — every column kept, and every
// subset stepped over — must accept exactly the records the boxed decoder
// accepts, with its cells, and the decode program must give the typed
// decoder's answer (its last step is an int64 one here).
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
		sameAsProgram(t, schema, mask, rec, cols, added, compat)
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

// slotEq is cellEq over slot j of two vectors of one kind, unboxed.
func slotEq(a, b *vec.Vector, j int) bool {
	if a.IsNull(j) || b.IsNull(j) {
		return a.IsNull(j) == b.IsNull(j)
	}
	switch a.Kind {
	case vec.KindInt64:
		return a.Int64s[j] == b.Int64s[j]
	case vec.KindFloat64:
		return math.Float64bits(a.Float64s[j]) == math.Float64bits(b.Float64s[j])
	case vec.KindBool:
		return a.Bools[j] == b.Bools[j]
	case vec.KindString:
		return a.Strings[j] == b.Strings[j]
	case vec.KindWindow:
		return a.WStarts[j] == b.WStarts[j] && a.WEnds[j] == b.WEnds[j]
	}
	return cellEq(a.Get(j), b.Get(j))
}

func cellEq(a, b sql.Value) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return valueEq(a, b)
}
