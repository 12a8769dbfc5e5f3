package physical

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/vec"
)

func TestBroadcastTableChainsKeepArrivalOrder(t *testing.T) {
	schema := sql.NewSchema(
		sql.Field{Name: "k", Type: sql.TypeString},
		sql.Field{Name: "v", Type: sql.TypeInt64},
	)
	rows := []sql.Row{
		{"a", int64(0)}, {nil, int64(1)}, {"b", int64(2)}, {"a", int64(3)},
		{"", int64(4)}, {"a", int64(5)}, {nil, int64(6)}, {"", int64(7)},
	}
	key := []func(sql.Row) sql.Value{func(r sql.Row) sql.Value { return r[0] }}
	table := NewBroadcastTable(schema, rows, key)
	if table.unique {
		t.Fatal("keys repeat, the table claims they do not")
	}
	if table.Cols == nil || len(table.Cols) != 2 {
		t.Fatalf("static side did not columnarize: %v", table.Cols)
	}
	chain := func(k sql.Value) []int32 {
		var out []int32
		for r := table.Lookup([]sql.Value{k}); r >= 0; r = table.Next(r) {
			out = append(out, r)
		}
		return out
	}
	for k, want := range map[sql.Value][]int32{"a": {0, 3, 5}, "b": {2}, "": {4, 7}, "zz": nil} {
		if got := chain(k); !reflect.DeepEqual(got, want) {
			t.Errorf("rows for key %q = %v, want %v", k, got, want)
		}
	}
	// NULL never equals NULL: a probe with a NULL key finds nothing.
	if got := chain(nil); got != nil {
		t.Errorf("NULL key matched rows %v", got)
	}

	if !NewBroadcastTable(schema, rows[1:3], key).unique {
		t.Error("a NULL-keyed row made the table non-unique")
	}
	empty := NewBroadcastTable(schema, nil, key)
	if empty.Lookup([]sql.Value{"a"}) != -1 || !empty.unique {
		t.Error("empty table matched a key")
	}
	if drifted := NewBroadcastTable(schema, []sql.Row{{"a", "not-an-int"}}, key); drifted.Cols != nil {
		t.Error("a drifted static side must not offer columns to gather from")
	}
}

// TestBroadcastIndexMatchesEncoding holds the typed index to its contract:
// a stream key finds exactly the static rows whose key has the same codec
// encoding, in arrival order, whether the row stage (Lookup over the boxed
// key) or the vector twin (probe over the key vectors) asks, and a key
// with a NULL finds nothing. It runs once with the real hash and once with
// every key forced onto one hash, where only the typed compare separates
// keys.
func TestBroadcastIndexMatchesEncoding(t *testing.T) {
	defer func(m uint64) { keyHashMask = m }(keyHashMask)
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	ints := []sql.Value{int64(0), int64(1), int64(-1), int64(1 << 40), int64(math.MinInt64), int64(7)}
	floats := []sql.Value{0.0, math.Copysign(0, -1), nan1, nan2, 1.5, -2.25, 1.0}
	bools := []sql.Value{true, false}
	wins := []sql.Value{sql.Window{Start: 0, End: 10}, sql.Window{Start: 10, End: 20}, sql.Window{Start: 0, End: 20}, sql.Window{Start: -10, End: 0}}
	strs := []sql.Value{"", "a", "view", "click", "12345678", "123456789", "a-string-id-well-over-eight-bytes", "a-string-id-well-over-eight-byteS"}
	type side struct {
		types []sql.Type
		pools [][]sql.Value
	}
	for _, shape := range []struct {
		name           string
		static, stream side
	}{
		{"int64", side{[]sql.Type{sql.TypeInt64}, [][]sql.Value{ints[:4]}}, side{[]sql.Type{sql.TypeInt64}, [][]sql.Value{ints}}},
		{"timestamp", side{[]sql.Type{sql.TypeTimestamp}, [][]sql.Value{ints[:4]}}, side{[]sql.Type{sql.TypeTimestamp}, [][]sql.Value{ints}}},
		{"float", side{[]sql.Type{sql.TypeFloat64}, [][]sql.Value{floats[:5]}}, side{[]sql.Type{sql.TypeFloat64}, [][]sql.Value{floats}}},
		{"bool", side{[]sql.Type{sql.TypeBool}, [][]sql.Value{bools[:1]}}, side{[]sql.Type{sql.TypeBool}, [][]sql.Value{bools}}},
		{"window", side{[]sql.Type{sql.TypeWindow}, [][]sql.Value{wins[:3]}}, side{[]sql.Type{sql.TypeWindow}, [][]sql.Value{wins}}},
		{"string", side{[]sql.Type{sql.TypeString}, [][]sql.Value{strs[:6]}}, side{[]sql.Type{sql.TypeString}, [][]sql.Value{strs}}},
		{"int64-string", side{[]sql.Type{sql.TypeInt64, sql.TypeString}, [][]sql.Value{ints[:3], strs[:5]}},
			side{[]sql.Type{sql.TypeInt64, sql.TypeString}, [][]sql.Value{ints[:4], strs}}},
		{"window-float", side{[]sql.Type{sql.TypeWindow, sql.TypeFloat64}, [][]sql.Value{wins[:2], floats[:4]}},
			side{[]sql.Type{sql.TypeWindow, sql.TypeFloat64}, [][]sql.Value{wins[:3], floats}}},
		// int64 never matches float64, however equal the numbers.
		{"int64-vs-float", side{[]sql.Type{sql.TypeFloat64}, [][]sql.Value{floats}}, side{[]sql.Type{sql.TypeInt64}, [][]sql.Value{ints}}},
		// A static key column whose values drift in type is held boxed.
		{"drifted", side{[]sql.Type{sql.TypeInt64}, [][]sql.Value{{int64(0), int64(1), "1", "view", 1.0}}},
			side{[]sql.Type{sql.TypeInt64}, [][]sql.Value{ints}}},
		// A boxed stream key column hashes and compares like a typed one.
		{"boxed-stream", side{[]sql.Type{sql.TypeInt64, sql.TypeString}, [][]sql.Value{ints[:4], strs[:4]}},
			side{[]sql.Type{sql.TypeAny, sql.TypeString}, [][]sql.Value{append(append([]sql.Value(nil), ints...), "1", 1.0), strs[:5]}}},
	} {
		rng := rand.New(rand.NewSource(62))
		// rowsOf draws n rows of a side's key columns and a position column,
		// a NULL key cell one time in eight.
		rowsOf := func(sd side, n int) (sql.Schema, []sql.Row) {
			fields := []sql.Field{{Name: "pos", Type: sql.TypeInt64}}
			for c, typ := range sd.types {
				fields = append(fields, sql.Field{Name: fmt.Sprintf("k%d", c), Type: typ})
			}
			rows := make([]sql.Row, n)
			for r := range rows {
				row := sql.Row{int64(r)}
				for _, pool := range sd.pools {
					var v sql.Value
					if rng.Intn(8) != 0 {
						v = pool[rng.Intn(len(pool))]
					}
					row = append(row, v)
				}
				rows[r] = row
			}
			return sql.NewSchema(fields...), rows
		}
		staticSchema, staticRows := rowsOf(shape.static, 60)
		streamSchema, streamRows := rowsOf(shape.stream, 300)
		nk := len(shape.static.types)
		var staticEvals []func(sql.Row) sql.Value
		var keyProgs []*vec.Program
		for c := 1; c <= nk; c++ {
			staticEvals = append(staticEvals, func(r sql.Row) sql.Value { return r[c] })
			prog, ok := vec.Compile(sql.Col(fmt.Sprintf("k%d", c-1)), streamSchema)
			if !ok {
				t.Fatalf("%s: stream key k%d does not compile", shape.name, c-1)
			}
			keyProgs = append(keyProgs, prog)
		}
		// want[i] are the static rows, in order, whose key encodes like
		// stream row i's; none when either key holds a NULL.
		encode := func(r sql.Row) (string, bool) {
			for _, v := range r[1 : 1+nk] {
				if v == nil {
					return "", false
				}
			}
			return codec.KeyString(r[1 : 1+nk]), true
		}
		want := make([][]int32, len(streamRows))
		matched := 0
		for i, sr := range streamRows {
			sk, ok := encode(sr)
			for r, st := range staticRows {
				if k, kok := encode(st); ok && kok && k == sk {
					want[i] = append(want[i], int32(r))
				}
			}
			if len(want[i]) > 0 {
				matched++
			}
		}
		if shape.name != "int64-vs-float" && matched < len(streamRows)/4 {
			t.Fatalf("%s: only %d of %d stream keys have a match", shape.name, matched, len(streamRows))
		}
		stream, ok := vec.FromRows(streamSchema, streamRows)
		if !ok {
			t.Fatalf("%s: stream rows do not columnarize", shape.name)
		}
		for _, mask := range []uint64{^uint64(0), 0} {
			keyHashMask = mask
			table := NewBroadcastTable(staticSchema, staticRows, staticEvals)
			if boxed := table.keys[0].Kind == vec.KindAny; boxed != (shape.name == "drifted") {
				t.Fatalf("%s: static key held boxed: %v", shape.name, boxed)
			}
			seen, dup := map[string]bool{}, false
			for _, st := range staticRows {
				if k, ok := encode(st); ok {
					dup = dup || seen[k]
					seen[k] = true
				}
			}
			if table.unique == dup {
				t.Errorf("%s (mask %x): table claims unique=%v", shape.name, mask, table.unique)
			}
			for i, sr := range streamRows {
				var got []int32
				for r := table.Lookup(sr[1 : 1+nk]); r >= 0; r = table.Next(r) {
					got = append(got, r)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s (mask %x): row probe of %v found %v, want %v", shape.name, mask, sr[1:], got, want[i])
				}
			}
			j := &vecBroadcastJoin{BroadcastJoinSpec: BroadcastJoinSpec{Table: table}, keys: keyProgs}
			for _, live := range [][]int32{allLanes(len(streamRows)), everyThird(len(streamRows))} {
				lanes, rows := j.probe(stream, live)
				wantLanes, wantRows := []int32{}, []int32{}
				for _, lane := range live {
					for _, r := range want[lane] {
						wantLanes, wantRows = append(wantLanes, lane), append(wantRows, r)
					}
				}
				if !reflect.DeepEqual(lanes, wantLanes) || !reflect.DeepEqual(rows, wantRows) {
					t.Fatalf("%s (mask %x): vector probe found (lanes %v, rows %v), want (%v, %v)", shape.name, mask, lanes, rows, wantLanes, wantRows)
				}
			}
		}
	}
}

func allLanes(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

func everyThird(n int) []int32 {
	var s []int32
	for i := 1; i < n; i += 3 {
		s = append(s, int32(i))
	}
	return s
}
