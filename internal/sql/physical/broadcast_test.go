package physical

import (
	"reflect"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/codec"
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
		kb := []byte(codec.KeyString([]sql.Value{k}))
		var out []int32
		for r := table.Lookup(codec.HashBytes(kb), kb); r >= 0; r = table.Next(r) {
			out = append(out, r)
		}
		return out
	}
	for k, want := range map[sql.Value][]int32{"a": {0, 3, 5}, "b": {2}, "": {4, 7}, "zz": nil} {
		if got := chain(k); !reflect.DeepEqual(got, want) {
			t.Errorf("rows for key %q = %v, want %v", k, got, want)
		}
	}
	// NULL never equals NULL: a probe that encodes a NULL finds nothing.
	if got := chain(nil); got != nil {
		t.Errorf("NULL key matched rows %v", got)
	}

	if !NewBroadcastTable(schema, rows[1:3], key).unique {
		t.Error("a NULL-keyed row made the table non-unique")
	}
	empty := NewBroadcastTable(schema, nil, key)
	if kb := []byte(codec.KeyString([]sql.Value{"a"})); empty.Lookup(codec.HashBytes(kb), kb) != -1 || !empty.unique {
		t.Error("empty table matched a key")
	}
	if drifted := NewBroadcastTable(schema, []sql.Row{{"a", "not-an-int"}}, key); drifted.Cols != nil {
		t.Error("a drifted static side must not offer columns to gather from")
	}
}
