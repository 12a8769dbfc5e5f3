package dataflow

import (
	"fmt"
	"testing"

	"structream/internal/sql"
)

// buildCountTopology counts rows per key with a map stage in front.
func buildCountTopology() *Topology {
	t := NewTopology()
	t.AddStage(false, &MapOperator{Fn: func(row sql.Row) sql.Row {
		if row[1].(int64) < 0 {
			return nil // filter negatives
		}
		return row
	}})
	t.AddStage(true, &KeyedReduceOperator{
		KeyFn: func(row sql.Row) string { return row[0].(string) },
		UpdateFn: func(state any, row sql.Row) (any, sql.Row) {
			var n int64
			if state != nil {
				n = state.(int64)
			}
			return n + 1, nil
		},
	})
	return t
}

func counts(t *Topology) map[string]int64 {
	out := map[string]int64{}
	for k, v := range t.Stage(1).(*KeyedReduceOperator).State() {
		out[k] = v.(int64)
	}
	return out
}

func input(n int) []sql.Row {
	rows := make([]sql.Row, n)
	for i := range rows {
		rows[i] = sql.Row{fmt.Sprintf("k%d", i%3), int64(i%5 - 1)}
	}
	return rows
}

func TestRunCountsByKey(t *testing.T) {
	topo := buildCountTopology()
	if err := topo.Run(input(100)); err != nil {
		t.Fatal(err)
	}
	got := counts(topo)
	// 100 rows, i%5==0 → value -1 filtered (20 rows dropped).
	var total int64
	for _, n := range got {
		total += n
	}
	if total != 80 {
		t.Errorf("total = %d, want 80", total)
	}
}

func TestEmptyTopologyRejected(t *testing.T) {
	if err := NewTopology().Run(input(1)); err == nil {
		t.Error("empty topology should error")
	}
}

func TestCheckpointAndRestore(t *testing.T) {
	topo := buildCountTopology()
	topo.CheckpointEvery = 30
	if err := topo.Run(input(100)); err != nil {
		t.Fatal(err)
	}
	beforeRestore := counts(topo)
	// Restore rolls state back to the last barrier, the one at record 90:
	// what a topology that only ever saw the first 90 records holds.
	if err := topo.RestoreLastCheckpoint(); err != nil {
		t.Fatal(err)
	}
	prefix := buildCountTopology()
	if err := prefix.Run(input(90)); err != nil {
		t.Fatal(err)
	}
	afterRestore, want := counts(topo), counts(prefix)
	if len(afterRestore) != len(want) {
		t.Errorf("restored %v, want the state at record 90, %v", afterRestore, want)
	}
	for k, n := range want {
		if afterRestore[k] != n {
			t.Errorf("key %s: %d after restore, want %d (state at record 90)", k, afterRestore[k], n)
		}
	}
	// Reprocessing from the checkpoint record recovers the exact totals:
	// records 90..100 (8 survive the filter).
	if err := topo.Run(input(100)[90:]); err != nil {
		t.Fatal(err)
	}
	final := counts(topo)
	for k, n := range beforeRestore {
		if final[k] != n {
			t.Errorf("key %s: %d after recovery, want %d", k, final[k], n)
		}
	}
}

func TestRestoreWithoutCheckpointClears(t *testing.T) {
	topo := buildCountTopology()
	if err := topo.Run(input(10)); err != nil {
		t.Fatal(err)
	}
	if err := topo.RestoreLastCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := counts(topo); len(got) != 0 {
		t.Errorf("state after empty restore = %v", got)
	}
}

func TestKeyedExchangeSerializes(t *testing.T) {
	// The keyed edge must hand the operator a decoded copy, not the same
	// row object (Flink's default non-reuse behaviour).
	var seen sql.Row
	topo := NewTopology()
	topo.AddStage(true, &MapOperator{Fn: func(row sql.Row) sql.Row {
		seen = row
		return nil
	}})
	in := sql.Row{"a", int64(1)}
	if err := topo.Run([]sql.Row{in}); err != nil {
		t.Fatal(err)
	}
	if &seen[0] == &in[0] {
		t.Error("keyed exchange passed the row by reference; should serialize")
	}
	if seen[0] != "a" || seen[1] != int64(1) {
		t.Errorf("row content changed across exchange: %v", seen)
	}
}
