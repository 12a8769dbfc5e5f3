package busstream

import (
	"fmt"
	"testing"

	"structream/internal/msgbus"
	"structream/internal/sql"
)

func countTopology(t *testing.T, broker *msgbus.Broker) *Topology {
	t.Helper()
	topo, err := NewTopology(broker, "test",
		&MapProcessor{Fn: func(row sql.Row) sql.Row {
			if row[1].(int64) < 0 {
				return nil
			}
			return row
		}},
		func(row sql.Row) string { return row[0].(string) },
		func(prev, row sql.Row) sql.Row {
			var n int64
			if prev != nil {
				n = prev[0].(int64)
			}
			return sql.Row{n + 1}
		})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func input(n int) []sql.Row {
	rows := make([]sql.Row, n)
	for i := range rows {
		rows[i] = sql.Row{fmt.Sprintf("k%d", i%3), int64(i%5 - 1)}
	}
	return rows
}

func TestRunCountsByKey(t *testing.T) {
	broker := msgbus.NewBroker()
	topo := countTopology(t, broker)
	if err := topo.Run(input(100)); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, row := range topo.Table().View() {
		total += row[0].(int64)
	}
	if total != 80 { // 20 filtered
		t.Errorf("total = %d", total)
	}
}

func TestEveryRecordCrossesTheBus(t *testing.T) {
	// The defining property of this engine: survivors of the map stage are
	// produced to the repartition topic AND every state update appends to
	// the changelog.
	broker := msgbus.NewBroker()
	topo := countTopology(t, broker)
	if err := topo.Run(input(50)); err != nil {
		t.Fatal(err)
	}
	repart, _ := broker.Topic("test-repartition")
	changelog, _ := broker.Topic("test-store-changelog")
	if got := repart.TotalRecords(); got != 40 {
		t.Errorf("repartition records = %d, want 40", got)
	}
	if got := changelog.TotalRecords(); got != 40 {
		t.Errorf("changelog records = %d, want 40 (one per update)", got)
	}
}

func TestKTableDirect(t *testing.T) {
	broker := msgbus.NewBroker()
	table, err := NewKTable(broker, "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Get("missing"); ok {
		t.Error("missing key found")
	}
	table.Put("a", sql.Row{int64(1)})
	table.Put("a", sql.Row{int64(2)})
	if row, _ := table.Get("a"); row[0] != int64(2) {
		t.Errorf("a = %v", row)
	}
	if len(table.View()) != 1 {
		t.Errorf("len = %d", len(table.View()))
	}
}
