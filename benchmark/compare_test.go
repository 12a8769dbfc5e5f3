package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSet writes one untraced result per value of throughput for workload
// into a fresh directory and returns it.
func writeSet(t *testing.T, workload string, throughput ...float64) string {
	t.Helper()
	dir := t.TempDir()
	for i, v := range throughput {
		r := resultFile{Workload: workload, Seed: int64(i), Correct: true, Attempted: 1, Metrics: map[string]metricOut{}}
		for _, m := range endToEndMetrics {
			r.Metrics[m.name] = metricOut{Value: 1, Unit: m.unit}
		}
		r.Metrics["throughput_rows_s"] = metricOut{Value: v, Unit: "rows/s"}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Join(dir, workload+".seed"+string(rune('0'+i))+".result.json")
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCompare(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name       string
		a, b       string
		exit       int
		wantOutput string
	}{
		{"same values agree", writeSet(t, "map-bulk", steady...), writeSet(t, "map-bulk", steady...), 0, "agree"},
		{"a slower set differs", writeSet(t, "map-bulk", steady...), writeSet(t, "map-bulk", 60, 61, 59, 60, 62, 58, 60, 61, 59, 60), 1, "differ (worse)"},
		{"a wide set is unresolved", writeSet(t, "map-bulk", steady...), writeSet(t, "map-bulk", 60, 140, 100, 70, 130, 90, 110, 65, 135, 100), 1, "unresolved"},
		{"disjoint workloads are reported, not dereferenced", writeSet(t, "map-bulk", steady...), writeSet(t, "ysb-bulk", steady...), 1, "missing from one set"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := runCompare(&out, c.a, c.b); got != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.exit, out.String())
		}
		if !strings.Contains(out.String(), c.wantOutput) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.wantOutput, out.String())
		}
	}
}
