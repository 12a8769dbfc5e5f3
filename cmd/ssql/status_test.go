package main

import (
	"os"
	"strings"
	"testing"
	"time"

	structream "structream"
	"structream/internal/health"
	"structream/internal/metrics"
)

func fixtureProgress() metrics.QueryProgress {
	return metrics.QueryProgress{
		Epoch:            4,
		NumInputRows:     1000,
		NumOutputRows:    970,
		InputRowsPerSec:  2500,
		OutputRowsPerSec: 2425,
		ProcessingMillis: 4,
		ProcessingMicros: 4000,
		DurationBreakdown: map[string]int64{
			"planning":    200,
			"getBatch":    600,
			"execution":   900,
			"stateCommit": 300,
			"walCommit":   400,
			"sinkCommit":  1600,
		},
		BottleneckStage:      "sinkCommit",
		BackpressureDecision: "cap 2000→500: epoch took 4ms > target 1ms; bottleneck sinkCommit",
		Sources: []metrics.SourceProgress{{
			Name:         "events",
			StartOffsets: []int64{10},
			EndOffsets:   []int64{20},
			NumInputRows: 1000,
			ReadMicros:   600,
		}},
		Sink: &metrics.SinkProgress{Description: "console", NumOutputRows: 970, WriteMicros: 1600},
		StateOperators: []metrics.StateOperatorProgress{{
			Operator: "stateAgg", NumRowsTotal: 97, StateBytes: 4096,
			CacheHits: 90, CacheMisses: 7, DeltasWritten: 4,
		}},
		WatermarkMicros: 12345,
	}
}

func TestFormatStatus(t *testing.T) {
	got := formatStatus("q1", "Running", fixtureProgress(), true)
	for _, want := range []string{
		`query "q1": Running`,
		"epoch 4: 1000 rows in, 970 rows out (2500 in/s, 2425 out/s)",
		"processing time: 4ms",
		"duration breakdown:",
		"planning",
		"sinkCommit",
		"<- bottleneck",
		"backpressure: cap 2000→500",
		`source "events": 1000 rows, offsets [10] -> [20]`,
		"sink console: 970 rows",
		`state "stateAgg": 97 keys, 4096 bytes, cache 90/97 hit, 4 deltas`,
		"watermark: 12345µs",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("formatStatus missing %q:\n%s", want, got)
		}
	}
	// The bottleneck marker must sit on the sinkCommit line.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "<- bottleneck") && !strings.Contains(line, "sinkCommit") {
			t.Errorf("bottleneck marker on wrong line: %q", line)
		}
	}
	// Stages print in execution order.
	if strings.Index(got, "planning") > strings.Index(got, "sinkCommit") {
		t.Errorf("stages out of order:\n%s", got)
	}
}

func TestFormatStatusNoProgress(t *testing.T) {
	got := formatStatus("q1", "Running", metrics.QueryProgress{}, false)
	if !strings.Contains(got, "no epochs committed yet") {
		t.Errorf("formatStatus without progress:\n%s", got)
	}
}

func TestFormatMetrics(t *testing.T) {
	got := formatMetrics("q1", map[string]int64{
		"inputRows":    3,
		"epochs":       2,
		"epoch.us.p99": 840,
	})
	if !strings.Contains(got, `metrics for "q1":`) {
		t.Errorf("missing header:\n%s", got)
	}
	// Sorted output: epoch.us.p99 < epochs < inputRows.
	iP99 := strings.Index(got, "epoch.us.p99")
	iEpochs := strings.Index(got, "epochs")
	iRows := strings.Index(got, "inputRows")
	if iP99 < 0 || iEpochs < 0 || iRows < 0 || !(iP99 < iEpochs && iEpochs < iRows) {
		t.Errorf("metrics not sorted:\n%s", got)
	}
}

func TestFormatHealth(t *testing.T) {
	got := formatHealth(health.Report{
		Query:  "q1",
		Status: "anomalous",
		Signals: []health.SignalStatus{
			{Name: "epochLatencyUs", Last: 90000, Mean: 1200, Std: 300, Samples: 40, Trips: 1},
		},
		LastAnomaly: &health.Anomaly{
			Epoch: 38, Signal: "epochLatencyUs", Value: 90000, Mean: 1200, Std: 300,
			BundleID: "q1-1-1700000000000000",
		},
		Stamps: []health.Stamp{
			{Epoch: 38, IngestMicros: 1000, CommitMicros: 91000, DeliverMicros: 92000},
		},
		Partitions: []health.PartitionStat{{Stage: "map", Partition: 0, Rows: 500, Micros: 80000}},
		Bundles: []health.BundleInfo{{
			ID: "q1-1-1700000000000000", Signal: "epochLatencyUs", Epoch: 38, Files: 7, Bytes: 9000,
		}},
	})
	for _, want := range []string{
		`health for "q1": anomalous`,
		"epochLatencyUs",
		"last anomaly: epoch 38 epochLatencyUs=90000.0 (baseline 1200.0 ± 300.0) -> bundle q1-1-1700000000000000",
		"epoch 38: 90ms, 91ms",
		"partition map/0: 500 rows in 80ms",
		"bundle q1-1-1700000000000000: epochLatencyUs at epoch 38 (7 files, 9000 bytes)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("formatHealth missing %q:\n%s", want, got)
		}
	}
}

// TestWatchREPL drives the stdin command loop against a live query.
func TestWatchREPL(t *testing.T) {
	s := structream.NewSession()
	schema, err := parseSchema("country string, latency double")
	if err != nil {
		t.Fatal(err)
	}
	df, feed := s.MemoryStream("events", schema)
	q, err := df.SelectNames("country").WriteStream().
		QueryName("repl").
		Foreach(func(epoch int64, rows []structream.Row) error { return nil }).
		Trigger(structream.ProcessingTime(time.Hour)).
		Checkpoint(t.TempDir()).Start("")
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	feed.AddData(structream.Row{"CA", 1.0}, structream.Row{"US", 2.0})
	if err := q.ProcessAllAvailable(); err != nil {
		t.Fatal(err)
	}

	in := strings.NewReader(":status\n:metrics\n:health\n:subscribe\nbogus\n:quit\n")
	var out strings.Builder
	sig := make(chan os.Signal)
	done := make(chan struct{})
	go func() {
		watchREPL(q, nil, in, &out, sig)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watchREPL did not exit on :quit")
	}
	got := out.String()
	for _, want := range []string{
		`query "repl": Running`,
		"epoch 0: 2 rows in",
		"duration breakdown:",
		`metrics for "repl":`,
		"inputRows",
		`health for "repl": ok`,
		"signals (last / mean ± std, samples, trips):",
		"lineage (epoch: ingest->commit, end-to-end):",
		"no serving hub published",
		`unknown command "bogus"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("REPL output missing %q:\n%s", want, got)
		}
	}
}
