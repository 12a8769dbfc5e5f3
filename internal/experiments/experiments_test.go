package experiments

import (
	"strings"
	"testing"
	"time"
)

// The experiment tests use small workloads: they verify the harness runs
// end to end and the shapes point the right way; cmd/ssbench runs the
// full-size versions.

func TestFig6aSmall(t *testing.T) {
	r, err := RunFig6a(200_000, 1, func() string { return t.TempDir() })
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Results) != 3 {
		t.Fatalf("results = %v", r.Results)
	}
	if r.SSOverBus <= 1 {
		t.Errorf("SS should beat the bus-per-record engine, ratio = %.2f", r.SSOverBus)
	}
	out := r.String()
	if !strings.Contains(out, "Fig 6a") || !strings.Contains(out, "records/s") {
		t.Errorf("render = %q", out)
	}
}

func TestFig6bShape(t *testing.T) {
	model, err := CalibrateYahoo(300_000, func() string { return t.TempDir() })
	if err != nil {
		t.Fatal(err)
	}
	if model.MapCostPerRecord <= 0 {
		t.Fatalf("model = %+v", model)
	}
	r, err := RunFig6b(model, []int{1, 5, 10, 20}, 200_000_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %v", r.Points)
	}
	// Near-linear: 20 nodes must give at least 12x over 1 node, and
	// throughput must be monotonic in cluster size.
	last := r.Points[len(r.Points)-1]
	if last.Speedup < 12 || last.Speedup > 20.5 {
		t.Errorf("20-node speedup = %.1f, want near-linear", last.Speedup)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].RecordsPerSec <= r.Points[i-1].RecordsPerSec {
			t.Errorf("throughput not monotonic at %d nodes", r.Points[i].Nodes)
		}
	}
	if !strings.Contains(r.String(), "Fig 6b") {
		t.Error("render missing header")
	}
}

func TestFig7Small(t *testing.T) {
	r, err := RunFig7([]int64{20_000, 50_000}, 600*time.Millisecond, func() string { return t.TempDir() })
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %+v", r.Points)
	}
	for _, p := range r.Points {
		if p.Samples == 0 {
			t.Errorf("rate %d collected no latency samples", p.TargetRate)
		}
		if !p.Backlogged && p.P50Millis > 250 {
			t.Errorf("rate %d: unsaturated p50 = %.1f ms, too high", p.TargetRate, p.P50Millis)
		}
	}
	if r.MicrobatchMaxThroughput <= 0 {
		t.Error("no microbatch reference measured")
	}
}

func TestRunOnceSavings(t *testing.T) {
	r, err := RunRunOnce(500_000, func() string { return t.TempDir() })
	if err != nil {
		t.Fatal(err)
	}
	if r.Savings <= 1 {
		t.Errorf("savings = %.1f, run-once must be cheaper than 24/7", r.Savings)
	}
	if !strings.Contains(r.String(), "cost savings") {
		t.Error("render missing savings")
	}
}

func TestRecoveryAblation(t *testing.T) {
	r, err := RunRecovery(300_000, func() string { return t.TempDir() })
	if err != nil {
		t.Fatal(err)
	}
	if r.SSRecoverSecs <= 0 || r.SSEpochSecs <= 0 {
		t.Fatalf("result = %+v", r)
	}
	// Recovery re-runs the one epoch that was in flight, not the stream.
	if want := r.Records / int64(r.Epochs); r.SSReplayedRecs != want {
		t.Errorf("recovery re-ran %d records, want one epoch's %d", r.SSReplayedRecs, want)
	}
	// The dataflow baseline reprocesses everything since the last barrier.
	if r.DFReprocessedRecs <= 0 {
		t.Errorf("dataflow reprocessed %d records", r.DFReprocessedRecs)
	}
	if !strings.Contains(r.String(), "rolled back") {
		t.Error("render missing rollback line")
	}
}

func TestAdaptiveBatching(t *testing.T) {
	r, err := RunAdaptive(5000, 3, func() string { return t.TempDir() })
	if err != nil {
		t.Fatal(err)
	}
	// Find the catch-up epoch: one epoch must have absorbed the whole
	// backlog, and later epochs must be small again.
	var catchup bool
	var lastSmall bool
	for i, e := range r.Trace {
		if e.InputRows >= r.BacklogRows {
			catchup = true
		}
		if i == len(r.Trace)-1 && e.InputRows <= 2 {
			lastSmall = true
		}
	}
	if !catchup {
		t.Errorf("no catch-up epoch in trace: %+v", r.Trace)
	}
	if !lastSmall {
		t.Errorf("steady-state epochs did not shrink: %+v", r.Trace)
	}
	if !strings.Contains(r.String(), "catch-up epoch") {
		t.Error("render missing catch-up marker")
	}
}
