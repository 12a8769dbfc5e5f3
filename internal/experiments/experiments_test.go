package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The experiment tests use small workloads: they verify the harness runs
// end to end and the shapes point the right way; cmd/ssbench runs the
// full-size versions.

// TestFig6aSmall: every engine records one run per round, and what is
// reported is each engine's median with its quartiles, the ratios being
// ratios of medians.
func TestFig6aSmall(t *testing.T) {
	const rounds = 3
	r, err := RunFig6a(200_000, rounds, func() string { return t.TempDir() })
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Engines) != 3 {
		t.Fatalf("engines = %+v", r.Engines)
	}
	out := r.String()
	medians := make([]float64, len(r.Engines))
	for i, e := range r.Engines {
		if len(e.RecordsPerSec) != rounds {
			t.Errorf("%s: %d runs recorded, want %d", e.Engine, len(e.RecordsPerSec), rounds)
		}
		q1, med, q3 := e.Quartiles()
		if !(0 < q1 && q1 <= med && med <= q3) {
			t.Errorf("%s: quartiles %.0f / %.0f / %.0f out of order", e.Engine, q1, med, q3)
		}
		for _, want := range []string{
			fmt.Sprintf("median %12.0f records/s", med),
			fmt.Sprintf("[Q1 %12.0f – Q3 %12.0f]", q1, q3),
			fmt.Sprintf("(%d runs", rounds),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: render lacks %q:\n%s", e.Engine, want, out)
			}
		}
		medians[i] = med
	}
	if r.SSOverDataflow != medians[0]/medians[1] || r.SSOverBus != medians[0]/medians[2] {
		t.Errorf("ratios %.3f, %.3f are not ratios of the medians %v", r.SSOverDataflow, r.SSOverBus, medians)
	}
	if r.SSOverBus <= 1 {
		t.Errorf("SS should beat the bus-per-record engine, ratio = %.2f", r.SSOverBus)
	}
	if !strings.Contains(out, "Fig 6a") {
		t.Errorf("render = %q", out)
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
