package yahoo

import (
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(1000, 10, 100_000, 42)
	b := Generate(1000, 10, 100_000, 42)
	if len(a.Events) != 1000 || len(b.Events) != 1000 {
		t.Fatal("wrong event count")
	}
	for i := range a.Events {
		for c := range a.Events[i] {
			if a.Events[i][c] != b.Events[i][c] {
				t.Fatalf("event %d differs", i)
			}
		}
	}
	if a.Views == 0 || a.Views == 1000 {
		t.Errorf("views = %d; event types should be mixed", a.Views)
	}
	if len(a.Campaigns) != 100 {
		t.Errorf("campaigns = %d", len(a.Campaigns))
	}
}

func TestExpectedWindowsConsistent(t *testing.T) {
	w := Generate(5000, 10, 100_000, 7)
	want := w.ExpectedWindows()
	var total int64
	for _, n := range want {
		total += n
	}
	if total != w.Views {
		t.Errorf("window counts sum to %d, views = %d", total, w.Views)
	}
}

func TestPartitionCoversAllEvents(t *testing.T) {
	w := Generate(103, 5, 100_000, 1)
	parts := w.Partition(4)
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n != 103 {
		t.Errorf("partitioned %d of 103", n)
	}
}

// TestAllEnginesAgree is the core cross-engine correctness check: the
// three engines must produce byte-identical (campaign, window) counts on
// the same workload (each runner verifies internally and errors on any
// mismatch).
func TestAllEnginesAgree(t *testing.T) {
	w := Generate(20_000, 20, 100_000, 11)

	ss, err := RunStructuredStreaming(w, t.TempDir(), 1)
	if err != nil {
		t.Fatalf("structured streaming: %v", err)
	}
	df, err := RunDataflow(w)
	if err != nil {
		t.Fatalf("dataflow: %v", err)
	}
	bs, err := RunBusStream(w)
	if err != nil {
		t.Fatalf("busstream: %v", err)
	}
	if ss.Groups != df.Groups || df.Groups != bs.Groups {
		t.Errorf("group counts: ss=%d df=%d bs=%d", ss.Groups, df.Groups, bs.Groups)
	}
	for _, r := range []Result{ss, df, bs} {
		if r.RecordsPerSec <= 0 || r.Records != 20_000 {
			t.Errorf("suspicious result: %+v", r)
		}
	}
}

func TestStructuredStreamingPartitioned(t *testing.T) {
	w := Generate(10_000, 10, 100_000, 5)
	if _, err := RunStructuredStreaming(w, t.TempDir(), 4); err != nil {
		t.Fatalf("partitioned run: %v", err)
	}
}
