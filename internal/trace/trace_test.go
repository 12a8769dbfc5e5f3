package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndOpenStage(t *testing.T) {
	et := StartEpoch("q", 3, "microbatch", time.Now())
	if et.Finished() {
		t.Fatal("a started epoch reads as finished")
	}

	plan := et.StartSpan("planning")
	if got := et.OpenStage(); got != "planning" {
		t.Errorf("OpenStage = %q, want planning", got)
	}
	et.EndSpanWith(plan, 3*time.Millisecond)
	if plan.DurationMicros != 3000 {
		t.Errorf("planning lasted %d µs, want the 3000 it was ended with", plan.DurationMicros)
	}

	fetch := et.StartSpan("getBatch")
	fetch.SetAttr("rows", 42)
	child := fetch.Child("source:events")
	child.End()
	if got := et.OpenStage(); got != "getBatch" {
		t.Errorf("OpenStage = %q, want getBatch", got)
	}
	et.EndSpanWith(fetch, time.Millisecond)
	if got := et.OpenStage(); got != "" {
		t.Errorf("OpenStage after all ends = %q, want empty", got)
	}
	et.AddStage("sinkCommit", time.Now(), 5*time.Millisecond)
	et.Finish()

	if !et.Finished() {
		t.Error("Finish did not mark the epoch finished")
	}
	got := et
	names := map[string]bool{}
	for _, c := range got.Root.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"planning", "getBatch", "sinkCommit"} {
		if !names[want] {
			t.Errorf("missing child span %q (have %v)", want, got.Root.Children)
		}
	}
	if got.Root.DurationMicros < 0 {
		t.Errorf("root duration = %d", got.Root.DurationMicros)
	}
}

// TestFinishIsIdempotent: the watchdog seals an abandoned epoch; when its
// goroutine returns and finishes it again, the root keeps its first timing.
func TestFinishIsIdempotent(t *testing.T) {
	et := StartEpoch("q", 0, "microbatch", time.Now())
	et.Finish()
	sealed := et.Root.DurationMicros
	time.Sleep(2 * time.Millisecond)
	et.Finish()
	if et.Root.DurationMicros != sealed {
		t.Fatalf("second Finish re-timed the root: %d µs, was %d", et.Root.DurationMicros, sealed)
	}
}

func TestWriteJSONLines(t *testing.T) {
	var traces []*EpochTrace
	for i := int64(0); i < 3; i++ {
		et := StartEpoch("orders", i, "microbatch", time.Now())
		et.StartSpan("planning").End()
		et.Finish()
		traces = append(traces, et)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, traces); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var et struct {
			Query string `json:"query"`
			Epoch int64  `json:"epoch"`
			Root  *Span  `json:"root"`
		}
		if err := json.Unmarshal([]byte(line), &et); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if et.Query != "orders" || et.Epoch != int64(i) || et.Root == nil {
			t.Errorf("line %d = %+v", i, et)
		}
	}
}

func TestWriteChromeFormat(t *testing.T) {
	et := StartEpoch("q", 7, "microbatch", time.Now())
	sp := et.StartSpan("getBatch")
	sp.SetAttr("rows", 10)
	time.Sleep(time.Millisecond) // the root's measured duration must not round to 0 µs
	et.EndSpanWith(sp, time.Millisecond)
	et.Finish()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*EpochTrace{et}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string           `json:"name"`
			Ph   string           `json:"ph"`
			TS   int64            `json:"ts"`
			Dur  int64            `json:"dur"`
			TID  int64            `json:"tid"`
			Args map[string]int64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != 2 { // root + getBatch
		t.Fatalf("got %d events, want 2", len(out.TraceEvents))
	}
	var sawFetch bool
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.TID != 7 {
			t.Errorf("event %q tid = %d, want epoch 7", ev.Name, ev.TID)
		}
		if ev.Dur <= 0 || ev.TS <= 0 {
			t.Errorf("event %q has ts=%d dur=%d", ev.Name, ev.TS, ev.Dur)
		}
		if ev.Name == "getBatch" {
			sawFetch = true
			if ev.Args["rows"] != 10 {
				t.Errorf("getBatch args = %v", ev.Args)
			}
		}
	}
	if !sawFetch {
		t.Error("no getBatch event")
	}
}

// TestConcurrentSpans: spans attach to one epoch from several goroutines
// while an exporter snapshots the tree — an abandoned epoch's goroutine is
// still writing when /trace reads it; must be race-free (run with -race).
func TestConcurrentSpans(t *testing.T) {
	et := StartEpoch("q", 0, "continuous", time.Now())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := et.StartSpan("read")
				sp.SetAttr("i", int64(i))
				et.EndSpanWith(sp, time.Microsecond)
			}
		}()
	}
	var exporters sync.WaitGroup
	exporters.Add(1)
	go func() {
		defer exporters.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			_ = WriteChrome(&buf, []*EpochTrace{et})
		}
	}()
	wg.Wait()
	et.Finish()
	exporters.Wait()
	if len(et.Root.Children) != 800 {
		t.Fatalf("children = %d, want 800", len(et.Root.Children))
	}
}
