// Package trace implements span-based epoch tracing for streaming queries
// (§7.4 of the paper's monitoring surface, grown into a real tracing
// layer). Every epoch opens a root span; the engine attaches child spans
// for each execution stage — planning, source fetch, operator execution,
// state read/write, WAL commit, sink commit — so "where did this epoch's
// latency go?" has an answer after the fact. This package is the tree and
// its export formats — JSON lines, and Chrome trace_event JSON loadable in
// chrome://tracing / Perfetto; which epochs' trees are retained is the
// business of the query's epoch ring (metrics.EpochRing), which keeps each
// beside the epoch's progress event and lineage. Every query traces every
// epoch, so no method here expects a nil receiver.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed section of an epoch. Spans form a tree under the
// epoch's root span. A span's wall-clock placement (Start) is real; its
// duration is either measured (Start/End) or attributed (AddCompleted),
// which is how aggregate stage costs from parallel tasks are recorded.
type Span struct {
	Name string `json:"name"`
	// StartMicros is the span's wall-clock start in Unix µs.
	StartMicros int64 `json:"startUs"`
	// DurationMicros is the span's duration in µs.
	DurationMicros int64 `json:"durUs"`
	// Attrs carries numeric span attributes (rows, bytes, task counts).
	Attrs    map[string]int64 `json:"attrs,omitempty"`
	Children []*Span          `json:"children,omitempty"`

	mu    sync.Mutex
	start time.Time // monotonic start for End()
	open  bool
}

// End closes a span started with StartSpan/Child, fixing its duration.
func (s *Span) End() {
	s.mu.Lock()
	if s.open {
		s.DurationMicros = time.Since(s.start).Microseconds()
		s.open = false
	}
	s.mu.Unlock()
}

// SetAttr records a numeric attribute on the span.
func (s *Span) SetAttr(key string, v int64) {
	s.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[key] = v
	s.mu.Unlock()
}

// Child starts a nested span under s.
func (s *Span) Child(name string) *Span {
	now := time.Now()
	c := &Span{Name: name, StartMicros: now.UnixMicro(), start: now, open: true}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// AddCompleted attaches an already-measured child span (used to attribute
// aggregate stage costs, e.g. summed source-read time across parallel
// tasks, onto the tree without having wrapped each task).
func (s *Span) AddCompleted(name string, start time.Time, d time.Duration) *Span {
	c := &Span{Name: name, StartMicros: start.UnixMicro(), DurationMicros: d.Microseconds()}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// clone deep-copies the span tree for race-free export while spans may
// still be mutated by a hung (abandoned) epoch goroutine.
func (s *Span) clone() *Span {
	s.mu.Lock()
	c := &Span{
		Name:           s.Name,
		StartMicros:    s.StartMicros,
		DurationMicros: s.DurationMicros,
	}
	if len(s.Attrs) > 0 {
		c.Attrs = make(map[string]int64, len(s.Attrs))
		for k, v := range s.Attrs {
			c.Attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, ch := range children {
		c.Children = append(c.Children, ch.clone())
	}
	return c
}

// EpochTrace is the span tree of one epoch.
type EpochTrace struct {
	Query string `json:"query"`
	Epoch int64  `json:"epoch"`
	// Mode is "microbatch" or "continuous".
	Mode string `json:"mode"`
	Root *Span  `json:"root"`

	mu    sync.Mutex
	stack []*Span // open stage spans, innermost last
	done  bool
}

// StartEpoch opens the span tree of one epoch of query. The root span starts
// at start, which may lie in the past — how the engine folds work that
// happened before the epoch body (offset planning) into the root's extent.
func StartEpoch(query string, epoch int64, mode string, start time.Time) *EpochTrace {
	return &EpochTrace{
		Query: query,
		Epoch: epoch,
		Mode:  mode,
		Root:  &Span{Name: "epoch", StartMicros: start.UnixMicro(), start: start, open: true},
	}
}

// StartSpan opens a stage span under the epoch's root and tracks it as the
// currently open stage (for OpenStage / watchdog verdicts).
func (t *EpochTrace) StartSpan(name string) *Span {
	s := t.Root.Child(name)
	t.mu.Lock()
	t.stack = append(t.stack, s)
	t.mu.Unlock()
	return s
}

// EndSpanWith closes a stage span opened with StartSpan, recording d as its
// duration, and pops it from the open-stage stack. d is the stage's measured
// wall time, or for a fused stage (e.g. a map stage interleaving source
// reads with operator execution) the proportional share of it that belongs
// to this stage name.
func (t *EpochTrace) EndSpanWith(s *Span, d time.Duration) {
	s.mu.Lock()
	if s.open {
		s.DurationMicros = d.Microseconds()
		s.open = false
	}
	s.mu.Unlock()
	t.mu.Lock()
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// AddStage attaches an already-measured stage span under the root — how
// aggregate costs from parallel tasks (summed read time, worker sink time)
// are attributed onto the tree.
func (t *EpochTrace) AddStage(name string, start time.Time, d time.Duration) *Span {
	return t.Root.AddCompleted(name, start, d)
}

// OpenStage names the innermost stage span still open — for a hung epoch,
// the stage the watchdog should blame. Empty when nothing is open.
func (t *EpochTrace) OpenStage() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return ""
	}
	return t.stack[len(t.stack)-1].Name
}

// SetAttr records an attribute on the epoch's root span.
func (t *EpochTrace) SetAttr(key string, v int64) {
	t.Root.SetAttr(key, v)
}

// Finish closes the root span. Finishing twice is a no-op, so an abandoned
// epoch sealed by the watchdog is not re-timed when its goroutine eventually
// returns.
func (t *EpochTrace) Finish() {
	t.mu.Lock()
	done := t.done
	t.done = true
	t.mu.Unlock()
	if !done {
		t.Root.End()
	}
}

// Finished reports whether the epoch is over — committed, failed or
// abandoned — as opposed to in flight.
func (t *EpochTrace) Finished() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// snapshot deep-copies a trace for export.
func (t *EpochTrace) snapshot() *EpochTrace {
	return &EpochTrace{Query: t.Query, Epoch: t.Epoch, Mode: t.Mode, Root: t.Root.clone()}
}

// WriteJSON exports traces as JSON lines, one epoch per line, in order.
func WriteJSON(w io.Writer, traces []*EpochTrace) error {
	for _, et := range traces {
		data, err := json.Marshal(et.snapshot())
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", data); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one trace_event record ("X" = complete event).
type chromeEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	TS   int64            `json:"ts"`
	Dur  int64            `json:"dur"`
	PID  int              `json:"pid"`
	TID  int64            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteChrome exports traces in Chrome trace_event format:
// {"traceEvents": [...]} with one "X" (complete) event per span, the epoch
// number as the thread id so chrome://tracing lays epochs out as rows.
func WriteChrome(w io.Writer, traces []*EpochTrace) error {
	var events []chromeEvent
	for _, et := range traces {
		snap := et.snapshot()
		var walk func(s *Span)
		walk = func(s *Span) {
			ev := chromeEvent{
				Name: s.Name,
				Ph:   "X",
				TS:   s.StartMicros,
				Dur:  s.DurationMicros,
				PID:  1,
				TID:  snap.Epoch,
				Args: s.Attrs,
			}
			if ev.Dur <= 0 {
				ev.Dur = 1 // zero-width spans vanish in the viewer
			}
			events = append(events, ev)
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(snap.Root)
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TID != events[j].TID {
			return events[i].TID < events[j].TID
		}
		return events[i].TS < events[j].TS
	})
	out := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{TraceEvents: events}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
