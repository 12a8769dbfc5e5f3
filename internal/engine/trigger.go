// Package engine implements query execution (§6 of the paper): the
// microbatch mode that runs each epoch as a stage of fine-grained tasks
// over the cluster substrate, the low-latency continuous mode for map-like
// queries, triggers, watermark tracking, exactly-once recovery from the
// write-ahead log and state store, and the operational features of §7
// (restart/code update, manual rollback, run-once execution, adaptive
// batching, progress monitoring).
package engine

import "time"

// Trigger controls when the engine computes a new increment (§4: "triggers
// control how often the engine will attempt to compute a new result and
// update the output sink").
type Trigger interface{ isTrigger() }

// ProcessingTimeTrigger with a positive Interval looks for new data every
// Interval of processing time, first one interval after Start, and runs
// epochs until none is left.
//
// The zero interval — the default trigger — runs the next epoch as soon as
// there is something to run (§6.2): whatever is available at Start, and from
// then on whenever a source signals that data arrived
// (sources.ArrivalNotifier: the message bus and the memory source do). An
// idle query blocks on that signal and makes no source call; no timer sits
// between an append and its epoch. A one-millisecond timer takes the
// signal's place only where one is needed: when some bound source cannot
// signal (files, the rate source, a wrapper that hides the extension), and
// for a query with processing-time timeouts, whose epochs must run with no
// data arriving.
type ProcessingTimeTrigger struct{ Interval time.Duration }

func (ProcessingTimeTrigger) isTrigger() {}

// OnceTrigger processes exactly one epoch covering all data available at
// start, then stops — the §7.3 "run-once" trigger customers use to run
// streaming jobs as scheduled batch jobs at up to 10× lower cost.
type OnceTrigger struct{}

func (OnceTrigger) isTrigger() {}

// AvailableNowTrigger processes all data available at start, possibly over
// multiple rate-limited epochs, then stops.
type AvailableNowTrigger struct{}

func (AvailableNowTrigger) isTrigger() {}

// ContinuousTrigger selects the continuous processing mode (§6.3) with the
// given epoch (checkpoint) interval.
type ContinuousTrigger struct{ EpochInterval time.Duration }

func (ContinuousTrigger) isTrigger() {}
