// Package dataflow implements a record-at-a-time streaming engine in the
// style of Apache Flink's DataStream runtime: a chain of long-lived
// operators, keyed state held in per-operator hash maps, and aligned
// barrier checkpoints flowing through the chain. It is the reproduction's
// stand-in for Flink 1.2.1 in the Yahoo! benchmark comparison (Fig 6a of
// the paper).
//
// The engine is deliberately faithful to the execution model the paper
// contrasts against: every record crosses operator boundaries
// individually (dynamic dispatch per record, a serialized copy across each
// keyed exchange), instead of Structured Streaming's fused whole-batch
// pipelines. That difference — not implementation sloppiness — is where
// the measured gap comes from, mirroring the Trill observation the paper
// cites.
package dataflow

import (
	"fmt"

	"structream/internal/sql"
	"structream/internal/sql/codec"
)

// Operator transforms records one at a time. Collect emits downstream.
type Operator interface {
	// ProcessRecord handles one record, emitting zero or more records via
	// collect.
	ProcessRecord(row sql.Row, collect func(sql.Row))
	// Snapshot captures operator state at a barrier (aligned
	// checkpointing); the returned value is retained by the checkpoint
	// coordinator.
	Snapshot() any
	// Restore resets operator state from a snapshot (nil = empty).
	Restore(snapshot any)
}

// MapOperator applies fn per record (fn may drop by returning nil).
type MapOperator struct {
	Fn func(sql.Row) sql.Row
}

// ProcessRecord implements Operator.
func (m *MapOperator) ProcessRecord(row sql.Row, collect func(sql.Row)) {
	if out := m.Fn(row); out != nil {
		collect(out)
	}
}

// Snapshot implements Operator (stateless).
func (m *MapOperator) Snapshot() any { return nil }

// Restore implements Operator (stateless).
func (m *MapOperator) Restore(any) {}

// KeyedReduceOperator maintains per-key state updated record by record —
// the Flink keyed-state pattern. KeyFn extracts the key, UpdateFn folds a
// record into the key's state and returns the (possibly nil) record to
// emit downstream.
type KeyedReduceOperator struct {
	KeyFn    func(sql.Row) string
	UpdateFn func(state any, row sql.Row) (newState any, emit sql.Row)
	state    map[string]any
}

// ProcessRecord implements Operator.
func (k *KeyedReduceOperator) ProcessRecord(row sql.Row, collect func(sql.Row)) {
	if k.state == nil {
		k.state = map[string]any{}
	}
	key := k.KeyFn(row)
	newState, emit := k.UpdateFn(k.state[key], row)
	k.state[key] = newState
	if emit != nil {
		collect(emit)
	}
}

// State exposes the operator's keyed state (for draining results).
func (k *KeyedReduceOperator) State() map[string]any {
	if k.state == nil {
		k.state = map[string]any{}
	}
	return k.state
}

// Snapshot implements Operator: copy the keyed state map.
func (k *KeyedReduceOperator) Snapshot() any {
	cp := make(map[string]any, len(k.state))
	for key, v := range k.state {
		cp[key] = v
	}
	return cp
}

// Restore implements Operator.
func (k *KeyedReduceOperator) Restore(snapshot any) {
	if snapshot == nil {
		k.state = map[string]any{}
		return
	}
	k.state = snapshot.(map[string]any)
}

// stage is one operator of the chain.
type stage struct {
	op    Operator
	keyed bool // the edge into op is a keyed exchange
}

// Topology is a linear chain of operator stages — sufficient for the Yahoo
// benchmark query and representative of typical keyed pipelines.
type Topology struct {
	stages []stage
	// CheckpointEvery triggers an aligned barrier every n source records
	// (0 disables checkpointing).
	CheckpointEvery int64

	lastCkpt []any // operator snapshots at the latest barrier; nil = none yet
}

// NewTopology creates an empty topology.
func NewTopology() *Topology { return &Topology{} }

// AddStage appends op to the chain. keyed makes the edge into op a keyed
// exchange (a network shuffle in real Flink); otherwise op is chained to
// the previous stage directly.
func (t *Topology) AddStage(keyed bool, op Operator) *Topology {
	t.stages = append(t.stages, stage{op: op, keyed: keyed})
	return t
}

// Stage returns the i-th stage's operator (for result draining).
func (t *Topology) Stage(i int) Operator { return t.stages[i].op }

// RestoreLastCheckpoint rolls every operator back to the latest completed
// checkpoint — whole-topology rollback, the recovery granularity the paper
// contrasts with Spark's per-task re-execution (§6.2). With no checkpoint
// yet, every operator restores to empty.
func (t *Topology) RestoreLastCheckpoint() error {
	for i, st := range t.stages {
		var snap any
		if t.lastCkpt != nil {
			snap = t.lastCkpt[i]
		}
		st.op.Restore(snap)
	}
	return nil
}

// Run pushes records through the topology synchronously on the calling
// goroutine, record at a time with per-stage dynamic dispatch — the cost
// profile of a single Flink task chain.
func (t *Topology) Run(input []sql.Row) error {
	if len(t.stages) == 0 {
		return fmt.Errorf("dataflow: empty topology")
	}
	for i, row := range input {
		t.processOne(row, 0)
		if t.CheckpointEvery > 0 && int64(i+1)%t.CheckpointEvery == 0 {
			t.checkpoint()
		}
	}
	return nil
}

// processOne routes one record through stages s..end recursively — every
// hop is a function call with an interface dispatch, as in a fused Flink
// operator chain. A keyed edge is a data exchange: the record is
// serialized and deserialized across it, as Flink does by default for any
// non-forward channel (object reuse off).
func (t *Topology) processOne(row sql.Row, s int) {
	if s >= len(t.stages) {
		return
	}
	st := t.stages[s]
	if st.keyed {
		wire := codec.EncodeRow(row)
		decoded, err := codec.DecodeRow(wire)
		if err == nil {
			row = decoded
		}
	}
	st.op.ProcessRecord(row, func(out sql.Row) {
		t.processOne(out, s+1)
	})
}

// checkpoint performs an aligned snapshot of every operator.
func (t *Topology) checkpoint() {
	snaps := make([]any, len(t.stages))
	for i, st := range t.stages {
		snaps[i] = st.op.Snapshot()
	}
	t.lastCkpt = snaps
}
