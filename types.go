// Package structream is a Go implementation of Structured Streaming
// (Armbrust et al., SIGMOD 2018): a declarative API that automatically
// incrementalizes static relational queries — written with DataFrame
// combinators or SQL — and executes them over streams with exactly-once
// semantics, event-time watermarks, stateful operators, and rich
// operational features (restart, rollback, run-once execution, hybrid
// batch/stream).
//
// The package re-exports the engine's data model so applications never
// import internal packages:
//
//	s := structream.NewSession()
//	df, _ := s.ReadStream().FormatJSON(dir, schema)
//	counts := df.GroupBy(structream.Col("country")).Count()
//	q, _ := counts.WriteStream().OutputMode(structream.Complete).
//		Format("memory").QueryName("counts").Start("")
package structream

import (
	"time"

	"structream/internal/engine"
	"structream/internal/sql"
	"structream/internal/sql/logical"
)

// Row is one record: a slice of values. Concrete value types are nil (SQL
// NULL), bool, int64, float64, string, Window and []byte.
type Row = sql.Row

// Value is one cell of a row.
type Value = sql.Value

// Schema is an ordered list of named, typed columns.
type Schema = sql.Schema

// Field is one column of a schema.
type Field = sql.Field

// Window is an event-time window value, produced by the Window function.
type Window = sql.Window

// DataType identifies a SQL column type.
type DataType = sql.Type

// The supported column types.
const (
	Bool      DataType = sql.TypeBool
	Int64     DataType = sql.TypeInt64
	Float64   DataType = sql.TypeFloat64
	String    DataType = sql.TypeString
	Timestamp DataType = sql.TypeTimestamp
	Interval  DataType = sql.TypeInterval
	WindowT   DataType = sql.TypeWindow
	Binary    DataType = sql.TypeBinary
)

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) Schema { return sql.NewSchema(fields...) }

// Expr is a scalar expression usable in Select, Where, GroupBy, joins, etc.
type Expr = sql.Expr

// OutputMode specifies how the result table is written to the sink (§4.2
// of the paper).
type OutputMode = logical.OutputMode

// The three output modes.
const (
	Append   = logical.Append
	Update   = logical.Update
	Complete = logical.Complete
)

// GroupState is the per-key state handle of MapGroupsWithState (§4.3.2).
type GroupState = logical.GroupState

// UpdateFunc is the user function of FlatMapGroupsWithState: given a key,
// the new values for that key, and the state handle, return output rows.
type UpdateFunc = logical.UpdateFunc

// TimeoutKind selects MapGroupsWithState timeout semantics.
type TimeoutKind = logical.TimeoutKind

// Timeout kinds.
const (
	NoTimeout             = logical.NoTimeout
	ProcessingTimeTimeout = logical.ProcessingTimeTimeout
	EventTimeTimeout      = logical.EventTimeTimeout
)

// Trigger controls when the engine computes a new increment.
type Trigger = engine.Trigger

// ProcessingTime looks for new data every interval. 0, the default, runs
// an epoch as soon as a source signals that data arrived (see
// engine.ProcessingTimeTrigger for when a timer remains).
func ProcessingTime(interval time.Duration) Trigger {
	return engine.ProcessingTimeTrigger{Interval: interval}
}

// Once processes a single epoch covering all available data, then stops —
// the §7.3 "run-once" trigger for discontinuous processing.
func Once() Trigger { return engine.OnceTrigger{} }

// AvailableNow processes everything available at start (possibly over
// several rate-limited epochs), then stops.
func AvailableNow() Trigger { return engine.AvailableNowTrigger{} }

// Continuous selects the low-latency continuous processing mode (§6.3)
// with the given epoch-commit interval.
func Continuous(epochInterval time.Duration) Trigger {
	return engine.ContinuousTrigger{EpochInterval: epochInterval}
}

// StreamingQuery is the handle to a running query.
type StreamingQuery = engine.StreamingQuery

// TimestampValue converts a time.Time to the engine representation
// (microseconds since the Unix epoch).
func TimestampValue(t time.Time) int64 { return sql.TimestampVal(t) }
