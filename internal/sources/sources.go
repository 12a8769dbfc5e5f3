// Package sources implements streaming input connectors. Every source
// satisfies the paper's replayability requirement (§3, §6.1): data is
// addressed by per-partition offsets, and any previously read offset range
// can be re-read byte-for-byte, which is what the engine's recovery and
// manual rollback lean on.
package sources

import (
	"fmt"
	"sync"

	"structream/internal/msgbus"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/vec"
)

// Offsets is a per-partition position vector. Offsets[i] addresses the next
// record to read from partition i.
type Offsets []int64

// Clone copies the vector.
func (o Offsets) Clone() Offsets { return append(Offsets(nil), o...) }

// Total sums the vector (a record count when offsets start at zero).
func (o Offsets) Total() int64 {
	var n int64
	for _, v := range o {
		n += v
	}
	return n
}

// Source is a replayable streaming input.
type Source interface {
	// Name identifies the source in the write-ahead log.
	Name() string
	// Schema is the row schema this source produces.
	Schema() sql.Schema
	// Partitions is the fixed partition count.
	Partitions() int
	// Latest returns the current end offsets (exclusive).
	Latest() (Offsets, error)
	// Earliest returns the oldest replayable offsets, bounding rollback.
	Earliest() (Offsets, error)
	// Read returns the rows of partition p in offset range [from, to). The
	// same range must always return the same rows.
	Read(p int, from, to int64) ([]sql.Row, error)
}

// VectorReader is an optional Source extension: ReadVec serves the
// offset range [from, to) of partition p as a typed column batch,
// skipping per-row allocation and boxing. ok=false (with no error)
// means the range cannot be represented columnar — a record's wire
// types drift from the schema, or the source has no columnar decode —
// and the caller must re-read the same range through Read, which
// returns the identical logical rows.
//
// The batch is handed over: the source keeps no reference to it or to its
// vectors, because the engine recycles them (vec.Batch.Release) once a
// task's output no longer points into them.
type VectorReader interface {
	ReadVec(p int, from, to int64) (b *vec.Batch, ok bool, err error)
}

// ColumnPruner is an optional Source extension for sources whose columnar
// decode can step over columns. PruneColumns returns a view of the source
// that differs only in its VectorReader batches: columns
// outside cols (schema positions, ascending) are validated but not
// decoded, and their Cols entries are nil. Everything else — Read
// included, which stays full width — is the source's own. The engine asks
// once, at query start, with the columns the compiled vector plan reads.
type ColumnPruner interface {
	PruneColumns(cols []int) Source
}

// ArrivalNotifier is an optional Source extension for sources that know when
// data arrives. NotifyArrival registers ch — capacity one — to be offered a
// token, without blocking, after every arrival becomes visible to Latest,
// until stop is called; tokens coalesce (see msgbus.Arrival, which also
// gives the ordering a waiter must keep to lose no wake-up). ok=false means
// this source cannot signal after all — a wrapper around one that does not —
// and nothing was registered. The engine waits on the channel instead of
// polling Latest when every source of a query signals.
type ArrivalNotifier interface {
	NotifyArrival(ch chan<- struct{}) (stop func(), ok bool)
}

// PartitionReader is declared only because benchmark/interpose.go (frozen)
// names the type; nothing implements it and the engine never asks for it.
type PartitionReader interface {
	ReadPartition(p int, from, to int64, n, of int) (b *vec.Batch, ok bool, err error)
}

// ---------------------------------------------------------------- bus

// BusSource reads a message-bus topic whose records are rows encoded with
// the binary row codec, the engine's native wire format.
type BusSource struct {
	name   string
	topic  *msgbus.Topic
	schema sql.Schema
	// prog decodes runs of records for ReadVec.
	prog *codec.DecodeProgram
	// keep marks the schema columns ReadVec decodes; nil decodes them all.
	keep []bool
}

// NewCodecBusSource reads rows encoded with the binary row codec. Read
// boxes them one by one; ReadVec decodes them straight into typed columns.
func NewCodecBusSource(name string, topic *msgbus.Topic, schema sql.Schema) *BusSource {
	return &BusSource{name: name, topic: topic, schema: schema, prog: codec.CompileDecode(schema, nil)}
}

// Name implements Source.
func (s *BusSource) Name() string { return s.name }

// Schema implements Source.
func (s *BusSource) Schema() sql.Schema { return s.schema }

// Partitions implements Source.
func (s *BusSource) Partitions() int { return s.topic.Partitions() }

// Latest implements Source.
func (s *BusSource) Latest() (Offsets, error) { return s.topic.LatestOffsets(), nil }

// Earliest implements Source.
func (s *BusSource) Earliest() (Offsets, error) { return s.topic.EarliestOffsets(), nil }

// Read implements Source.
func (s *BusSource) Read(p int, from, to int64) ([]sql.Row, error) {
	var buf [4]msgbus.Run
	runs, err := s.topic.Runs(p, from, to, buf[:0])
	if err != nil {
		return nil, err
	}
	out := make([]sql.Row, 0, runsLen(runs))
	for i := range runs {
		for k := range runs[i].Times {
			// A malformed record, or one of the wrong arity, drops.
			if row, err := codec.DecodeRow(runs[i].Value(k)); err == nil && len(row) == s.schema.Len() {
				out = append(out, row)
			}
		}
	}
	return out, nil
}

// runsLen returns the number of records in runs.
func runsLen(runs []msgbus.Run) int {
	n := 0
	for i := range runs {
		n += runs[i].Len()
	}
	return n
}

// PruneColumns implements ColumnPruner: a shallow copy whose ReadVec
// decodes only cols. A record malformed inside a skipped
// column still drops and one whose type drifts inside a kept column still
// sends the range to Read, so the view yields the rows the source does.
func (s *BusSource) PruneColumns(cols []int) Source {
	view := *s
	view.keep = make([]bool, s.schema.Len())
	for _, c := range cols {
		view.keep[c] = true
	}
	view.prog = codec.CompileDecode(s.schema, view.keep)
	return &view
}

// ReadVec implements VectorReader: it runs the source's decode program
// over each run of the range, straight into typed column vectors drawn
// from the batch pool, instead of one sql.Row plus one boxed value per
// cell. Malformed records skip exactly as in Read; a record whose wire
// types don't match the schema aborts the columnar decode (ok=false) so
// the caller re-reads boxed — the row path keeps such records, and the two
// paths must agree.
func (s *BusSource) ReadVec(p int, from, to int64) (*vec.Batch, bool, error) {
	var buf [4]msgbus.Run
	runs, err := s.topic.Runs(p, from, to, buf[:0])
	if err != nil {
		return nil, false, err
	}
	total := runsLen(runs)
	b := vec.GetBatch(s.schema, s.keep, total)
	n, compat := 0, true
	for _, r := range runs {
		// The log never rewrites a segment's bytes below its length, so the
		// program may read past a record into the next ones and string cells
		// may alias the run's bytes.
		if n, compat = s.prog.DecodeRun(r.Vals, r.Ends, b.Cols, n, total); !compat {
			b.Release()
			return nil, false, nil
		}
	}
	b.Len = n
	return b, true, nil
}

// NotifyArrival implements ArrivalNotifier with the topic's signal: any
// partition's Append wakes the waiter.
func (s *BusSource) NotifyArrival(ch chan<- struct{}) (stop func(), ok bool) {
	return s.topic.NotifyArrival(ch), true
}

// ---------------------------------------------------------------- partitioned

// PartitionedSource serves pre-generated, pre-partitioned rows without
// copying — the benchmark harness's input. It is fully replayable: rows
// never change after construction.
type PartitionedSource struct {
	name   string
	schema sql.Schema
	parts  [][]sql.Row
}

// NewPartitionedSource wraps per-partition row slices as a source. The
// slices must not be mutated afterwards.
func NewPartitionedSource(name string, schema sql.Schema, parts [][]sql.Row) *PartitionedSource {
	return &PartitionedSource{name: name, schema: schema, parts: parts}
}

// Name implements Source.
func (s *PartitionedSource) Name() string { return s.name }

// Schema implements Source.
func (s *PartitionedSource) Schema() sql.Schema { return s.schema }

// Partitions implements Source.
func (s *PartitionedSource) Partitions() int { return len(s.parts) }

// Latest implements Source.
func (s *PartitionedSource) Latest() (Offsets, error) {
	out := make(Offsets, len(s.parts))
	for i, p := range s.parts {
		out[i] = int64(len(p))
	}
	return out, nil
}

// Earliest implements Source.
func (s *PartitionedSource) Earliest() (Offsets, error) {
	return make(Offsets, len(s.parts)), nil
}

// Read implements Source.
func (s *PartitionedSource) Read(p int, from, to int64) ([]sql.Row, error) {
	if p < 0 || p >= len(s.parts) {
		return nil, fmt.Errorf("sources: partition %d out of range", p)
	}
	if from < 0 || to > int64(len(s.parts[p])) || from > to {
		return nil, fmt.Errorf("sources: range [%d,%d) out of bounds for partition %d", from, to, p)
	}
	return s.parts[p][from:to], nil
}

// ---------------------------------------------------------------- memory

// MemorySource is an in-memory, manually fed source for tests and
// interactive experiments. It has one partition; AddData appends rows.
type MemorySource struct {
	name   string
	schema sql.Schema

	mu      sync.Mutex
	rows    []sql.Row
	arrival msgbus.Arrival // fired by AddData
}

// NewMemorySource creates an empty memory source.
func NewMemorySource(name string, schema sql.Schema) *MemorySource {
	return &MemorySource{name: name, schema: schema}
}

// AddData appends rows to the stream.
func (s *MemorySource) AddData(rows ...sql.Row) {
	s.mu.Lock()
	for _, r := range rows {
		cp := make(sql.Row, len(r))
		for i, v := range r {
			cp[i] = sql.Normalize(v)
		}
		s.rows = append(s.rows, cp)
	}
	s.mu.Unlock()
	s.arrival.Fire()
}

// NotifyArrival implements ArrivalNotifier: every AddData wakes the waiter.
func (s *MemorySource) NotifyArrival(ch chan<- struct{}) (stop func(), ok bool) {
	return s.arrival.Notify(ch), true
}

// Name implements Source.
func (s *MemorySource) Name() string { return s.name }

// Schema implements Source.
func (s *MemorySource) Schema() sql.Schema { return s.schema }

// Partitions implements Source.
func (s *MemorySource) Partitions() int { return 1 }

// Latest implements Source.
func (s *MemorySource) Latest() (Offsets, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Offsets{int64(len(s.rows))}, nil
}

// Earliest implements Source.
func (s *MemorySource) Earliest() (Offsets, error) { return Offsets{0}, nil }

// Read implements Source.
func (s *MemorySource) Read(p int, from, to int64) ([]sql.Row, error) {
	if p != 0 {
		return nil, fmt.Errorf("sources: memory source has a single partition, got %d", p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if from < 0 || to > int64(len(s.rows)) || from > to {
		return nil, fmt.Errorf("sources: memory range [%d,%d) out of bounds (have %d)", from, to, len(s.rows))
	}
	out := make([]sql.Row, to-from)
	copy(out, s.rows[from:to])
	return out, nil
}
