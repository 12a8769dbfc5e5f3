// Package sinks implements streaming output connectors. Sinks are
// idempotent by epoch (§3, §6.1 of the paper): re-delivering an epoch's
// batch after a failure replay leaves the sink's contents identical, which
// combined with the write-ahead log yields exactly-once output. Sinks that
// cannot be idempotent on their own (the message bus) get a transactional
// wrapper that records committed epochs.
package sinks

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
)

// Batch is one epoch's output delivered to a sink.
type Batch struct {
	Epoch int64
	// Sub distinguishes multiple deliveries within one epoch: the
	// continuous engine emits sub-batches per partition poll, each with a
	// unique Sub. Microbatch epochs always use Sub 0, and replaying an
	// (Epoch, Sub) pair replaces its previous content.
	Sub    int64
	Mode   logical.OutputMode
	Schema sql.Schema
	Rows   []sql.Row
	// Vecs carries the epoch's output as column batches instead of Rows
	// when the engine kept the pipeline vectorized end to end and the sink
	// implements ColumnSink. Exactly one of Rows/Vecs is populated.
	// Ownership transfers with delivery: the engine never mutates a batch
	// after handing it over, so sinks may retain the vectors without
	// copying.
	Vecs []*vec.Batch
	// KeyArity is the number of leading columns forming the logical key in
	// Update mode (0 means the whole row is the key).
	KeyArity int
}

// Sink receives epoch batches. AddBatch must be idempotent in Epoch: the
// engine may re-deliver the last epoch after recovery.
type Sink interface {
	AddBatch(b Batch) error
}

// ColumnSink is an optional Sink extension for sinks that can absorb
// column batches without materializing rows first. AddColumnBatch has the
// same (Epoch, Sub) idempotency contract as AddBatch; the delivered batch
// has Vecs set and Rows nil. Sinks that only sometimes avoid
// materialization may call Batch.Vecs[i].AppendRows themselves — the
// boxed rows are identical to what the row path would have delivered.
type ColumnSink interface {
	Sink
	AddColumnBatch(b Batch) error
}

// Describe names a sink's kind for the monitoring surface ("memory",
// "console", "columnar-file", ...). Custom sinks may implement
// `Description() string` to override the fallback type name.
func Describe(s Sink) string {
	type described interface{ Description() string }
	switch v := s.(type) {
	case described:
		return v.Description()
	case *MemorySink:
		return "memory"
	case *ConsoleSink:
		return "console"
	case *FileSink:
		return "columnar-file"
	case *JSONFileSink:
		return "json-file"
	case *BusSink:
		return "bus"
	case *TransactionalBusSink:
		return "transactional-bus"
	case *ForeachSink:
		return "foreach"
	default:
		return fmt.Sprintf("%T", s)
	}
}

// ---------------------------------------------------------------- memory

// MemorySink accumulates the result table in memory and serves consistent
// snapshots for interactive queries — the paper's "output to an in-memory
// Spark table that users can query interactively" (§3).
type MemorySink struct {
	mu      sync.Mutex
	schema  sql.Schema
	byEpoch map[epochSub][]sql.Row // append mode: rows per (epoch, sub)
	// vecByEpoch holds epochs delivered columnar (AddColumnBatch). Rows
	// materialize lazily on first read and memoize into byEpoch; a replay
	// that re-delivers the (epoch, sub) pair clears whichever
	// representation it replaces.
	vecByEpoch map[epochSub][]*vec.Batch
	complete   []sql.Row          // complete mode: latest full table
	keyed      map[string]sql.Row // update mode: upsert by key
	keyOrder   []string
	keyEnc     codec.Encoder // update mode: scratch for the row's key bytes
	mode       logical.OutputMode
	hasMode    bool
	epochs     []epochSub
	// retain bounds append-mode growth to the last retain distinct epochs
	// (0 = unlimited); floor is the newest epoch dropped by retention (-1
	// before any) and lastEpoch the newest epoch ever delivered (-1 before
	// any) — together they are the serving layer's replayable window.
	retain    int
	floor     int64
	lastEpoch int64
}

type epochSub struct{ epoch, sub int64 }

// NewMemorySink creates an empty memory sink.
func NewMemorySink() *MemorySink {
	return &MemorySink{
		byEpoch:    map[epochSub][]sql.Row{},
		vecByEpoch: map[epochSub][]*vec.Batch{},
		keyed:      map[string]sql.Row{},
		floor:      -1,
		lastEpoch:  -1,
	}
}

// AddBatch implements Sink.
func (s *MemorySink) AddBatch(b Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.schema = b.Schema
	if s.hasMode && s.mode != b.Mode {
		return fmt.Errorf("sinks: memory sink mode changed from %s to %s", s.mode, b.Mode)
	}
	s.mode, s.hasMode = b.Mode, true
	if b.Epoch > s.lastEpoch {
		s.lastEpoch = b.Epoch
	}
	switch b.Mode {
	case logical.Complete:
		s.complete = cloneRows(b.Rows)
	case logical.Append:
		if b.Epoch <= s.floor {
			return nil // retention already passed this epoch; drop the replay
		}
		key := epochSub{epoch: b.Epoch, sub: b.Sub}
		s.registerEpochLocked(key)
		s.byEpoch[key] = cloneRows(b.Rows) // replace: idempotent replay
		delete(s.vecByEpoch, key)
		s.enforceRetentionLocked()
	case logical.Update:
		ka := b.KeyArity
		if ka <= 0 || ka > b.Schema.Len() {
			ka = b.Schema.Len()
		}
		for _, r := range b.Rows {
			// Same bytes as codec.KeyString; the key string and the retained
			// row are allocated only the first time a key is seen.
			s.keyEnc.Reset()
			for _, v := range r[:ka] {
				s.keyEnc.PutValue(v)
			}
			old, ok := s.keyed[string(s.keyEnc.Bytes())]
			if ok && len(old) == len(r) {
				// Every reader is handed clones, so nobody holds old.
				copy(old, r)
				continue
			}
			k := string(s.keyEnc.Bytes())
			if !ok {
				s.keyOrder = append(s.keyOrder, k)
			}
			s.keyed[k] = r.Clone()
		}
	}
	return nil
}

// AddColumnBatch implements ColumnSink: append-mode epochs keep their
// column batches as delivered, deferring row materialization to the
// first read. Other output modes need per-row key handling, so they
// materialize immediately and reuse AddBatch.
func (s *MemorySink) AddColumnBatch(b Batch) error {
	if b.Mode != logical.Append {
		for _, vb := range b.Vecs {
			b.Rows = vb.AppendRows(b.Rows)
		}
		b.Vecs = nil
		return s.AddBatch(b)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.schema = b.Schema
	if s.hasMode && s.mode != b.Mode {
		return fmt.Errorf("sinks: memory sink mode changed from %s to %s", s.mode, b.Mode)
	}
	s.mode, s.hasMode = b.Mode, true
	if b.Epoch > s.lastEpoch {
		s.lastEpoch = b.Epoch
	}
	if b.Epoch <= s.floor {
		return nil // retention already passed this epoch; drop the replay
	}
	key := epochSub{epoch: b.Epoch, sub: b.Sub}
	s.registerEpochLocked(key)
	s.vecByEpoch[key] = b.Vecs
	delete(s.byEpoch, key)
	s.enforceRetentionLocked()
	return nil
}

// SetRetention bounds the sink to the last n distinct committed epochs
// (append mode); older epochs are dropped and the retention floor rises.
// Cursor resume below the floor must restart from a snapshot. n <= 0
// restores unbounded retention.
func (s *MemorySink) SetRetention(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retain = n
	s.enforceRetentionLocked()
}

// enforceRetentionLocked drops the oldest distinct epochs until at most
// s.retain remain, advancing the floor past everything dropped.
func (s *MemorySink) enforceRetentionLocked() {
	if s.retain <= 0 {
		return
	}
	distinct := 0
	var prev int64 = -1
	for _, e := range s.epochs {
		if distinct == 0 || e.epoch != prev {
			distinct++
			prev = e.epoch
		}
	}
	for distinct > s.retain {
		oldest := s.epochs[0].epoch
		i := 0
		for ; i < len(s.epochs) && s.epochs[i].epoch == oldest; i++ {
			delete(s.byEpoch, s.epochs[i])
			delete(s.vecByEpoch, s.epochs[i])
		}
		s.epochs = append(s.epochs[:0], s.epochs[i:]...)
		if oldest > s.floor {
			s.floor = oldest
		}
		distinct--
	}
}

// registerEpochLocked records a new (epoch, sub) pair in delivery order.
func (s *MemorySink) registerEpochLocked(key epochSub) {
	if _, seen := s.byEpoch[key]; seen {
		return
	}
	if _, seen := s.vecByEpoch[key]; seen {
		return
	}
	s.epochs = append(s.epochs, key)
	sort.Slice(s.epochs, func(i, j int) bool {
		if s.epochs[i].epoch != s.epochs[j].epoch {
			return s.epochs[i].epoch < s.epochs[j].epoch
		}
		return s.epochs[i].sub < s.epochs[j].sub
	})
}

// epochRowsLocked returns one epoch's rows, materializing (and
// memoizing) a columnar delivery on first access. Callers must not
// mutate the result — it backs future reads.
func (s *MemorySink) epochRowsLocked(key epochSub) []sql.Row {
	if rows, ok := s.byEpoch[key]; ok {
		return rows
	}
	var rows []sql.Row
	for _, vb := range s.vecByEpoch[key] {
		rows = vb.AppendRows(rows)
	}
	s.byEpoch[key] = rows
	return rows
}

// Schema returns the sink's current schema.
func (s *MemorySink) Schema() sql.Schema {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schema
}

// Rows returns a consistent snapshot of the result table.
func (s *MemorySink) Rows() []sql.Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.mode {
	case logical.Complete:
		return cloneRows(s.complete)
	case logical.Update:
		out := make([]sql.Row, 0, len(s.keyed))
		for _, k := range s.keyOrder {
			out = append(out, s.keyed[k].Clone())
		}
		return out
	default:
		var out []sql.Row
		for _, e := range s.epochs {
			out = append(out, cloneRows(s.epochRowsLocked(e))...)
		}
		return out
	}
}

// RowsForEpoch returns the rows appended by one epoch (append mode).
func (s *MemorySink) RowsForEpoch(epoch int64) []sql.Row {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []sql.Row
	for _, e := range s.epochs {
		if e.epoch == epoch {
			out = append(out, cloneRows(s.epochRowsLocked(e))...)
		}
	}
	return out
}

// Truncate drops output from epochs greater than keep, the sink-side part
// of a manual rollback.
func (s *MemorySink) Truncate(keep int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.epochs[:0]
	for _, e := range s.epochs {
		if e.epoch <= keep {
			kept = append(kept, e)
		} else {
			delete(s.byEpoch, e)
			delete(s.vecByEpoch, e)
		}
	}
	s.epochs = kept
	if s.lastEpoch > keep {
		s.lastEpoch = keep
	}
}

// Mode reports the output mode the sink has been receiving, and whether
// any batch has arrived yet.
func (s *MemorySink) Mode() (logical.OutputMode, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode, s.hasMode
}

// Floor returns the newest epoch dropped by retention, or -1 when nothing
// has been dropped. Epochs at or below the floor are not replayable.
func (s *MemorySink) Floor() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floor
}

// LastEpoch returns the newest epoch delivered to the sink, or -1.
func (s *MemorySink) LastEpoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastEpoch
}

// EpochRows returns one epoch's appended rows and whether the sink holds
// them. ok is false for epochs at or below the retention floor, epochs
// never delivered, and non-append modes (which do not retain per-epoch
// deltas). Callers must not mutate the result.
func (s *MemorySink) EpochRows(epoch int64) ([]sql.Row, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode != logical.Append || epoch <= s.floor {
		return nil, false
	}
	var out []sql.Row
	found := false
	for _, e := range s.epochs {
		if e.epoch == epoch {
			found = true
			out = append(out, s.epochRowsLocked(e)...)
		}
	}
	return out, found
}

// SnapshotRows returns a consistent snapshot of the whole result table
// together with the newest epoch reflected in it — the anchor a resuming
// subscriber below the retention floor restarts from.
func (s *MemorySink) SnapshotRows() ([]sql.Row, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rows []sql.Row
	switch s.mode {
	case logical.Complete:
		rows = cloneRows(s.complete)
	case logical.Update:
		rows = make([]sql.Row, 0, len(s.keyed))
		for _, k := range s.keyOrder {
			rows = append(rows, s.keyed[k].Clone())
		}
	default:
		for _, e := range s.epochs {
			rows = append(rows, cloneRows(s.epochRowsLocked(e))...)
		}
	}
	return rows, s.lastEpoch
}

func cloneRows(rows []sql.Row) []sql.Row {
	out := make([]sql.Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
	}
	return out
}

// ---------------------------------------------------------------- tee

// TeeSink fans every batch out to each target in order — e.g. console
// output for a human plus a retained memory sink feeding the serving
// layer. Targets must not mutate delivered rows (the built-in sinks never
// do); the first error aborts the delivery, and replays restore
// idempotency for targets that already absorbed the batch.
type TeeSink struct {
	Targets []Sink
}

// NewTeeSink creates a sink duplicating batches to each target.
func NewTeeSink(targets ...Sink) *TeeSink { return &TeeSink{Targets: targets} }

// AddBatch implements Sink.
func (s *TeeSink) AddBatch(b Batch) error {
	for _, t := range s.Targets {
		if err := t.AddBatch(b); err != nil {
			return err
		}
	}
	return nil
}

// AddColumnBatch implements ColumnSink: columnar targets receive the
// vectors as-is; row-only targets get the rows materialized once.
func (s *TeeSink) AddColumnBatch(b Batch) error {
	var rows []sql.Row
	materialized := false
	for _, t := range s.Targets {
		if cs, ok := t.(ColumnSink); ok {
			if err := cs.AddColumnBatch(b); err != nil {
				return err
			}
			continue
		}
		if !materialized {
			for _, vb := range b.Vecs {
				rows = vb.AppendRows(rows)
			}
			materialized = true
		}
		rb := b
		rb.Vecs = nil
		rb.Rows = rows
		if err := t.AddBatch(rb); err != nil {
			return err
		}
	}
	return nil
}

// Description implements the monitoring surface's sink naming.
func (s *TeeSink) Description() string {
	names := make([]string, len(s.Targets))
	for i, t := range s.Targets {
		names[i] = Describe(t)
	}
	return "tee(" + strings.Join(names, ",") + ")"
}

// ---------------------------------------------------------------- console

// ConsoleSink renders each batch to a writer, like the paper's console
// format for debugging.
type ConsoleSink struct {
	mu sync.Mutex
	W  io.Writer
	// MaxRows bounds output per batch; 0 = unlimited.
	MaxRows int
}

// NewConsoleSink creates a console sink writing to w.
func NewConsoleSink(w io.Writer) *ConsoleSink { return &ConsoleSink{W: w} }

// AddBatch implements Sink.
func (s *ConsoleSink) AddBatch(b Batch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.W, "-------------------------------------------\nBatch: %d (%s mode)\n", b.Epoch, b.Mode)
	fmt.Fprintf(s.W, "%v\n", b.Schema.Names())
	for i, r := range b.Rows {
		if s.MaxRows > 0 && i >= s.MaxRows {
			fmt.Fprintf(s.W, "... (%d more rows)\n", len(b.Rows)-i)
			break
		}
		fmt.Fprintln(s.W, r.String())
	}
	return nil
}

// ---------------------------------------------------------------- foreach

// ForeachSink invokes a user function per batch — the escape hatch for
// custom integrations. The function must itself be idempotent by epoch for
// exactly-once semantics; otherwise the pipeline is at-least-once.
type ForeachSink struct {
	Fn func(b Batch) error
}

// AddBatch implements Sink.
func (s *ForeachSink) AddBatch(b Batch) error { return s.Fn(b) }
