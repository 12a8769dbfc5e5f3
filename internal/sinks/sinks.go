// Package sinks implements streaming output connectors. Sinks are
// idempotent by epoch (§3, §6.1 of the paper): re-delivering an epoch's
// batch after a failure replay leaves the sink's contents identical, which
// combined with the write-ahead log yields exactly-once output. Sinks that
// cannot be idempotent on their own (the message bus) get a transactional
// wrapper that records committed epochs.
package sinks

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"slices"
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
// Spark table that users can query interactively" (§3). What it retains is
// codec bytes (table.go), or the vectors of a columnar append; every reader
// gets rows decoded for it alone.
type MemorySink struct {
	mu     sync.Mutex
	schema sql.Schema
	// epochs is append mode's table: one delivery per (epoch, sub), sorted.
	// distinct counts the epochs in it, steps the entries its bookkeeping has
	// searched, moved or read (a test holds that linear in the deliveries).
	epochs   []delivery
	distinct int
	steps    int64
	complete rowBlob       // complete mode: latest full table
	keyed    keyedTable    // update mode: upsert by key
	enc      codec.Encoder // scratch: one delivery's rows, encoded
	marks    []rowMark     // scratch: where update mode's rows lie in enc
	blob     []byte        // scratch: a blob before it is cut to size
	mode     logical.OutputMode
	hasMode  bool
	// retain bounds append-mode growth to the last retain distinct epochs
	// (0 = unlimited); floor is the newest epoch dropped by retention (-1
	// before any) and lastEpoch the newest epoch ever delivered (-1 before
	// any) — together they are the serving layer's replayable window.
	retain    int
	floor     int64
	lastEpoch int64
}

// rowMark is one encoded row of an update delivery: enc's bytes up to end,
// the first klen of them the key, which hashes to hash.
type rowMark struct {
	end, klen int
	hash      uint64
}

// delivery is one (epoch, sub)'s appended rows as stored: a blob when they
// came as rows, the column batches themselves when they came as columns —
// those are already a few slabs per column, and the engine gave them away.
type delivery struct {
	epoch, sub int64
	rows       rowBlob
	vecs       []*vec.Batch
}

// NewMemorySink creates an empty memory sink.
func NewMemorySink() *MemorySink {
	return &MemorySink{keyed: keyedTable{seed: maphash.MakeSeed()}, floor: -1, lastEpoch: -1}
}

// AddColumnBatch implements ColumnSink: append-mode epochs keep their
// column batches as delivered and box rows only for a reader; the other
// modes encode each row straight from the vectors.
func (s *MemorySink) AddColumnBatch(b Batch) error { return s.AddBatch(b) }

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
		s.complete = s.encodeLocked(b)
	case logical.Append:
		if b.Epoch <= s.floor {
			return nil // retention already passed this epoch; drop the replay
		}
		d := delivery{epoch: b.Epoch, sub: b.Sub, vecs: b.Vecs}
		if b.Vecs == nil {
			d.rows = s.encodeLocked(b)
		}
		s.putLocked(d)
		s.enforceRetentionLocked()
	case logical.Update:
		ka := b.KeyArity
		if ka <= 0 || ka > b.Schema.Len() {
			ka = b.Schema.Len()
		}
		// Two passes: every row is encoded and its key hashed before the first
		// probe. A probe is a chain of cache misses (index, entry, record) that
		// depends on no other probe; back to back, with no encoding between
		// them, they overlap.
		s.marks = s.marks[:0]
		s.eachRowLocked(b, ka, func(rec []byte, _, klen int) {
			s.marks = append(s.marks, rowMark{len(s.enc.Bytes()), klen, s.keyed.hash(rec[:klen])})
		})
		start := 0
		for _, m := range s.marks {
			s.keyed.upsert(s.enc.Bytes()[start:m.end], m.klen, m.hash)
			start = m.end
		}
	}
	return nil
}

// eachRowLocked encodes every row of the delivery, boxed or columnar, into
// the scratch one after another and hands fn each row's bytes (valid until
// the next row), its cell count and the length of its first ka cells'
// encoding — the same bytes as codec.KeyString.
func (s *MemorySink) eachRowLocked(b Batch, ka int, fn func(rec []byte, cells, klen int)) {
	s.enc.Reset()
	for _, r := range b.Rows {
		start := len(s.enc.Bytes())
		for _, v := range r[:ka] {
			s.enc.PutValue(v)
		}
		klen := len(s.enc.Bytes()) - start
		for _, v := range r[ka:] {
			s.enc.PutValue(v)
		}
		fn(s.enc.Bytes()[start:], len(r), klen)
	}
	for _, vb := range b.Vecs {
		for l, live := 0, vb.NumLive(); l < live; l++ {
			i := l
			if vb.Sel != nil {
				i = int(vb.Sel[l])
			}
			start := len(s.enc.Bytes())
			for _, col := range vb.Cols[:ka] {
				s.enc.PutVectorValue(col, i)
			}
			klen := len(s.enc.Bytes()) - start
			for _, col := range vb.Cols[ka:] {
				s.enc.PutVectorValue(col, i)
			}
			fn(s.enc.Bytes()[start:], len(vb.Cols), klen)
		}
	}
}

// encodeLocked returns the delivery as a blob cut to size: it is retained.
func (s *MemorySink) encodeLocked(b Batch) rowBlob {
	blob := rowBlob{buf: s.blob[:0]}
	s.eachRowLocked(b, 0, func(rec []byte, cells, _ int) {
		blob.n++
		blob.buf = append(binary.AppendUvarint(blob.buf, uint64(cells)), rec...)
	})
	s.blob, blob.buf = blob.buf, bytes.Clone(blob.buf)
	return blob
}

// putLocked stores d at its (epoch, sub), replacing what a replayed pair
// held before — rows or columns alike.
func (s *MemorySink) putLocked(d delivery) {
	n := len(s.epochs)
	i := n
	if n > 0 && !s.epochs[n-1].before(d.epoch, d.sub) { // not the next in order
		i = sort.Search(n, func(j int) bool { s.steps++; return !s.epochs[j].before(d.epoch, d.sub) })
		if s.epochs[i].epoch == d.epoch && s.epochs[i].sub == d.sub {
			s.epochs[i] = d
			return
		}
	}
	if (i == 0 || s.epochs[i-1].epoch != d.epoch) && (i == n || s.epochs[i].epoch != d.epoch) {
		s.distinct++
	}
	s.steps += int64(n - i + 1)
	s.epochs = slices.Insert(s.epochs, i, d)
}

func (d *delivery) before(epoch, sub int64) bool {
	return d.epoch < epoch || d.epoch == epoch && d.sub < sub
}

// runLocked returns the positions [lo, hi) of one epoch's deliveries.
func (s *MemorySink) runLocked(epoch int64) (lo, hi int) {
	lo = sort.Search(len(s.epochs), func(j int) bool { s.steps++; return s.epochs[j].epoch >= epoch })
	for hi = lo; hi < len(s.epochs) && s.epochs[hi].epoch == epoch; hi++ {
		s.steps++
	}
	return lo, hi
}

// forgetLocked releases deliveries the caller cuts off one end of s.epochs:
// whole epochs.
func (s *MemorySink) forgetLocked(gone []delivery) {
	for j := range gone {
		if j == 0 || gone[j].epoch != gone[j-1].epoch {
			s.distinct--
		}
	}
	s.steps += int64(len(gone))
	clear(gone)
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
	for s.retain > 0 && s.distinct > s.retain {
		oldest := s.epochs[0].epoch
		_, hi := s.runLocked(oldest)
		s.forgetLocked(s.epochs[:hi])
		s.epochs = s.epochs[hi:]
		if oldest > s.floor {
			s.floor = oldest
		}
	}
}

// Schema returns the sink's current schema.
func (s *MemorySink) Schema() sql.Schema {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schema
}

// Rows returns a consistent snapshot of the result table.
func (s *MemorySink) Rows() []sql.Row {
	rows, _ := s.SnapshotRows()
	return rows
}

// RowsForEpoch returns the rows appended by one epoch (append mode).
func (s *MemorySink) RowsForEpoch(epoch int64) []sql.Row {
	rows, _ := s.EpochRows(epoch)
	return rows
}

// Truncate drops output from epochs greater than keep, the sink-side part
// of a manual rollback.
func (s *MemorySink) Truncate(keep int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, _ := s.runLocked(keep + 1)
	s.forgetLocked(s.epochs[lo:])
	s.epochs = s.epochs[:lo]
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
// deltas).
func (s *MemorySink) EpochRows(epoch int64) ([]sql.Row, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mode != logical.Append || epoch <= s.floor {
		return nil, false
	}
	lo, hi := s.runLocked(epoch)
	return appendDeliveries(nil, s.epochs[lo:hi]), hi > lo
}

func appendDeliveries(dst []sql.Row, ds []delivery) []sql.Row {
	for _, d := range ds {
		dst = d.rows.appendRows(dst)
		for _, vb := range d.vecs {
			dst = vb.AppendRows(dst)
		}
	}
	return dst
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
		rows = s.complete.appendRows(make([]sql.Row, 0, s.complete.n))
	case logical.Update:
		rows = s.keyed.appendRows(make([]sql.Row, 0, len(s.keyed.ents)), s.schema.Len())
	default:
		rows = appendDeliveries(nil, s.epochs)
	}
	return rows, s.lastEpoch
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
