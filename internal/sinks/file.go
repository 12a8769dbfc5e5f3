package sinks

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"

	"structream/internal/colfmt"
	"structream/internal/fsx"
	"structream/internal/msgbus"
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

// FileSink writes output as a columnar table (the Parquet stand-in). In
// Append mode each epoch adds an immutable segment; in Complete mode the
// manifest is atomically replaced with only the newest result, matching the
// paper's "write a complete result file for each update". Idempotency comes
// from epoch-named segments plus manifest replacement.
type FileSink struct {
	Dir string
}

// NewFileSink creates a columnar file sink rooted at dir.
func NewFileSink(dir string) *FileSink { return &FileSink{Dir: dir} }

// AddBatch implements Sink.
func (s *FileSink) AddBatch(b Batch) error {
	switch b.Mode {
	case logical.Update:
		return fmt.Errorf("sinks: the file sink does not support update mode (files cannot update keys in place)")
	case logical.Complete:
		seg, err := colfmt.WriteSegment(s.Dir, fmt.Sprintf("complete-%012d.seg", b.Epoch), b.Schema, b.Rows, b.Epoch)
		if err != nil {
			return err
		}
		return colfmt.CommitManifest(s.Dir, b.Schema, []colfmt.SegmentInfo{seg})
	default: // Append
		if b.Sub != 0 {
			// Continuous-mode sub-batch: append without replacing the
			// epoch's earlier sub-batches (at-least-once on replay).
			seg, err := colfmt.WriteSegment(s.Dir,
				fmt.Sprintf("part-%012d-%016x.seg", b.Epoch, uint64(b.Sub)), b.Schema, b.Rows, b.Epoch)
			if err != nil {
				return err
			}
			t, err := colfmt.OpenTable(s.Dir)
			if err != nil {
				return err
			}
			return colfmt.CommitManifest(s.Dir, b.Schema, append(t.Segments, seg))
		}
		if len(b.Rows) == 0 {
			// Still commit the manifest so replayed empty epochs are stable.
			return colfmt.AppendSegments(s.Dir, b.Schema, b.Epoch, nil)
		}
		seg, err := colfmt.WriteSegment(s.Dir, fmt.Sprintf("part-%012d.seg", b.Epoch), b.Schema, b.Rows, b.Epoch)
		if err != nil {
			return err
		}
		return colfmt.AppendSegments(s.Dir, b.Schema, b.Epoch, []colfmt.SegmentInfo{seg})
	}
}

// Rollback drops output from epochs after keep (manual rollback, §7.2: "for
// the file sink it's straightforward to find which files were written in a
// particular epoch and remove those").
func (s *FileSink) Rollback(keep int64) error {
	return colfmt.DropSegmentsAfter(s.Dir, keep)
}

// ---------------------------------------------------------------- json

// JSONFileSink writes one JSON-lines file per epoch, and in continuous mode
// one per (epoch, sub) — human-inspectable output for the examples. Named
// files plus atomic replacement make replays idempotent: re-running an
// epoch with the same offsets produces the same bytes in the same file.
type JSONFileSink struct {
	Dir string
	// FS overrides the filesystem (fault injection in tests); nil means the
	// hardened real filesystem.
	FS fsx.FS
}

// NewJSONFileSink creates a JSON-lines file sink.
func NewJSONFileSink(dir string) *JSONFileSink { return &JSONFileSink{Dir: dir} }

func (s *JSONFileSink) fsys() fsx.FS {
	if s.FS != nil {
		return s.FS
	}
	return fsx.Real()
}

// AddBatch implements Sink.
func (s *JSONFileSink) AddBatch(b Batch) error {
	fsys := s.fsys()
	if err := fsys.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("sinks: %w", err)
	}
	name := fmt.Sprintf("part-%012d.json", b.Epoch)
	if b.Sub != 0 {
		// Continuous-mode sub-batch: one file per (epoch, sub), as the
		// columnar sink names its segments, so a sub never replaces another.
		name = fmt.Sprintf("part-%012d-%016x.json", b.Epoch, uint64(b.Sub))
	}
	if b.Mode == logical.Complete {
		name = "result.json" // complete mode keeps a single current file
	}
	names := b.Schema.Names()
	lines := make([]string, 0, len(b.Rows))
	for _, r := range b.Rows {
		obj := make(map[string]any, len(names))
		for i, n := range names {
			obj[n] = jsonValue(r[i])
		}
		line, err := json.Marshal(obj)
		if err != nil {
			return fmt.Errorf("sinks: %w", err)
		}
		lines = append(lines, string(line))
	}
	// Canonical line order: row order out of a shuffled aggregation is not
	// deterministic, but a replayed epoch must overwrite its file with
	// byte-identical contents for exactly-once output to be checkable.
	sort.Strings(lines)
	var buf []byte
	for _, l := range lines {
		buf = append(buf, l...)
		buf = append(buf, '\n')
	}
	if err := fsx.WriteAtomic(fsys, filepath.Join(s.Dir, name), buf, 0o644); err != nil {
		return fmt.Errorf("sinks: %w", err)
	}
	return nil
}

func jsonValue(v sql.Value) any {
	switch x := v.(type) {
	case sql.Window:
		return map[string]string{
			"start": sql.FormatTimestamp(x.Start),
			"end":   sql.FormatTimestamp(x.End),
		}
	case []byte:
		return fmt.Sprintf("0x%x", x)
	default:
		return v
	}
}

// ---------------------------------------------------------------- bus

// BusSink writes rows to a message-bus topic using the binary row codec.
// A bare bus sink is at-least-once (replays duplicate records), exactly as
// Kafka sinks are in Spark; TransactionalBusSink upgrades it to
// exactly-once by recording committed epochs in a control topic, the
// technique the paper describes for sinks with transactional support.
type BusSink struct {
	Topic *msgbus.Topic
	// KeyIndex selects the column used as the record key (partitioning);
	// -1 means keyless round-robin.
	KeyIndex int
	// TimeIndex selects the column carried as the record timestamp; -1
	// stamps zero.
	TimeIndex int
}

// NewBusSink creates a bus sink with keyless routing.
func NewBusSink(topic *msgbus.Topic) *BusSink {
	return &BusSink{Topic: topic, KeyIndex: -1, TimeIndex: -1}
}

// AddBatch implements Sink.
func (s *BusSink) AddBatch(b Batch) error {
	for _, r := range b.Rows {
		var key []byte
		if s.KeyIndex >= 0 && s.KeyIndex < len(r) {
			key = codec.EncodeValues([]sql.Value{r[s.KeyIndex]})
		}
		var ts int64
		if s.TimeIndex >= 0 && s.TimeIndex < len(r) {
			if us, ok := r[s.TimeIndex].(int64); ok {
				ts = us
			}
		}
		if _, _, err := s.Topic.Produce(key, codec.EncodeRow(r), ts); err != nil {
			return err
		}
	}
	return nil
}

// TransactionalBusSink wraps BusSink with an epoch-commit control topic:
// epochs already recorded there are skipped on replay, giving exactly-once
// delivery into the bus.
type TransactionalBusSink struct {
	Inner   *BusSink
	Control *msgbus.Topic // single-partition commit marker log
}

// NewTransactionalBusSink builds the wrapper; control must have exactly one
// partition.
func NewTransactionalBusSink(inner *BusSink, control *msgbus.Topic) (*TransactionalBusSink, error) {
	if control.Partitions() != 1 {
		return nil, fmt.Errorf("sinks: control topic must have one partition")
	}
	return &TransactionalBusSink{Inner: inner, Control: control}, nil
}

// AddBatch implements Sink: skip epochs whose marker is already present.
func (s *TransactionalBusSink) AddBatch(b Batch) error {
	committed, err := s.lastCommitted()
	if err != nil {
		return err
	}
	if b.Epoch <= committed {
		return nil // already durably written; replay is a no-op
	}
	if err := s.Inner.AddBatch(b); err != nil {
		return err
	}
	marker := codec.EncodeValues([]sql.Value{b.Epoch})
	_, err = s.Control.Append(0, msgbus.Record{Value: marker})
	return err
}

func (s *TransactionalBusSink) lastCommitted() (int64, error) {
	latest := s.Control.LatestOffsets()[0]
	if latest == 0 {
		return -1, nil
	}
	recs, err := s.Control.FetchRange(0, latest-1, latest)
	if err != nil || len(recs) == 0 {
		return -1, err
	}
	vals, err := codec.DecodeValues(recs[0].Value)
	if err != nil || len(vals) != 1 {
		return -1, fmt.Errorf("sinks: corrupt commit marker")
	}
	epoch, ok := vals[0].(int64)
	if !ok {
		return -1, fmt.Errorf("sinks: corrupt commit marker value")
	}
	return epoch, nil
}
