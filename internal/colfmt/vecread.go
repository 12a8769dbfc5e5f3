package colfmt

import (
	"fmt"
	"os"
	"path/filepath"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/vec"
)

// ReadSegmentVec loads a whole segment straight into typed column
// vectors — the columnar fast path for batch scans over file tables,
// skipping both the per-row sql.Row allocation and per-cell boxing of
// ReadSegment. ok=false (with no error) means some stored value's wire
// type does not match the segment schema, so the caller must fall back
// to the boxed reader, which represents such values faithfully.
func ReadSegmentVec(dir, name string) (sql.Schema, *vec.Batch, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return sql.Schema{}, nil, false, fmt.Errorf("colfmt: %w", err)
	}
	fields, nrows, pos, err := parseSegmentHeader(data, name)
	if err != nil {
		return sql.Schema{}, nil, false, err
	}
	schema := sql.Schema{Fields: fields}
	b := vec.NewBatch(schema, nrows)
	for c := range fields {
		var block []byte
		if block, pos, err = columnBlock(data, pos, c, name); err != nil {
			return sql.Schema{}, nil, false, err
		}
		ok, err := codec.DecodeColumnToVector(block, b.Cols[c], nrows)
		if err != nil {
			return sql.Schema{}, nil, false, fmt.Errorf("colfmt: column %d of %s: %v", c, name, err)
		}
		if !ok {
			return sql.Schema{}, nil, false, nil
		}
	}
	b.Len = nrows
	return schema, b, true, nil
}

// TableSource streams a table's committed segments, one batch per
// segment. It satisfies the physical layer's RowSource, and its NextVec
// additionally serves each segment as a typed column batch so vectorized
// scans never box cell values; segments whose stored types drift from
// the schema come back as rows.
type TableSource struct {
	t   *Table
	idx int
}

// NewTableSource builds a source over a table's manifest snapshot.
// Segment files are immutable, so the snapshot serves a consistent view
// no matter when batches are pulled.
func NewTableSource(t *Table) *TableSource { return &TableSource{t: t} }

// Schema returns the table schema.
func (s *TableSource) Schema() sql.Schema { return s.t.Schema }

// Next returns the next segment's rows; (nil, nil) at the end.
func (s *TableSource) Next() ([]sql.Row, error) {
	for s.idx < len(s.t.Segments) {
		seg := s.t.Segments[s.idx]
		s.idx++
		_, rows, err := ReadSegment(s.t.Dir, seg.File)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			continue
		}
		return rows, nil
	}
	return nil, nil
}

// NextVec returns the next segment as a column batch, or as rows when
// its stored types drift from the schema; (nil, nil, nil) at the end.
func (s *TableSource) NextVec() (*vec.Batch, []sql.Row, error) {
	for s.idx < len(s.t.Segments) {
		seg := s.t.Segments[s.idx]
		s.idx++
		_, b, ok, err := ReadSegmentVec(s.t.Dir, seg.File)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			if b.Len == 0 {
				continue
			}
			return b, nil, nil
		}
		_, rows, err := ReadSegment(s.t.Dir, seg.File)
		if err != nil {
			return nil, nil, err
		}
		if len(rows) == 0 {
			continue
		}
		return nil, rows, nil
	}
	return nil, nil, nil
}

// Close makes the source report exhaustion on further pulls.
func (s *TableSource) Close() error {
	s.idx = len(s.t.Segments)
	return nil
}
