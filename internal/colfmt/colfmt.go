// Package colfmt implements a compact column-oriented table file format —
// the reproduction's stand-in for Parquet tables on S3 in the paper's use
// cases (§8). A table is a directory of immutable segment files plus a
// _manifest.json naming the visible segments; the manifest is replaced by
// atomic rename, which gives readers the all-or-nothing visibility that
// the paper's file sink requires (§2.2: updates must appear atomically).
// Segments store values column-by-column with per-column min/max stats.
package colfmt

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"structream/internal/fsx"
	"structream/internal/sql"
	"structream/internal/sql/codec"
)

var magic = []byte("SSCF")

// ColumnStats carries per-column min/max (display form) for a segment.
type ColumnStats struct {
	Min string `json:"min,omitempty"`
	Max string `json:"max,omitempty"`
}

// SegmentInfo describes one segment file in the manifest.
type SegmentInfo struct {
	File  string        `json:"file"`
	Rows  int64         `json:"rows"`
	Epoch int64         `json:"epoch"`
	Stats []ColumnStats `json:"stats,omitempty"`
}

// Manifest is the table's committed view: schema plus visible segments.
type Manifest struct {
	Schema   []ManifestField `json:"schema"`
	Segments []SegmentInfo   `json:"segments"`
}

// ManifestField is one schema column in the manifest.
type ManifestField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

const manifestFile = "_manifest.json"

// schemaToManifest converts an engine schema for the manifest.
func schemaToManifest(s sql.Schema) []ManifestField {
	out := make([]ManifestField, s.Len())
	for i, f := range s.Fields {
		out[i] = ManifestField{Name: f.Name, Type: f.Type.String()}
	}
	return out
}

// manifestToSchema converts back, failing on unknown type names.
func manifestToSchema(fields []ManifestField) (sql.Schema, error) {
	out := make([]sql.Field, len(fields))
	for i, f := range fields {
		t, ok := sql.TypeByName(f.Type)
		if !ok {
			switch f.Type { // types without CAST names
			case "window":
				t = sql.TypeWindow
			case "null":
				t = sql.TypeNull
			default:
				return sql.Schema{}, fmt.Errorf("colfmt: unknown type %q in manifest", f.Type)
			}
		}
		out[i] = sql.Field{Name: f.Name, Type: t}
	}
	return sql.Schema{Fields: out}, nil
}

// WriteSegment writes rows as one immutable segment file named name within
// dir and returns its info. The write is atomic (temp + rename), so a
// half-written segment is never visible under its final name.
func WriteSegment(dir, name string, schema sql.Schema, rows []sql.Row, epoch int64) (SegmentInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return SegmentInfo{}, fmt.Errorf("colfmt: %w", err)
	}
	ncols := schema.Len()
	buf := append([]byte(nil), magic...)
	buf = binary.AppendUvarint(buf, uint64(ncols))
	for _, f := range schema.Fields {
		buf = binary.AppendUvarint(buf, uint64(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = append(buf, byte(f.Type))
	}
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	stats := make([]ColumnStats, ncols)
	for c := 0; c < ncols; c++ {
		enc := codec.NewEncoder(16 * len(rows))
		var minV, maxV sql.Value
		for _, r := range rows {
			v := r[c]
			enc.PutValue(v)
			if v == nil {
				continue
			}
			if minV == nil || sql.Compare(v, minV) < 0 {
				minV = v
			}
			if maxV == nil || sql.Compare(v, maxV) > 0 {
				maxV = v
			}
		}
		if minV != nil {
			stats[c] = ColumnStats{Min: sql.AsString(minV), Max: sql.AsString(maxV)}
		}
		col := enc.Bytes()
		buf = binary.AppendUvarint(buf, uint64(len(col)))
		buf = append(buf, col...)
	}
	path := filepath.Join(dir, name)
	if err := atomicWrite(path, buf); err != nil {
		return SegmentInfo{}, err
	}
	return SegmentInfo{File: name, Rows: int64(len(rows)), Epoch: epoch, Stats: stats}, nil
}

// ReadSegment loads a whole segment.
func ReadSegment(dir, name string) (sql.Schema, []sql.Row, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return sql.Schema{}, nil, fmt.Errorf("colfmt: %w", err)
	}
	fields, nrows, pos, err := parseSegmentHeader(data, name)
	if err != nil {
		return sql.Schema{}, nil, err
	}
	cols := make([][]sql.Value, len(fields))
	for c := range cols {
		var block []byte
		if block, pos, err = columnBlock(data, pos, c, name); err != nil {
			return sql.Schema{}, nil, err
		}
		if cols[c], err = codec.DecodeValues(block); err != nil {
			return sql.Schema{}, nil, fmt.Errorf("colfmt: column %d of %s: %v", c, name, err)
		}
		if len(cols[c]) != nrows {
			return sql.Schema{}, nil, fmt.Errorf("colfmt: column %d of %s has %d values, want %d", c, name, len(cols[c]), nrows)
		}
	}
	rows := make([]sql.Row, nrows)
	for i := range rows {
		row := make(sql.Row, len(cols))
		for c := range cols {
			row[c] = cols[c][i]
		}
		rows[i] = row
	}
	return sql.Schema{Fields: fields}, rows, nil
}

// parseSegmentHeader reads a segment's magic, schema, and row count,
// returning the fields, row count, and the offset of the first column
// block.
func parseSegmentHeader(data []byte, name string) ([]sql.Field, int, int, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return nil, 0, 0, fmt.Errorf("colfmt: %s is not a segment file", name)
	}
	// Lengths read off disk are compared unsigned against the bytes left: a
	// length of 2⁶³ or more wraps negative as an int and would pass a signed
	// check. Counts are bounded by the bytes they need before they size an
	// allocation — a field takes at least two (its name's length and its
	// type), a row at least one in each column (and in a segment of no
	// columns, one).
	pos := len(magic)
	ncols, n := binary.Uvarint(data[pos:])
	if n <= 0 || ncols > uint64(len(data)-pos-n)/2 {
		return nil, 0, 0, fmt.Errorf("colfmt: corrupt header in %s", name)
	}
	pos += n
	fields := make([]sql.Field, ncols)
	for i := range fields {
		nameLen, n := binary.Uvarint(data[pos:])
		if n <= 0 || nameLen >= uint64(len(data)-pos-n) { // the name, then its type byte
			return nil, 0, 0, fmt.Errorf("colfmt: corrupt schema in %s", name)
		}
		pos += n
		fields[i].Name = string(data[pos : pos+int(nameLen)])
		pos += int(nameLen)
		fields[i].Type = sql.Type(data[pos])
		pos++
	}
	nrows, n := binary.Uvarint(data[pos:])
	if n <= 0 || nrows > uint64(len(data)-pos-n)/max(uint64(len(fields)), 1) {
		return nil, 0, 0, fmt.Errorf("colfmt: corrupt row count in %s", name)
	}
	pos += n
	return fields, int(nrows), pos, nil
}

// columnBlock cuts column c's block out of a segment at pos and returns it
// with the offset of the next block.
func columnBlock(data []byte, pos, c int, name string) ([]byte, int, error) {
	blockLen, n := binary.Uvarint(data[pos:])
	if n <= 0 || blockLen > uint64(len(data)-pos-n) {
		return nil, 0, fmt.Errorf("colfmt: corrupt column block %d in %s", c, name)
	}
	pos += n
	return data[pos : pos+int(blockLen)], pos + int(blockLen), nil
}

// ---------------------------------------------------------------- table

// Table is a committed view over a table directory.
type Table struct {
	Dir      string
	Schema   sql.Schema
	Segments []SegmentInfo
}

// OpenTable reads the manifest; a missing manifest yields an empty table
// with an empty schema.
func OpenTable(dir string) (*Table, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if os.IsNotExist(err) {
		return &Table{Dir: dir}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("colfmt: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("colfmt: corrupt manifest in %s: %w", dir, err)
	}
	schema, err := manifestToSchema(m.Schema)
	if err != nil {
		return nil, err
	}
	return &Table{Dir: dir, Schema: schema, Segments: m.Segments}, nil
}

// ReadAll loads every row of the table, segments in manifest order.
func (t *Table) ReadAll() ([]sql.Row, error) {
	var out []sql.Row
	for _, seg := range t.Segments {
		_, rows, err := ReadSegment(t.Dir, seg.File)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

// Rows reports the total row count from segment metadata without reading
// data blocks.
func (t *Table) Rows() int64 {
	var n int64
	for _, s := range t.Segments {
		n += s.Rows
	}
	return n
}

// CommitManifest atomically replaces the table's manifest with the given
// schema and segment list. Readers see either the old or the new view.
func CommitManifest(dir string, schema sql.Schema, segments []SegmentInfo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("colfmt: %w", err)
	}
	sort.Slice(segments, func(i, j int) bool {
		if segments[i].Epoch != segments[j].Epoch {
			return segments[i].Epoch < segments[j].Epoch
		}
		return segments[i].File < segments[j].File
	})
	m := Manifest{Schema: schemaToManifest(schema), Segments: segments}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("colfmt: %w", err)
	}
	return atomicWrite(filepath.Join(dir, manifestFile), append(data, '\n'))
}

// AppendSegments commits the union of the current manifest and the new
// segments, replacing any existing segments from the same epoch (which is
// what makes re-running a failed epoch idempotent).
func AppendSegments(dir string, schema sql.Schema, epoch int64, segments []SegmentInfo) error {
	t, err := OpenTable(dir)
	if err != nil {
		return err
	}
	kept := t.Segments[:0:0]
	for _, s := range t.Segments {
		if s.Epoch != epoch {
			kept = append(kept, s)
		}
	}
	kept = append(kept, segments...)
	return CommitManifest(dir, schema, kept)
}

// DropSegmentsAfter removes manifest entries from epochs greater than
// keep — the sink-side half of a manual rollback (§7.2).
func DropSegmentsAfter(dir string, keep int64) error {
	t, err := OpenTable(dir)
	if err != nil {
		return err
	}
	kept := t.Segments[:0:0]
	for _, s := range t.Segments {
		if s.Epoch <= keep {
			kept = append(kept, s)
		}
	}
	return CommitManifest(dir, t.Schema, kept)
}

func atomicWrite(path string, data []byte) error {
	// The hardened filesystem fsyncs the file and its parent directory, so
	// a committed segment or manifest survives a power loss.
	if err := fsx.WriteAtomic(fsx.Real(), path, data, 0o644); err != nil {
		return fmt.Errorf("colfmt: %w", err)
	}
	return nil
}
