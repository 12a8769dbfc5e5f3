package colfmt

import (
	"os"
	"path/filepath"
	"testing"

	"structream/internal/sql"
)

var schema = sql.NewSchema(
	sql.Field{Name: "id", Type: sql.TypeInt64},
	sql.Field{Name: "name", Type: sql.TypeString},
	sql.Field{Name: "score", Type: sql.TypeFloat64},
)

var rows = []sql.Row{
	{int64(1), "a", 1.5},
	{int64(2), "b", nil},
	{int64(3), nil, -2.0},
}

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	info, err := WriteSegment(dir, "part-0.seg", schema, rows, 7)
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 3 || info.Epoch != 7 {
		t.Errorf("info = %+v", info)
	}
	gotSchema, gotRows, err := ReadSegment(dir, "part-0.seg")
	if err != nil {
		t.Fatal(err)
	}
	if !gotSchema.Equal(schema) {
		t.Errorf("schema = %s", gotSchema)
	}
	if len(gotRows) != len(rows) {
		t.Fatalf("rows = %d", len(gotRows))
	}
	for i := range rows {
		for c := range rows[i] {
			if gotRows[i][c] != rows[i][c] {
				t.Errorf("row %d col %d: %v != %v", i, c, gotRows[i][c], rows[i][c])
			}
		}
	}
}

func TestSegmentStats(t *testing.T) {
	dir := t.TempDir()
	info, err := WriteSegment(dir, "s.seg", schema, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats[0].Min != "1" || info.Stats[0].Max != "3" {
		t.Errorf("id stats = %+v", info.Stats[0])
	}
	if info.Stats[1].Min != "a" || info.Stats[1].Max != "b" {
		t.Errorf("name stats = %+v", info.Stats[1])
	}
	if info.Stats[2].Min != "-2.0" || info.Stats[2].Max != "1.5" {
		t.Errorf("score stats = %+v", info.Stats[2])
	}
}

func TestEmptySegment(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSegment(dir, "empty.seg", schema, nil, 0); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadSegment(dir, "empty.seg")
	if err != nil || len(got) != 0 {
		t.Errorf("rows=%v err=%v", got, err)
	}
}

func TestManifestCommitAndOpen(t *testing.T) {
	dir := t.TempDir()
	s1, _ := WriteSegment(dir, "part-0-0.seg", schema, rows[:2], 0)
	s2, _ := WriteSegment(dir, "part-1-0.seg", schema, rows[2:], 1)
	if err := CommitManifest(dir, schema, []SegmentInfo{s1, s2}); err != nil {
		t.Fatal(err)
	}
	tbl, err := OpenTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Schema.Equal(schema) || len(tbl.Segments) != 2 || tbl.Rows() != 3 {
		t.Errorf("table = %+v", tbl)
	}
	all, err := tbl.ReadAll()
	if err != nil || len(all) != 3 {
		t.Errorf("rows = %d err=%v", len(all), err)
	}
}

func TestOpenMissingTableIsEmpty(t *testing.T) {
	tbl, err := OpenTable(t.TempDir())
	if err != nil || len(tbl.Segments) != 0 || tbl.Rows() != 0 {
		t.Errorf("tbl=%+v err=%v", tbl, err)
	}
}

func TestAppendSegmentsIdempotentByEpoch(t *testing.T) {
	dir := t.TempDir()
	s0, _ := WriteSegment(dir, "e0.seg", schema, rows[:1], 0)
	if err := AppendSegments(dir, schema, 0, []SegmentInfo{s0}); err != nil {
		t.Fatal(err)
	}
	s1, _ := WriteSegment(dir, "e1.seg", schema, rows[1:], 1)
	if err := AppendSegments(dir, schema, 1, []SegmentInfo{s1}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := OpenTable(dir)
	if tbl.Rows() != 3 {
		t.Fatalf("rows = %d", tbl.Rows())
	}
	// Re-running epoch 1 (failure replay) replaces, not duplicates.
	s1b, _ := WriteSegment(dir, "e1.seg", schema, rows[1:], 1)
	if err := AppendSegments(dir, schema, 1, []SegmentInfo{s1b}); err != nil {
		t.Fatal(err)
	}
	tbl, _ = OpenTable(dir)
	if tbl.Rows() != 3 {
		t.Errorf("rows after replay = %d, want 3 (idempotent)", tbl.Rows())
	}
}

func TestDropSegmentsAfterRollback(t *testing.T) {
	dir := t.TempDir()
	for e := int64(0); e < 4; e++ {
		seg, _ := WriteSegment(dir, filepath.Base(dir)+string(rune('a'+e))+".seg", schema, rows[:1], e)
		if err := AppendSegments(dir, schema, e, []SegmentInfo{seg}); err != nil {
			t.Fatal(err)
		}
	}
	if err := DropSegmentsAfter(dir, 1); err != nil {
		t.Fatal(err)
	}
	tbl, _ := OpenTable(dir)
	if len(tbl.Segments) != 2 {
		t.Errorf("segments = %+v", tbl.Segments)
	}
	for _, s := range tbl.Segments {
		if s.Epoch > 1 {
			t.Errorf("segment from epoch %d survived rollback", s.Epoch)
		}
	}
}

func TestCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "bad.seg"), []byte("not a segment"), 0o644)
	if _, _, err := ReadSegment(dir, "bad.seg"); err == nil {
		t.Error("bad magic should error")
	}
	os.WriteFile(filepath.Join(dir, manifestFile), []byte("{oops"), 0o644)
	if _, err := OpenTable(dir); err == nil {
		t.Error("corrupt manifest should error")
	}
	if _, _, err := ReadSegment(dir, "missing.seg"); err == nil {
		t.Error("missing segment should error")
	}
}

func TestWindowValuesInSegments(t *testing.T) {
	wschema := sql.NewSchema(
		sql.Field{Name: "window", Type: sql.TypeWindow},
		sql.Field{Name: "cnt", Type: sql.TypeInt64},
	)
	wrows := []sql.Row{
		{sql.Window{Start: 0, End: 10_000_000}, int64(5)},
		{sql.Window{Start: 10_000_000, End: 20_000_000}, int64(3)},
	}
	dir := t.TempDir()
	seg, err := WriteSegment(dir, "w.seg", wschema, wrows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := CommitManifest(dir, wschema, []SegmentInfo{seg}); err != nil {
		t.Fatal(err)
	}
	tbl, err := OpenTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != wrows[0][0] || got[1][1] != int64(3) {
		t.Errorf("rows = %v", got)
	}
}
