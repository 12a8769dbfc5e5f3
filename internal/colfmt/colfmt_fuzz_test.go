package colfmt

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzColfmtSegment feeds arbitrary bytes to the segment reader as a
// segment file. Nothing may panic or size an allocation from an unchecked
// length; whatever the reader accepts must be rows of the schema it read.
func FuzzColfmtSegment(f *testing.F) {
	dir := f.TempDir()
	if _, err := WriteSegment(dir, "seed.seg", schema, rows, 0); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, "seed.seg"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	// A column count of 2⁶² sized the field slice straight from disk.
	f.Add(binary.AppendUvarint(append([]byte(nil), magic...), 1<<62))
	// A name length of 2⁶⁴−3 wrapped negative and passed the bounds check.
	f.Add(append(binary.AppendUvarint(binary.AppendUvarint(append([]byte(nil), magic...), 1), 1<<64-3), "abcd"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, "f.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		sch, got, err := ReadSegment(dir, "f.seg")
		if err != nil {
			return
		}
		for i, r := range got {
			if len(r) != sch.Len() {
				t.Fatalf("row %d has %d values, the schema %d", i, len(r), sch.Len())
			}
		}
	})
}
