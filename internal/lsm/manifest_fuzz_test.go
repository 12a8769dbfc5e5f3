package lsm

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"structream/internal/fsx"
)

// FuzzManifest feeds arbitrary bytes to the manifest reader as the file of
// some version, raw and behind a valid frame, so field values the checksum would
// otherwise stop reach the decoder. Nothing may panic, every error must be
// fsx.ErrCorrupt, and a manifest the reader accepts must be one Load can act
// on: the version its file name says, no negative counter or table number, a
// delta-log suffix that starts no later than the version ends, every table
// below the next sequence number to hand out — or the next flush would
// overwrite a live table — and no table listed twice.
func FuzzManifest(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "parent-checkpoint", "*.manifest"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed manifests: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		body, err := fsx.Verify(path, data)
		if err != nil {
			f.Fatal(err)
		}
		version, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(path), ".manifest"), 10, 8)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(version), data, false)
		f.Add(uint8(version), data[:len(data)/2], false)
		f.Add(uint8(version), body, true)
		f.Add(uint8(version+1), body, true) // another version's manifest under this name
	}
	f.Add(uint8(7), []byte(`{"version":7,"nextSeq":3,"logFrom":8,"liveKeys":2,"tableLive":2,"tables":[{"seq":0,"bytes":10,"entries":1},{"seq":2,"bytes":10,"entries":1}]}`), true)
	// Accepted before the reader checked what it decoded (found by this fuzzer
	// on its first inputs): each would have sent Load somewhere it cannot go.
	f.Add(uint8(7), []byte(`{"version":-7}`), true)
	f.Add(uint8(7), []byte(`{"version":7,"nextSeq":1,"tables":[{"seq":-1}]}`), true)
	f.Add(uint8(7), []byte(`{"version":7,"nextSeq":2,"tables":[{"seq":1},{"seq":1}]}`), true)
	f.Add(uint8(7), []byte(`{"version":7,"nextSeq":1,"tables":[{"seq":4}]}`), true)
	f.Add(uint8(7), []byte(`{"version":7,"logFrom":9}`), true)
	f.Add(uint8(7), []byte(`{"version":7,"tableLive":-1}`), true)
	f.Add(uint8(7), []byte(`null`), true)

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, v uint8, data []byte, frame bool) {
		version := int64(v)
		if frame {
			data = fsx.Seal(data)
		}
		if err := os.WriteFile(manifestPath(dir, version), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := readManifest(fsx.NoSync(), dir, version)
		if err != nil {
			if !errors.Is(err, fsx.ErrCorrupt) || !strings.Contains(err.Error(), filepath.Base(manifestPath(dir, version))) {
				t.Fatalf("error is not fsx.ErrCorrupt naming the file: %v", err)
			}
			return
		}
		if m.Version != version || m.NextSeq < 0 || m.LogFrom < 0 || m.LogFrom > version+1 || m.LiveKeys < 0 || m.TableLive < 0 {
			t.Fatalf("accepted %+v as the manifest of version %d", m, version)
		}
		seen := map[int64]bool{}
		for _, mt := range m.Tables {
			if mt.Seq < 0 || mt.Seq >= m.NextSeq || mt.Bytes < 0 || mt.Entries < 0 || seen[mt.Seq] {
				t.Fatalf("accepted table %+v in %+v", mt, m)
			}
			seen[mt.Seq] = true
		}
	})
}
