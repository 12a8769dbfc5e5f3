package wal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"structream/internal/fsx"
)

// parentBarrierManifest is a commit record as the last commit with a
// per-partition seal protocol (cfd5eaf) wrote it under Workers > 1, for an
// epoch that partitions 0 and 1 had sealed: "partitions" and "segments" are
// fields this tree no longer declares. It must count as a commit.
const parentBarrierManifest = `{
  "epoch": 0,
  "timestamp": "2026-09-27T13:09:19.679277651Z",
  "partitions": 2,
  "segments": [
    {
      "partition": 0,
      "crc32c": "9d5a72e9"
    },
    {
      "partition": 1,
      "crc32c": "e74202aa"
    }
  ],
  "lengthBytes": 228,
  "crc32c": "ec3ef0fa"
}
`

// FuzzWALDecode feeds arbitrary bytes to the two records the log keeps —
// an offsets entry and a commit — as the file for epoch 0, raw and behind a
// valid frame: when the bytes decode at all, the decoded record is framed
// again with the length and checksum it should carry, so field values the
// checksum would otherwise stop reach the reader. Nothing may panic, every
// error must be fsx.ErrCorrupt, and what the reader accepts must be the
// record its file name says it is. A commit is never decoded: recovery
// counts its file's presence, whatever the bytes.
func FuzzWALDecode(f *testing.F) {
	seedDir := f.TempDir()
	seeds, err := Open(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	entry := Entry{Epoch: 0, Watermark: 5, Sources: []SourceOffsets{{Source: "s", Start: []int64{0, 2}, End: []int64{3, 4}}}}
	if err := errors.Join(seeds.WriteOffsets(entry), seeds.WriteCommit(0)); err != nil {
		f.Fatal(err)
	}
	for kind, path := range []string{"offsets/000000000000.json", "commits/000000000000.json"} {
		data, err := os.ReadFile(filepath.Join(seedDir, path))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(kind), data, false)
		f.Add(uint8(kind), data[:len(data)/2], false)
	}
	f.Add(uint8(1), []byte(parentBarrierManifest), false)
	f.Add(uint8(0), []byte(`{"epoch":7,"sources":[{"source":"s","start":[0,1],"end":[2]}]}`), true)
	f.Add(uint8(1), []byte(`{"epoch":0,"partitions":-3,"segments":[{"partition":9,"crc32c":"zz"}]}`), true)

	dir := f.TempDir()
	l, err := OpenFS(fsx.NoSync(), dir)
	if err != nil {
		f.Fatal(err)
	}
	files := []string{epochFile(l.offsetsDir, 0), epochFile(l.commitsDir, 0)}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte, reframe bool) {
		kind %= 2
		if reframe {
			data = reframed(kind, data)
		}
		for _, path := range files {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(files[kind], data, 0o644); err != nil {
			t.Fatal(err)
		}
		corruptOrNil := func(what string, err error) {
			t.Helper()
			if err != nil && !errors.Is(err, fsx.ErrCorrupt) {
				t.Fatalf("%s: %v is not fsx.ErrCorrupt", what, err)
			}
		}
		switch kind {
		case 0:
			e, ok, err := l.ReadOffsets(0)
			corruptOrNil("ReadOffsets", err)
			if ok {
				if e.Epoch != 0 {
					t.Fatalf("epoch 0's file read back as epoch %d", e.Epoch)
				}
				for _, s := range e.Sources {
					if len(s.Start) != len(s.End) {
						t.Fatalf("accepted a range with %d starts and %d ends", len(s.Start), len(s.End))
					}
				}
			}
			// Committed, the entry cannot be dropped: unreadable is an error.
			if err := l.WriteCommit(0); err != nil {
				t.Fatal(err)
			}
			_, rerr := l.Recover()
			corruptOrNil("Recover over a committed entry", rerr)
			if (err != nil) != (rerr != nil) {
				t.Fatalf("ReadOffsets says %v, Recover over the same committed entry %v", err, rerr)
			}
			// Uncommitted, it is dropped and its epoch planned again.
			if err := os.Remove(files[1]); err != nil {
				t.Fatal(err)
			}
			rp, rerr := l.Recover()
			if rerr != nil {
				t.Fatalf("Recover over an uncommitted entry: %v", rerr)
			}
			if dropped := len(rp.DroppedCorrupt) == 1; dropped != (err != nil) {
				t.Fatalf("ReadOffsets says %v, Recover dropped %v", err, rp.DroppedCorrupt)
			}
		case 1:
			if err := l.WriteOffsets(Entry{Epoch: 0}); err != nil {
				t.Fatal(err)
			}
			if rp, err := l.Recover(); err != nil || rp.NextEpoch != 1 || rp.Replay != nil {
				t.Fatalf("Recover over a committed epoch 0: %+v, %v", rp, err)
			}
		}
	})
}

// reframed decodes data as the record of the given kind and encodes it
// again under the frame its content should carry; data that does not decode
// comes back as it is.
func reframed(kind uint8, data []byte) []byte {
	if kind == 0 {
		return reframe(data, func(e *Entry, n int64, crc string) { e.LengthBytes, e.CRC32C = n, crc })
	}
	return reframe(data, func(c *Commit, n int64, crc string) { c.LengthBytes, c.CRC32C = n, crc })
}

func reframe[T any](data []byte, setFrame func(rec *T, n int64, crc string)) []byte {
	var rec T
	if json.Unmarshal(data, &rec) != nil {
		return data
	}
	setFrame(&rec, 0, "")
	out, err := frameJSON(&rec, func(n int64, crc string) { setFrame(&rec, n, crc) })
	if err != nil {
		return data
	}
	return out
}
