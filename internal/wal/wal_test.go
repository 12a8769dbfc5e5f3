package wal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"structream/internal/fsx"
)

func openLog(t *testing.T) *Log {
	t.Helper()
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func entry(epoch int64, start, end int64) Entry {
	return Entry{
		Epoch:   epoch,
		Sources: []SourceOffsets{{Source: "kafka/topic", Start: []int64{start}, End: []int64{end}}},
	}
}

func TestWriteReadOffsets(t *testing.T) {
	l := openLog(t)
	e := entry(0, 0, 100)
	e.Watermark = 42
	if err := l.WriteOffsets(e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := l.ReadOffsets(0)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if got.Epoch != 0 || got.Watermark != 42 || got.Sources[0].End[0] != 100 {
		t.Errorf("entry = %+v", got)
	}
	if got.Timestamp == "" {
		t.Error("timestamp should be auto-filled")
	}
}

func TestOffsetsAreHumanReadableJSON(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.WriteOffsets(entry(3, 10, 20))
	data, err := os.ReadFile(filepath.Join(dir, "offsets", "000000000003.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Indented JSON with named fields, per §7.2: admins read this by hand.
	if !strings.Contains(string(data), "\n  \"sources\"") {
		t.Errorf("offsets entry not human-readable:\n%s", data)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
}

func TestIdempotentRewriteSameEpoch(t *testing.T) {
	l := openLog(t)
	if err := l.WriteOffsets(entry(0, 0, 10)); err != nil {
		t.Fatal(err)
	}
	// Same definition: fine (recovery re-logs the replayed epoch).
	if err := l.WriteOffsets(entry(0, 0, 10)); err != nil {
		t.Errorf("idempotent rewrite failed: %v", err)
	}
	// Different definition: must be rejected.
	if err := l.WriteOffsets(entry(0, 0, 99)); err == nil {
		t.Error("conflicting epoch definition accepted")
	}
}

func TestCommitsAndLatest(t *testing.T) {
	l := openLog(t)
	for e := int64(0); e < 3; e++ {
		if err := l.WriteOffsets(entry(e, e*10, e*10+10)); err != nil {
			t.Fatal(err)
		}
		if err := l.WriteCommit(e); err != nil {
			t.Fatal(err)
		}
	}
	latest, ok, err := l.LatestCommit()
	if err != nil || !ok || latest != 2 {
		t.Errorf("latest commit = %d ok=%v err=%v", latest, ok, err)
	}
	le, ok, _ := l.LatestOffsets()
	if !ok || le.Epoch != 2 {
		t.Errorf("latest offsets = %+v", le)
	}
	epochs, _ := l.Epochs()
	if len(epochs) != 3 || epochs[0] != 0 || epochs[2] != 2 {
		t.Errorf("epochs = %v", epochs)
	}
}

func TestRecoverFreshLog(t *testing.T) {
	l := openLog(t)
	rp, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rp.NextEpoch != 0 || rp.Replay != nil {
		t.Errorf("rp = %+v", rp)
	}
}

func TestRecoverCleanShutdown(t *testing.T) {
	l := openLog(t)
	l.WriteOffsets(entry(0, 0, 10))
	l.WriteCommit(0)
	l.WriteOffsets(entry(1, 10, 25))
	l.WriteCommit(1)
	rp, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rp.NextEpoch != 2 || rp.Replay != nil {
		t.Errorf("rp = %+v", rp)
	}
}

func TestRecoverUncommittedEpochReplays(t *testing.T) {
	l := openLog(t)
	l.WriteOffsets(entry(0, 0, 10))
	l.WriteCommit(0)
	l.WriteOffsets(entry(1, 10, 25)) // crash before commit
	rp, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rp.NextEpoch != 2 {
		t.Errorf("next = %d", rp.NextEpoch)
	}
	if rp.Replay == nil || rp.Replay.Epoch != 1 || rp.Replay.Sources[0].End[0] != 25 {
		t.Errorf("replay = %+v", rp.Replay)
	}
}

func TestRecoverFirstEpochUncommitted(t *testing.T) {
	l := openLog(t)
	l.WriteOffsets(entry(0, 0, 10))
	rp, err := l.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rp.Replay == nil || rp.Replay.Epoch != 0 || rp.NextEpoch != 1 {
		t.Errorf("rp = %+v", rp)
	}
}

func TestRollback(t *testing.T) {
	l := openLog(t)
	for e := int64(0); e < 5; e++ {
		l.WriteOffsets(entry(e, e*10, e*10+10))
		l.WriteCommit(e)
	}
	if err := l.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	epochs, _ := l.Epochs()
	if len(epochs) != 2 || epochs[1] != 1 {
		t.Errorf("epochs after rollback = %v", epochs)
	}
	commits, _ := l.Commits()
	if len(commits) != 2 {
		t.Errorf("commits after rollback = %v", commits)
	}
	rp, _ := l.Recover()
	if rp.NextEpoch != 2 || rp.Replay != nil {
		t.Errorf("rp after rollback = %+v", rp)
	}
	// Rollback to -1 clears everything.
	if err := l.RollbackTo(-1); err != nil {
		t.Fatal(err)
	}
	epochs, _ = l.Epochs()
	if len(epochs) != 0 {
		t.Errorf("epochs = %v", epochs)
	}
}

func TestPurgeKeepsLatestCommit(t *testing.T) {
	l := openLog(t)
	for e := int64(0); e < 5; e++ {
		l.WriteOffsets(entry(e, e*10, e*10+10))
		l.WriteCommit(e)
	}
	if err := l.Purge(99); err != nil {
		t.Fatal(err)
	}
	epochs, _ := l.Epochs()
	if len(epochs) != 1 || epochs[0] != 4 {
		t.Errorf("purge must retain the latest committed epoch; epochs = %v", epochs)
	}
}

func TestPurgeBounded(t *testing.T) {
	l := openLog(t)
	for e := int64(0); e < 5; e++ {
		l.WriteOffsets(entry(e, 0, 1))
		l.WriteCommit(e)
	}
	l.Purge(3)
	epochs, _ := l.Epochs()
	if len(epochs) != 2 || epochs[0] != 3 {
		t.Errorf("epochs = %v", epochs)
	}
}

func TestReopenSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	l1, _ := Open(dir)
	l1.WriteOffsets(entry(0, 0, 7))
	l1.WriteCommit(0)
	// "Restart": open a fresh Log over the same directory.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, _ := l2.ReadOffsets(0)
	if !ok || got.Sources[0].End[0] != 7 {
		t.Errorf("entry after reopen = %+v ok=%v", got, ok)
	}
}

func TestCorruptEntrySurfacesError(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.WriteOffsets(entry(0, 0, 7))
	os.WriteFile(filepath.Join(dir, "offsets", "000000000000.json"), []byte("{garbage"), 0o644)
	if _, _, err := l.ReadOffsets(0); err == nil {
		t.Error("corrupt entry should error")
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	os.WriteFile(filepath.Join(dir, "offsets", "README.txt"), []byte("hi"), 0o644)
	os.WriteFile(filepath.Join(dir, "offsets", "xyz.json"), []byte("{}"), 0o644)
	l.WriteOffsets(entry(0, 0, 1))
	epochs, err := l.Epochs()
	if err != nil || len(epochs) != 1 {
		t.Errorf("epochs = %v err=%v", epochs, err)
	}
}

func TestMultiSourceEntry(t *testing.T) {
	l := openLog(t)
	e := Entry{Epoch: 0, Sources: []SourceOffsets{
		{Source: "tcp_logs", Start: []int64{0, 0}, End: []int64{5, 9}},
		{Source: "dhcp_logs", Start: []int64{2}, End: []int64{4}},
	}}
	if err := l.WriteOffsets(e); err != nil {
		t.Fatal(err)
	}
	got, _, _ := l.ReadOffsets(0)
	if len(got.Sources) != 2 || got.Sources[1].Source != "dhcp_logs" {
		t.Errorf("entry = %+v", got)
	}
}

func TestOpenReclaimsOrphanedTmpFiles(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.WriteOffsets(entry(0, 0, 7))
	// Simulate a crash mid-writeAtomic: an orphaned .tmp in each dir.
	orphanO := filepath.Join(dir, "offsets", "000000000001.json.tmp")
	orphanC := filepath.Join(dir, "commits", "000000000000.json.tmp")
	os.WriteFile(orphanO, []byte("partial"), 0o644)
	os.WriteFile(orphanC, []byte("partial"), 0o644)
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{orphanO, orphanC} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("orphaned tmp file not reclaimed: %s", p)
		}
	}
	// The live entry survived.
	l2, _ := Open(dir)
	if _, ok, err := l2.ReadOffsets(0); !ok || err != nil {
		t.Errorf("live entry lost: ok=%v err=%v", ok, err)
	}
}

func TestRecoverDetectsOffsetsGap(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	for e := int64(0); e < 4; e++ {
		l.WriteOffsets(entry(e, e*10, e*10+10))
		l.WriteCommit(e)
	}
	// Delete an intermediate epoch file: the log now has a hole.
	os.Remove(filepath.Join(dir, "offsets", "000000000002.json"))
	_, err := l.Recover()
	if err == nil {
		t.Fatal("gap in offsets log not detected")
	}
	if !strings.Contains(err.Error(), "gap") || !strings.Contains(err.Error(), "2") {
		t.Errorf("gap error not descriptive: %v", err)
	}
}

func TestRecoverDropsCorruptUncommittedTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.WriteOffsets(entry(0, 0, 10))
	l.WriteCommit(0)
	l.WriteOffsets(entry(1, 10, 25)) // crash before commit...
	tail := filepath.Join(dir, "offsets", "000000000001.json")
	data, _ := os.ReadFile(tail)
	os.WriteFile(tail, data[:len(data)/2], 0o644) // ...tears the entry
	rp, err := l.Recover()
	if err != nil {
		t.Fatalf("corrupt uncommitted tail must be recoverable: %v", err)
	}
	if len(rp.DroppedCorrupt) != 1 || !strings.Contains(rp.DroppedCorrupt[0], "000000000001.json") {
		t.Errorf("DroppedCorrupt = %v", rp.DroppedCorrupt)
	}
	// The torn epoch is re-planned, not replayed from the torn entry.
	if rp.NextEpoch != 1 || rp.Replay != nil {
		t.Errorf("rp = %+v", rp)
	}
	if _, err := os.Stat(tail); !os.IsNotExist(err) {
		t.Error("torn entry should have been removed")
	}
}

func TestRecoverCorruptOnlyEntry(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.WriteOffsets(entry(0, 0, 10)) // never committed
	tail := filepath.Join(dir, "offsets", "000000000000.json")
	os.WriteFile(tail, []byte("{torn"), 0o644)
	rp, err := l.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rp.NextEpoch != 0 || rp.Replay != nil || len(rp.DroppedCorrupt) != 1 {
		t.Errorf("rp = %+v", rp)
	}
}

func TestRecoverCorruptCommittedEntryIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.WriteOffsets(entry(0, 0, 10))
	l.WriteCommit(0)
	path := filepath.Join(dir, "offsets", "000000000000.json")
	os.WriteFile(path, []byte("{torn"), 0o644)
	_, err := l.Recover()
	if err == nil {
		t.Fatal("corrupt committed entry must be a hard error")
	}
	if !strings.Contains(err.Error(), "000000000000.json") {
		t.Errorf("error should name the file: %v", err)
	}
}

func TestFrameDetectsInPlaceEdit(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir)
	l.WriteOffsets(entry(0, 0, 25))
	path := filepath.Join(dir, "offsets", "000000000000.json")
	data, _ := os.ReadFile(path)
	// Flip one digit of the end offset, keeping the file valid JSON of the
	// same length — only the CRC can catch this.
	edited := strings.Replace(string(data), "25", "26", 1)
	if edited == string(data) {
		t.Fatal("test setup: nothing replaced")
	}
	os.WriteFile(path, []byte(edited), 0o644)
	_, _, err := l.ReadOffsets(0)
	if err == nil {
		t.Fatal("in-place edit not detected")
	}
	if !strings.Contains(err.Error(), "crc32c") || !strings.Contains(err.Error(), "000000000000.json") {
		t.Errorf("error should blame the crc and name the file: %v", err)
	}
}

// TestEntryLengthIsStableAcrossInstants: an offsets entry's bytes do not
// depend on when it was written. RFC3339Nano trims trailing zeros of the
// fraction, so the same entry was up to ten bytes shorter at a round instant;
// the fixed-width stamp is still what time.Parse(RFC3339Nano) reads, and an
// entry stamped the old way still loads.
func TestEntryLengthIsStableAcrossInstants(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	instants := []time.Time{
		time.Date(2026, 9, 27, 7, 0, 0, 0, time.UTC),           // RFC3339Nano: no fraction at all
		time.Date(2026, 9, 27, 7, 0, 0, 120_000_000, time.UTC), // RFC3339Nano: ".12"
		time.Date(2026, 9, 27, 7, 0, 0, 123_456_789, time.FixedZone("", 3600)),
	}
	var sizes []int64
	for i, at := range instants {
		e := entry(int64(i), 0, 100)
		e.Timestamp = stamp(at)
		if back, err := time.Parse(time.RFC3339Nano, e.Timestamp); err != nil || !back.Equal(at) {
			t.Fatalf("stamp %q parses back as %v (%v), want %v", e.Timestamp, back, err, at)
		}
		if err := l.WriteOffsets(e); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(epochFile(filepath.Join(dir, "offsets"), int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}
	if sizes[0] != sizes[1] || sizes[1] != sizes[2] {
		t.Fatalf("entries written at three instants are %v bytes long", sizes)
	}
	// The stamps the log fills in itself have that width too.
	if err := l.WriteCommit(0); err != nil {
		t.Fatal(err)
	}
	var c Commit
	data, err := os.ReadFile(epochFile(filepath.Join(dir, "commits"), 0))
	if err == nil {
		err = json.Unmarshal(data, &c)
	}
	if err != nil || len(c.Timestamp) != len(stamp(instants[0])) {
		t.Fatalf("commit stamp %q (err=%v), want the width of %q", c.Timestamp, err, stamp(instants[0]))
	}
	// An entry from an older checkpoint, stamped with the trimming layout.
	old := entry(3, 100, 200)
	old.Timestamp = instants[0].Format(time.RFC3339Nano)
	if err := l.WriteOffsets(old); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := l.ReadOffsets(3); err != nil || !ok || got.Timestamp != old.Timestamp {
		t.Fatalf("old-layout entry read back as %+v (ok=%v, err=%v)", got, ok, err)
	}
}

// parentSeal is partition 0's seal of epoch 0 as the last commit with a
// per-partition seal protocol (cfd5eaf) wrote it; parentBarrierManifest
// (wal_fuzz_test.go) is the commit record that went with it.
const parentSeal = `{
  "epoch": 0,
  "partition": 0,
  "stateVersion": 0,
  "rowsIn": 3,
  "rowsOut": 2,
  "stateKeys": 2,
  "lengthBytes": 104,
  "crc32c": "9d5a72e9"
}
`

// TestRecoverRemovesRetiredSeals: a checkpoint written under the retired
// per-partition seal protocol holds segments/ with seals of committed
// epochs, orphaned seals of a crashed one and perhaps a torn temp file.
// Recover reads the log exactly as it reads any other — the barrier manifest
// counts as a commit by its presence — and leaves no segments/ behind; a
// checkpoint this tree wrote never had one.
func TestRecoverRemovesRetiredSeals(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "segments")); !os.IsNotExist(err) {
		t.Fatalf("Open created segments/ (stat: %v)", err)
	}
	l.WriteOffsets(entry(0, 0, 10))
	l.WriteOffsets(entry(1, 10, 20)) // logged, sealed by one partition, never committed
	segs := filepath.Join(dir, "segments")
	if err := os.Mkdir(segs, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"commits/000000000000.json":               parentBarrierManifest,
		"segments/000000000000.part-000.json":     parentSeal,
		"segments/000000000000.part-001.json":     parentSeal,
		"segments/000000000001.part-000.json":     parentSeal,
		"segments/000000000001.part-001.json.tmp": parentSeal[:40],
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A crash part-way through the removal leaves a shorter directory; the
	// next restart finishes the job. Names go in order, the directory last.
	ffs := fsx.NewFaultFS(fsx.NoSync())
	ffs.CrashAt, ffs.Mode = 3, fsx.CrashBefore
	crashed, err := OpenFS(ffs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.Recover(); !errors.Is(err, fsx.ErrCrash) {
		t.Fatalf("Recover under a crash at the third removal: %v", err)
	}
	if left, _ := os.ReadDir(segs); len(left) != 2 || left[0].Name() != "000000000001.part-000.json" {
		t.Fatalf("crash at the third removal left %v", left)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := l2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rp.Replay == nil || rp.Replay.Epoch != 1 || rp.NextEpoch != 2 {
		t.Fatalf("recovery = %+v, want epoch 1 replayed", rp)
	}
	if _, err := os.Stat(segs); !os.IsNotExist(err) {
		t.Fatalf("segments/ survived recovery (stat: %v)", err)
	}
	if rp2, err := l2.Recover(); err != nil || rp2.NextEpoch != 2 {
		t.Fatalf("second Recover, nothing left to remove: %+v, %v", rp2, err)
	}
}
