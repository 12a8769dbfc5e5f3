// Package wal implements Structured Streaming's write-ahead log (§6.1 of
// the paper): a durable record of which input offsets each epoch covers and
// which epochs have been committed to the sink. Entries are human-readable
// JSON — deliberately, so administrators can inspect the log and perform
// manual rollbacks (§7.2) with ordinary tools. All writes are atomic via
// write-to-temp-then-rename on a durability-hardened filesystem (fsync of
// the file and its parent directory), and every entry carries a
// length + CRC32C frame so truncation and bit rot are detected on read
// instead of silently replaying the wrong offsets.
package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"structream/internal/fsx"
)

// SourceOffsets records one input source's offset range for an epoch: the
// engine will read exactly [Start[i], End[i]) from partition i.
type SourceOffsets struct {
	Source string  `json:"source"`
	Start  []int64 `json:"start"`
	End    []int64 `json:"end"`
}

// Entry is one offsets-log record: the definition of an epoch. LengthBytes
// and CRC32C frame the record: they are computed over the entry's JSON
// encoding with both fields zeroed, so a reader can re-derive and check
// them. They are advisory for humans and load-bearing for recovery.
type Entry struct {
	Epoch     int64           `json:"epoch"`
	Timestamp string          `json:"timestamp"`
	Watermark int64           `json:"watermarkMicros"`
	Sources   []SourceOffsets `json:"sources"`

	LengthBytes int64  `json:"lengthBytes,omitempty"`
	CRC32C      string `json:"crc32c,omitempty"`
}

// Commit is one commit-log record, written after the sink durably holds the
// epoch's output. Only the file's presence is load-bearing; the body is
// framed like Entry for uniformity.
type Commit struct {
	Epoch     int64  `json:"epoch"`
	Timestamp string `json:"timestamp"`

	LengthBytes int64  `json:"lengthBytes,omitempty"`
	CRC32C      string `json:"crc32c,omitempty"`
}

// Log is a write-ahead log rooted at a checkpoint directory, holding an
// offsets log and a commit log.
type Log struct {
	fs         fsx.FS
	dir        string
	offsetsDir string
	commitsDir string

	// Observability counters (§7.4): cumulative write activity, exposed via
	// Stats so the monitoring layer can report WAL pressure per query.
	offsetsWritten atomic.Int64
	commitsWritten atomic.Int64
	bytesWritten   atomic.Int64
	writeNanos     atomic.Int64
}

// Stats is a point-in-time snapshot of the log's write activity.
type Stats struct {
	// OffsetsWritten counts durably recorded epoch-offset entries.
	OffsetsWritten int64
	// CommitsWritten counts durably recorded epoch commits.
	CommitsWritten int64
	// BytesWritten is the total framed bytes handed to the filesystem.
	BytesWritten int64
	// WriteNanos is the cumulative wall time spent inside atomic WAL
	// writes, including fsync.
	WriteNanos int64
}

// Stats reports the log's cumulative write counters.
func (l *Log) Stats() Stats {
	return Stats{
		OffsetsWritten: l.offsetsWritten.Load(),
		CommitsWritten: l.commitsWritten.Load(),
		BytesWritten:   l.bytesWritten.Load(),
		WriteNanos:     l.writeNanos.Load(),
	}
}

// Open creates or opens the log under dir on the hardened real filesystem.
func Open(dir string) (*Log, error) { return OpenFS(fsx.Real(), dir) }

// OpenFS creates or opens the log under dir on an explicit filesystem
// (fault injection in tests, alternate durability policies). Orphaned
// "*.tmp" files from atomic writes interrupted by a crash are reclaimed
// here, so they cannot accumulate across restarts.
func OpenFS(fsys fsx.FS, dir string) (*Log, error) {
	l := &Log{
		fs:         fsys,
		dir:        dir,
		offsetsDir: filepath.Join(dir, "offsets"),
		commitsDir: filepath.Join(dir, "commits"),
	}
	for _, d := range []string{l.offsetsDir, l.commitsDir} {
		if err := fsys.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if _, err := fsx.CleanupTmp(fsys, d); err != nil {
			return nil, fmt.Errorf("wal: reclaiming orphaned tmp files: %w", err)
		}
	}
	return l, nil
}

func epochFile(dir string, epoch int64) string {
	return filepath.Join(dir, fmt.Sprintf("%012d.json", epoch))
}

// writeAtomic writes data to path via a temp file and rename, so readers
// never observe a partial file even across crashes.
func (l *Log) writeAtomic(path string, data []byte) error {
	start := time.Now()
	err := fsx.WriteAtomic(l.fs, path, data, 0o644)
	l.writeNanos.Add(time.Since(start).Nanoseconds())
	if err == nil {
		l.bytesWritten.Add(int64(len(data)))
	}
	return err
}

// frameJSON marshals v (an *Entry or *Commit with zeroed frame fields),
// fills the frame from that canonical encoding, and marshals again. The
// result stays plain indented JSON: framing must not cost the §7.2
// "admins read this with ordinary tools" property.
func frameJSON(zeroFramed any, setFrame func(length int64, crc string)) ([]byte, error) {
	body, err := json.MarshalIndent(zeroFramed, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	setFrame(int64(len(body)), fmt.Sprintf("%08x", fsx.Checksum(body)))
	framed, err := json.MarshalIndent(zeroFramed, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return append(framed, '\n'), nil
}

// verifyEntryFrame re-derives the frame of a decoded entry and checks it.
// Entries without a frame (hand-written or pre-framing checkpoints) pass.
func verifyEntryFrame(path string, e Entry) error {
	if e.CRC32C == "" && e.LengthBytes == 0 {
		return nil
	}
	wantLen, wantCRC := e.LengthBytes, e.CRC32C
	e.LengthBytes, e.CRC32C = 0, ""
	body, err := json.MarshalIndent(&e, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if int64(len(body)) != wantLen {
		return fmt.Errorf("wal: %w: %s: entry is %d canonical bytes but frame says %d (edited or truncated)", fsx.ErrCorrupt, path, len(body), wantLen)
	}
	if got := fmt.Sprintf("%08x", fsx.Checksum(body)); got != wantCRC {
		return fmt.Errorf("wal: %w: %s: crc32c mismatch (stored %s, computed %s — bit rot or tampering)", fsx.ErrCorrupt, path, wantCRC, got)
	}
	return nil
}

// stampLayout is RFC 3339 with all nine fractional digits written out.
// time.RFC3339Nano trims trailing zeros, so an entry stamped with it had a
// length that depended on the instant it was written, and wal.bytes_epoch
// differed between two runs of one commit. time.Parse(time.RFC3339Nano, ...)
// reads both forms, and nothing in a checkpoint depends on which it holds.
const stampLayout = "2006-01-02T15:04:05.000000000Z07:00"

// stamp renders the wall-clock time an entry or commit records.
func stamp(t time.Time) string { return t.UTC().Format(stampLayout) }

// WriteOffsets durably records an epoch's offset ranges. Writing the same
// epoch twice with identical content is idempotent; differing content is an
// error, because an epoch's definition must never change once logged (this
// is what makes replay deterministic).
func (l *Log) WriteOffsets(e Entry) error {
	if e.Timestamp == "" {
		e.Timestamp = stamp(time.Now())
	}
	path := epochFile(l.offsetsDir, e.Epoch)
	if existing, ok, err := l.ReadOffsets(e.Epoch); err != nil {
		return err
	} else if ok {
		if sameEpochDefinition(existing, e) {
			return nil
		}
		return fmt.Errorf("wal: epoch %d already logged with different offsets", e.Epoch)
	}
	e.LengthBytes, e.CRC32C = 0, ""
	data, err := frameJSON(&e, func(n int64, crc string) { e.LengthBytes, e.CRC32C = n, crc })
	if err != nil {
		return err
	}
	if err := l.writeAtomic(path, data); err != nil {
		return err
	}
	l.offsetsWritten.Add(1)
	return nil
}

func sameEpochDefinition(a, b Entry) bool {
	if a.Epoch != b.Epoch || len(a.Sources) != len(b.Sources) {
		return false
	}
	for i := range a.Sources {
		x, y := a.Sources[i], b.Sources[i]
		if x.Source != y.Source || len(x.Start) != len(y.Start) || len(x.End) != len(y.End) {
			return false
		}
		for j := range x.Start {
			if x.Start[j] != y.Start[j] {
				return false
			}
		}
		for j := range x.End {
			if x.End[j] != y.End[j] {
				return false
			}
		}
	}
	return true
}

// ReadOffsets loads and verifies one epoch's entry; ok is false when it
// does not exist. A truncated, bit-flipped, or otherwise unreadable entry
// is an error naming the file.
func (l *Log) ReadOffsets(epoch int64) (Entry, bool, error) {
	path := epochFile(l.offsetsDir, epoch)
	data, err := l.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return Entry{}, false, nil
	}
	if err != nil {
		return Entry{}, false, fmt.Errorf("wal: %w", err)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, false, fmt.Errorf("wal: %w: %s: not valid JSON (truncated write?): %v", fsx.ErrCorrupt, path, err)
	}
	if err := verifyEntryFrame(path, e); err != nil {
		return Entry{}, false, err
	}
	// A frame vouches for the bytes, not for what they say: an entry filed
	// under another epoch's name, or a range with a start and no end, would
	// be replayed as written.
	if e.Epoch != epoch {
		return Entry{}, false, fmt.Errorf("wal: %w: %s: entry names epoch %d", fsx.ErrCorrupt, path, e.Epoch)
	}
	for _, s := range e.Sources {
		if len(s.Start) != len(s.End) {
			return Entry{}, false, fmt.Errorf("wal: %w: %s: source %q has %d start offsets and %d end offsets", fsx.ErrCorrupt, path, s.Source, len(s.Start), len(s.End))
		}
	}
	return e, true, nil
}

// listEpochs returns the sorted epoch numbers present in dir.
func (l *Log) listEpochs(dir string) ([]int64, error) {
	entries, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []int64
	for _, de := range entries {
		name := de.Name()
		if filepath.Ext(name) != ".json" {
			continue
		}
		n, err := strconv.ParseInt(name[:len(name)-len(".json")], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Epochs lists the epochs with offsets entries, ascending.
func (l *Log) Epochs() ([]int64, error) { return l.listEpochs(l.offsetsDir) }

// LatestOffsets returns the highest-numbered offsets entry.
func (l *Log) LatestOffsets() (Entry, bool, error) {
	epochs, err := l.Epochs()
	if err != nil || len(epochs) == 0 {
		return Entry{}, false, err
	}
	return l.ReadOffsets(epochs[len(epochs)-1])
}

// WriteCommit records that an epoch's output is durably in the sink.
func (l *Log) WriteCommit(epoch int64) error {
	c := Commit{Epoch: epoch, Timestamp: stamp(time.Now())}
	data, err := frameJSON(&c, func(n int64, crc string) { c.LengthBytes, c.CRC32C = n, crc })
	if err != nil {
		return err
	}
	if err := l.writeAtomic(epochFile(l.commitsDir, epoch), data); err != nil {
		return err
	}
	l.commitsWritten.Add(1)
	return nil
}

// Commits lists committed epochs, ascending.
func (l *Log) Commits() ([]int64, error) { return l.listEpochs(l.commitsDir) }

// LatestCommit returns the highest committed epoch; ok is false when no
// epoch has committed yet.
func (l *Log) LatestCommit() (int64, bool, error) {
	commits, err := l.Commits()
	if err != nil || len(commits) == 0 {
		return 0, false, err
	}
	return commits[len(commits)-1], true, nil
}

// RollbackTo removes every offsets and commit entry with epoch > keep,
// implementing manual rollback (§7.2): after restart the engine re-plans
// from the prefix ending at keep. RollbackTo(-1) clears the whole log.
func (l *Log) RollbackTo(keep int64) error {
	for _, dir := range []string{l.offsetsDir, l.commitsDir} {
		epochs, err := l.listEpochs(dir)
		if err != nil {
			return err
		}
		// Delete newest-first so a crash mid-rollback leaves a contiguous,
		// consistent prefix.
		for i := len(epochs) - 1; i >= 0; i-- {
			if epochs[i] <= keep {
				break
			}
			if err := l.fs.Remove(epochFile(dir, epochs[i])); err != nil {
				return fmt.Errorf("wal: rollback: %w", err)
			}
		}
	}
	return nil
}

// Purge removes entries older than before (exclusive), bounding log growth.
// The latest committed epoch is always retained.
func (l *Log) Purge(before int64) error {
	latest, ok, err := l.LatestCommit()
	if err != nil {
		return err
	}
	if ok && before > latest {
		before = latest
	}
	for _, dir := range []string{l.offsetsDir, l.commitsDir} {
		epochs, err := l.listEpochs(dir)
		if err != nil {
			return err
		}
		for _, e := range epochs {
			if e >= before {
				break
			}
			if err := l.fs.Remove(epochFile(dir, e)); err != nil {
				return fmt.Errorf("wal: purge: %w", err)
			}
		}
	}
	return nil
}

// removeRetiredSeals deletes the segments/ directory of a checkpoint written
// when every state partition sealed a file there per epoch. Nothing ever
// read a seal for a decision — a commit counts by its file's presence — so
// seals of committed and uncommitted epochs go alike: files in name order
// (ReadDir's), then the directory, so a crash in between leaves a shorter
// directory for the next restart to finish.
func (l *Log) removeRetiredSeals() error {
	dir := filepath.Join(l.dir, "segments")
	entries, err := l.fs.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	for _, de := range entries {
		if err := l.fs.Remove(filepath.Join(dir, de.Name())); err != nil {
			return fmt.Errorf("wal: removing retired seals: %w", err)
		}
	}
	if err := l.fs.Remove(dir); err != nil {
		return fmt.Errorf("wal: removing retired seals: %w", err)
	}
	return nil
}

// RecoveryPoint describes where a restarted query resumes: the next epoch
// to run, and the epoch whose output may be partially written (needs
// re-running with identical offsets) if any.
type RecoveryPoint struct {
	// NextEpoch is the epoch id the engine should execute next.
	NextEpoch int64
	// Replay, when non-nil, is a logged-but-uncommitted epoch that must be
	// re-executed with exactly these offsets before new epochs start.
	Replay *Entry
	// Watermark is the event-time watermark to restore, from the most
	// recent offsets entry.
	Watermark int64
	// DroppedCorrupt lists unreadable *uncommitted* tail entries that were
	// removed during recovery. Losing an uncommitted entry is safe — its
	// epoch never reached the sink and will simply be re-planned — but the
	// engine surfaces the count as a corruption metric.
	DroppedCorrupt []string
}

// Recover computes the recovery point from the log state, implementing the
// restart protocol of §6.1: find the last epoch not committed to the sink,
// re-run it with the same offsets, then continue. Recovery additionally
// enforces log integrity: the offsets log must be gap-free (a missing
// intermediate epoch means the checkpoint was damaged — resuming would
// silently skip input), a corrupt *committed* entry is a hard error naming
// the file, and a corrupt *uncommitted* tail entry (torn by a crash that
// beat the atomic rename odds, or bit-rotted) is dropped and re-planned.
func (l *Log) Recover() (RecoveryPoint, error) {
	if err := l.removeRetiredSeals(); err != nil {
		return RecoveryPoint{}, err
	}
	epochs, err := l.Epochs()
	if err != nil {
		return RecoveryPoint{}, err
	}
	if len(epochs) == 0 {
		return RecoveryPoint{NextEpoch: 0}, nil
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] != epochs[i-1]+1 {
			return RecoveryPoint{}, fmt.Errorf(
				"wal: offsets log has a gap: epoch %d is followed by %d (epochs %d..%d are missing); the checkpoint is damaged — restore the missing entries or roll back to epoch %d before restarting",
				epochs[i-1], epochs[i], epochs[i-1]+1, epochs[i]-1, epochs[i-1])
		}
	}
	committed, anyCommit, err := l.LatestCommit()
	if err != nil {
		return RecoveryPoint{}, err
	}

	var dropped []string
	last := epochs[len(epochs)-1]
	latest, ok, rerr := l.ReadOffsets(last)
	if rerr != nil {
		if anyCommit && committed >= last {
			return RecoveryPoint{}, fmt.Errorf("wal: committed epoch %d is unreadable and cannot be dropped: %w", last, rerr)
		}
		// The tail entry never committed: drop it and re-plan that epoch.
		path := epochFile(l.offsetsDir, last)
		if err := l.fs.Remove(path); err != nil {
			return RecoveryPoint{}, fmt.Errorf("wal: dropping corrupt uncommitted entry: %w", err)
		}
		dropped = append(dropped, path)
		if len(epochs) == 1 {
			return RecoveryPoint{NextEpoch: last, DroppedCorrupt: dropped}, nil
		}
		last = epochs[len(epochs)-2]
		latest, ok, rerr = l.ReadOffsets(last)
		if rerr != nil {
			// At most one trailing entry can be uncommitted under the §6.1
			// protocol, so this one was committed — hard error.
			return RecoveryPoint{}, fmt.Errorf("wal: committed epoch %d is unreadable: %w", last, rerr)
		}
	}
	if !ok {
		// Raced with a concurrent rollback; treat as fresh.
		return RecoveryPoint{NextEpoch: 0, DroppedCorrupt: dropped}, nil
	}
	rp := RecoveryPoint{NextEpoch: latest.Epoch + 1, Watermark: latest.Watermark, DroppedCorrupt: dropped}
	if !anyCommit || committed < latest.Epoch {
		rp.Replay = &latest
	}
	return rp, nil
}
