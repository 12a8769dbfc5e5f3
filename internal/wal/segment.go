package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"structream/internal/fsx"
)

// Sharded epoch commit (the partitioned runtime's barrier protocol).
//
// Under engine.Options.Workers > 1 every state partition seals its own
// WAL segment after its store commits: a small framed record binding
// (epoch, partition) to the state version and row counts that partition
// produced. Seals happen in parallel and are NOT the commit point — a
// segment is a promise, not a decision. The epoch commits only when the
// barrier verifies that all partitions sealed and writes the single
// commit manifest (an ordinary commit-log entry carrying the segment
// digests). A crash anywhere between the first seal and the manifest
// leaves the epoch uncommitted; recovery drops the orphaned seals and
// replays the epoch with identical offsets, re-sealing byte-identical
// segments — Segment carries no timestamp precisely so that replay
// rewrites the same bytes.

// Segment is one partition's slice of an epoch commit, sealed after the
// partition's state store committed and before the barrier manifest.
type Segment struct {
	Epoch     int64 `json:"epoch"`
	Partition int   `json:"partition"`
	// StateVersion is the state-store version this partition committed
	// for the epoch (the epoch id; recorded explicitly so a manifest
	// reader needs no engine conventions).
	StateVersion int64 `json:"stateVersion"`
	// RowsIn / RowsOut count the partition's shuffled input rows and
	// emitted output rows; StateKeys is the partition's live key count
	// after the commit.
	RowsIn    int64 `json:"rowsIn"`
	RowsOut   int64 `json:"rowsOut"`
	StateKeys int64 `json:"stateKeys"`

	LengthBytes int64  `json:"lengthBytes,omitempty"`
	CRC32C      string `json:"crc32c,omitempty"`
}

// SegmentRef is a manifest's record of one sealed segment: the partition
// and the digest of its sealed bytes' canonical form.
type SegmentRef struct {
	Partition int    `json:"partition"`
	CRC32C    string `json:"crc32c"`
}

func segmentFile(dir string, epoch int64, part int) string {
	return filepath.Join(dir, fmt.Sprintf("%012d.part-%03d.json", epoch, part))
}

// WriteSegment durably seals one partition's segment. Re-sealing the same
// (epoch, partition) — a replayed epoch — atomically overwrites the file
// with identical bytes, so seals are idempotent.
func (l *Log) WriteSegment(s Segment) error {
	s.LengthBytes, s.CRC32C = 0, ""
	data, err := frameJSON(&s, func(n int64, crc string) { s.LengthBytes, s.CRC32C = n, crc })
	if err != nil {
		return err
	}
	if err := l.writeAtomic(segmentFile(l.segmentsDir, s.Epoch, s.Partition), data); err != nil {
		return err
	}
	l.segmentsWritten.Add(1)
	return nil
}

// ReadSegment loads and verifies one partition's seal; ok is false when
// it does not exist. Truncated or bit-flipped seals are an error naming
// the file.
func (l *Log) ReadSegment(epoch int64, part int) (Segment, bool, error) {
	path := segmentFile(l.segmentsDir, epoch, part)
	data, err := l.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return Segment{}, false, nil
	}
	if err != nil {
		return Segment{}, false, fmt.Errorf("wal: %w", err)
	}
	var s Segment
	if err := json.Unmarshal(data, &s); err != nil {
		return Segment{}, false, fmt.Errorf("wal: %w: %s: not a valid segment (truncated write?): %v", fsx.ErrCorrupt, path, err)
	}
	if err := verifySegmentFrame(path, s); err != nil {
		return Segment{}, false, err
	}
	if s.Epoch != epoch || s.Partition != part {
		return Segment{}, false, fmt.Errorf("wal: %w: %s: seal names epoch %d partition %d", fsx.ErrCorrupt, path, s.Epoch, s.Partition)
	}
	return s, true, nil
}

// verifySegmentFrame re-derives the frame of a decoded segment and checks
// it, exactly as verifyEntryFrame does for offsets entries.
func verifySegmentFrame(path string, s Segment) error {
	if s.CRC32C == "" && s.LengthBytes == 0 {
		return nil
	}
	wantLen, wantCRC := s.LengthBytes, s.CRC32C
	s.LengthBytes, s.CRC32C = 0, ""
	body, err := json.MarshalIndent(&s, "", "  ")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if int64(len(body)) != wantLen {
		return fmt.Errorf("wal: %w: %s: segment is %d canonical bytes but frame says %d (edited or truncated)", fsx.ErrCorrupt, path, len(body), wantLen)
	}
	if got := fmt.Sprintf("%08x", fsx.Checksum(body)); got != wantCRC {
		return fmt.Errorf("wal: %w: %s: crc32c mismatch (stored %s, computed %s — bit rot or tampering)", fsx.ErrCorrupt, path, wantCRC, got)
	}
	return nil
}

// CommitBarrier is the sharded epoch's single commit point: it verifies
// that all parts partitions sealed valid segments for the epoch, then
// writes the commit manifest referencing their digests. A missing, stale,
// or corrupt seal fails the barrier — the epoch stays uncommitted and
// recovery will replay it.
func (l *Log) CommitBarrier(epoch int64, parts int) error {
	refs := make([]SegmentRef, 0, parts)
	for p := 0; p < parts; p++ {
		s, ok, err := l.ReadSegment(epoch, p)
		if err != nil {
			return fmt.Errorf("wal: barrier for epoch %d: %w", epoch, err)
		}
		if !ok {
			return fmt.Errorf("wal: barrier for epoch %d: partition %d never sealed its segment", epoch, p)
		}
		refs = append(refs, SegmentRef{Partition: p, CRC32C: s.CRC32C})
	}
	c := Commit{
		Epoch:      epoch,
		Timestamp:  stamp(time.Now()),
		Partitions: parts,
		Segments:   refs,
	}
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

// ReadCommit loads one epoch's commit record (plain or barrier manifest);
// ok is false when the epoch has not committed.
func (l *Log) ReadCommit(epoch int64) (Commit, bool, error) {
	path := epochFile(l.commitsDir, epoch)
	data, err := l.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return Commit{}, false, nil
	}
	if err != nil {
		return Commit{}, false, fmt.Errorf("wal: %w", err)
	}
	var c Commit
	if err := json.Unmarshal(data, &c); err != nil {
		return Commit{}, false, fmt.Errorf("wal: %w: %s: not a valid commit (truncated write?): %v", fsx.ErrCorrupt, path, err)
	}
	return c, true, nil
}

// segmentEpochPart parses a segment file name; ok is false for foreign
// files.
func segmentEpochPart(name string) (epoch int64, part int, ok bool) {
	if filepath.Ext(name) != ".json" {
		return 0, 0, false
	}
	stem := name[:len(name)-len(".json")]
	i := strings.Index(stem, ".part-")
	if i < 0 {
		return 0, 0, false
	}
	e, err := strconv.ParseInt(stem[:i], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	p, err := strconv.Atoi(stem[i+len(".part-"):])
	if err != nil {
		return 0, 0, false
	}
	return e, p, true
}

// SegmentPartitions lists the partitions with sealed segments for an
// epoch, ascending — the barrier's and the tests' view of seal progress.
func (l *Log) SegmentPartitions(epoch int64) ([]int, error) {
	entries, err := l.fs.ReadDir(l.segmentsDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []int
	for _, de := range entries {
		if e, p, ok := segmentEpochPart(de.Name()); ok && e == epoch {
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out, nil
}

// pruneSegments removes segment files whose epoch fails keep. Deletion
// order is by file name, so crash schedules over the cleanup are
// deterministic.
func (l *Log) pruneSegments(keep func(epoch int64) bool) error {
	entries, err := l.fs.ReadDir(l.segmentsDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, de := range entries {
		names = append(names, de.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		e, _, ok := segmentEpochPart(name)
		if !ok || keep(e) {
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.segmentsDir, name)); err != nil {
			return fmt.Errorf("wal: pruning segments: %w", err)
		}
	}
	return nil
}

// dropUncommittedSegments removes seals for epochs newer than the last
// committed epoch. Recovery runs this so no partial-barrier state is
// visible after a restart: an epoch either has its manifest (and keeps
// its seals until purge) or replays from scratch and re-seals.
func (l *Log) dropUncommittedSegments(committed int64, anyCommit bool) error {
	return l.pruneSegments(func(e int64) bool { return anyCommit && e <= committed })
}
