package lsm

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"structream/internal/fsx"
)

// Every committed version writes a tiny manifest — the authoritative,
// crash-safe description of how to reconstruct that version: which SSTables
// (oldest first) plus which suffix of the delta log replays on top. A
// version's manifest is written last in its commit, after the delta (the
// durability point) and any flush or compaction output, so a crash anywhere
// in between leaves at most orphaned .sst files and a recovery path through
// the previous manifest + delta replay. Manifests are JSON inside the same
// fsx CRC frame as every other state file, installed by atomic rename.

// manifestTable references one live SSTable by sequence number.
type manifestTable struct {
	Seq     int64 `json:"seq"`
	Bytes   int64 `json:"bytes"`
	Entries int64 `json:"entries"`
}

// manifest pins one committed version of the tree.
type manifest struct {
	Version int64 `json:"version"`
	NextSeq int64 `json:"nextSeq"`
	LogFrom int64 `json:"logFrom"` // first delta version the memtable held
	// LiveKeys counts live keys at Version — informational.
	LiveKeys int64 `json:"liveKeys"`
	// TableLive counts live keys in the table set alone (state as of
	// LogFrom-1). Recovery starts its counter here and lets delta replay
	// re-derive the rest; starting from LiveKeys would double-count every
	// replayed insertion.
	TableLive int64 `json:"tableLive"`
	// Tables is oldest-first: list order, not sequence number, is the
	// shadowing authority (compaction outputs carry fresh seqs but replace
	// tables mid-list).
	Tables []manifestTable `json:"tables,omitempty"`
}

func manifestPath(dir string, version int64) string {
	return filepath.Join(dir, fmt.Sprintf("%d.manifest", version))
}

func tablePath(dir string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("%d.sst", seq))
}

func writeManifest(fsys fsx.FS, dir string, m manifest) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("lsm: encode manifest: %w", err)
	}
	if err := fsx.WriteAtomic(fsys, manifestPath(dir, m.Version), fsx.Seal(body), 0o644); err != nil {
		return fmt.Errorf("lsm: %w", err)
	}
	return nil
}

func readManifest(fsys fsx.FS, dir string, version int64) (manifest, error) {
	path := manifestPath(dir, version)
	data, err := fsys.ReadFile(path)
	if err != nil {
		return manifest{}, fmt.Errorf("lsm: %w", err)
	}
	body, err := fsx.Verify(path, data)
	if err != nil {
		return manifest{}, fmt.Errorf("lsm: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return manifest{}, fmt.Errorf("lsm: %w: %s: %v", fsx.ErrCorrupt, path, err)
	}
	if err := m.check(version); err != nil {
		return manifest{}, fmt.Errorf("lsm: %w: %s: %v", fsx.ErrCorrupt, path, err)
	}
	return m, nil
}

// check holds a decoded manifest to what every manifest the tree writes
// satisfies and Load relies on: a frame that verifies says the bytes are the
// ones written, not that this code wrote them.
func (m manifest) check(version int64) error {
	switch {
	case m.Version != version:
		return fmt.Errorf("describes version %d, not %d", m.Version, version)
	case m.NextSeq < 0 || m.LiveKeys < 0 || m.TableLive < 0:
		return fmt.Errorf("negative counter (nextSeq %d, liveKeys %d, tableLive %d)", m.NextSeq, m.LiveKeys, m.TableLive)
	case m.LogFrom < 0 || m.LogFrom > version+1:
		return fmt.Errorf("delta log from %d, beyond version %d", m.LogFrom, version)
	}
	seen := make(map[int64]bool, len(m.Tables))
	for _, mt := range m.Tables {
		if mt.Seq < 0 || mt.Seq >= m.NextSeq || mt.Bytes < 0 || mt.Entries < 0 || seen[mt.Seq] {
			return fmt.Errorf("table %+v: out of range under nextSeq %d, or listed twice", mt, m.NextSeq)
		}
		seen[mt.Seq] = true
	}
	return nil
}

// dirListing is one scan of a tree directory, bucketed by file kind.
type dirListing struct {
	manifests []int64 // versions, ascending
	deltas    []int64 // versions, ascending
	tables    []int64 // seqs, ascending
}

// listDir classifies a tree directory's files. Unknown names are ignored
// (tmp files belong to fsx.CleanupTmp).
func listDir(fsys fsx.FS, dir string) (dirListing, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return dirListing{}, fmt.Errorf("lsm: %w", err)
	}
	var l dirListing
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		dot := strings.LastIndexByte(name, '.')
		if dot <= 0 {
			continue
		}
		n, err := strconv.ParseInt(name[:dot], 10, 64)
		if err != nil || n < 0 {
			continue
		}
		switch name[dot+1:] {
		case "manifest":
			l.manifests = append(l.manifests, n)
		case "delta":
			l.deltas = append(l.deltas, n)
		case "sst":
			l.tables = append(l.tables, n)
		}
	}
	sort.Slice(l.manifests, func(i, j int) bool { return l.manifests[i] < l.manifests[j] })
	sort.Slice(l.deltas, func(i, j int) bool { return l.deltas[i] < l.deltas[j] })
	sort.Slice(l.tables, func(i, j int) bool { return l.tables[i] < l.tables[j] })
	return l, nil
}

// latestManifestAtOrBelow picks the recovery anchor for loading a version.
func latestManifestAtOrBelow(l dirListing, version int64) (int64, bool) {
	best, found := int64(0), false
	for _, v := range l.manifests {
		if v <= version && (!found || v > best) {
			best, found = v, true
		}
	}
	return best, found
}

// MaintainDir garbage-collects an LSM state directory without opening a
// tree — the retention path for directories whose query is not running.
// Files needed to reconstruct any version >= keepFrom are kept; removed
// file names are returned.
func MaintainDir(fsys fsx.FS, dir string, keepFrom int64) ([]string, error) {
	return maintainDir(fsys, dir, keepFrom, nil, int64(^uint64(0)>>1))
}

// maintainDir is the GC core: the newest manifest at or below keepFrom
// anchors reachability; older manifests, deltas below every surviving
// manifest's LogFrom (and below minLogFloor), and SSTables referenced by no
// surviving manifest nor pinned by pin are deleted.
func maintainDir(fsys fsx.FS, dir string, keepFrom int64, pin map[int64]bool, minLogFloor int64) ([]string, error) {
	l, err := listDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	anchor, ok := latestManifestAtOrBelow(l, keepFrom)
	if !ok {
		return nil, nil
	}
	keepSeqs := map[int64]bool{}
	for seq := range pin {
		keepSeqs[seq] = true
	}
	minLogFrom := minLogFloor
	for _, mv := range l.manifests {
		if mv < anchor {
			continue
		}
		m, err := readManifest(fsys, dir, mv)
		if err != nil {
			// A damaged manifest pins nothing reliably; stop rather than
			// delete tables it might still reference.
			return nil, err
		}
		for _, mt := range m.Tables {
			keepSeqs[mt.Seq] = true
		}
		if m.LogFrom < minLogFrom {
			minLogFrom = m.LogFrom
		}
	}
	var removed []string
	for _, mv := range l.manifests {
		if mv >= anchor {
			continue
		}
		name := fmt.Sprintf("%d.manifest", mv)
		if err := fsys.Remove(filepath.Join(dir, name)); err == nil {
			removed = append(removed, name)
		}
	}
	for _, dv := range l.deltas {
		if dv >= minLogFrom {
			continue
		}
		name := fmt.Sprintf("%d.delta", dv)
		if err := fsys.Remove(filepath.Join(dir, name)); err == nil {
			removed = append(removed, name)
		}
	}
	for _, seq := range l.tables {
		if keepSeqs[seq] {
			continue
		}
		name := fmt.Sprintf("%d.sst", seq)
		if err := fsys.Remove(filepath.Join(dir, name)); err == nil {
			removed = append(removed, name)
		}
	}
	return removed, nil
}
