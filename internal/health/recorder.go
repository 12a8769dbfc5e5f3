package health

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"structream/internal/fsx"
	"structream/internal/trace"
)

// The flight recorder captures a diagnostic bundle the moment the
// detector trips — while the query's epoch ring still holds the anomalous
// epoch and the runtime still exhibits the anomaly. Each bundle is a
// directory; the first three files are three views of one read of the ring,
// so they describe the same epochs:
//
//	<dir>/<query>-<seq>-<unixmicro>/
//	    meta.json       anomaly, detector state, lineage of the window's epochs
//	    progress.jsonl  their QueryProgress events, one JSON per line
//	    trace.jsonl     their span trees, one JSON per line
//	    metrics.json    registry snapshot + full histogram snapshots
//	    goroutines.txt  runtime.Stack of every goroutine
//	    heap.pprof      pprof heap profile
//	    cpu.pprof       pprof CPU profile (CPUProfileDuration window)
//	    MANIFEST.json   written LAST: name/bytes/crc32c of every file,
//	                    itself sealed with the fsx record frame
//
// Every file is buffered in memory and written via fsx.WriteAtomic, so a
// crash mid-capture leaves either no manifest (bundle ignored as
// incomplete) or a complete, verifiable bundle. The ring keeps the newest
// Config.MaxBundles bundles and prunes the rest.

// cpuProfileMu serializes CPU profiling process-wide: the runtime allows
// only one pprof.StartCPUProfile at a time, and several trackers (or a
// test harness) may trip concurrently.
var cpuProfileMu sync.Mutex

// ManifestEntry describes one file of a bundle in its manifest.
type ManifestEntry struct {
	Name   string `json:"name"`
	Bytes  int    `json:"bytes"`
	CRC32C string `json:"crc32c"`
}

// Manifest is the bundle's table of contents, written last.
type Manifest struct {
	ID       string          `json:"id"`
	Query    string          `json:"query"`
	Signal   string          `json:"signal"`
	Epoch    int64           `json:"epoch"`
	AtMicros int64           `json:"atMicros"`
	Files    []ManifestEntry `json:"files"`
}

// BundleInfo summarizes one on-disk bundle for listings.
type BundleInfo struct {
	ID       string `json:"id"`
	Query    string `json:"query"`
	Signal   string `json:"signal"`
	Epoch    int64  `json:"epoch"`
	AtMicros int64  `json:"atMicros"`
	Files    int    `json:"files"`
	Bytes    int64  `json:"bytes"`
}

// bundleEpochs is how many of the ring's newest epochs a bundle exports.
const bundleEpochs = 64

type bundleFile struct {
	name string
	data []byte
}

// capture assembles and writes one bundle, then prunes the ring. It
// returns the new bundle's ID.
func (t *Tracker) capture(a Anomaly) (string, error) {
	if t.cfg.Dir == "" {
		return "", nil // recorder disabled; detector-only mode
	}
	t.captureMu.Lock()
	defer t.captureMu.Unlock()

	t.mu.Lock()
	t.seq++
	seq := t.seq
	t.mu.Unlock()
	id, dir := t.bundleDir(seq, a.AtMicros)

	files := t.collect(a)

	fsys := t.cfg.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("health: bundle dir: %w", err)
	}
	m := Manifest{ID: id, Query: t.cfg.Query, Signal: a.Signal, Epoch: a.Epoch, AtMicros: a.AtMicros}
	for _, f := range files {
		if err := fsx.WriteAtomic(fsys, filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return "", fmt.Errorf("health: bundle %s: %w", f.name, err)
		}
		m.Files = append(m.Files, ManifestEntry{
			Name:   f.name,
			Bytes:  len(f.data),
			CRC32C: fmt.Sprintf("%08x", fsx.Checksum(f.data)),
		})
	}
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	if err := fsx.WriteAtomic(fsys, filepath.Join(dir, "MANIFEST.json"), fsx.Seal(body), 0o644); err != nil {
		return "", fmt.Errorf("health: bundle manifest: %w", err)
	}
	if err := t.prune(); err != nil {
		return id, err
	}
	return id, nil
}

// collect buffers every bundle file in memory. It holds no Tracker locks
// while profiling.
func (t *Tracker) collect(a Anomaly) []bundleFile {
	var files []bundleFile
	add := func(name string, data []byte, err error) {
		if err != nil {
			data = []byte(fmt.Sprintf("capture failed: %v\n", err))
		}
		files = append(files, bundleFile{name: name, data: data})
	}

	// One read of the ring's newest epochs feeds the next three files.
	var stamps []Stamp
	var traces []*trace.EpochTrace
	var progress bytes.Buffer
	enc := json.NewEncoder(&progress)
	for _, r := range t.cfg.Ring.Recent(bundleEpochs, nil) {
		if stamped(&r) {
			stamps = append(stamps, stampOf(r))
		}
		if r.Trace != nil && r.Trace.Finished() {
			traces = append(traces, r.Trace)
		}
		if r.Progress != nil {
			_ = enc.Encode(r.Progress) // an event that does not marshal (a NaN rate) is left out
		}
	}

	// meta.json: the anomaly, detector state, and the window's lineage.
	t.mu.Lock()
	signals := t.det.statuses()
	t.mu.Unlock()
	meta := struct {
		Anomaly Anomaly        `json:"anomaly"`
		Signals []SignalStatus `json:"signals"`
		Stamps  []Stamp        `json:"stamps"`
	}{a, signals, stamps}
	mb, err := json.MarshalIndent(meta, "", "  ")
	add("meta.json", mb, err)
	add("progress.jsonl", progress.Bytes(), nil)
	var tb bytes.Buffer
	err = trace.WriteJSON(&tb, traces)
	add("trace.jsonl", tb.Bytes(), err)

	// metrics.json: scalar snapshot plus full histogram snapshots.
	if t.cfg.Registry != nil {
		payload := map[string]any{
			"scalars":    t.cfg.Registry.Snapshot(),
			"histograms": t.cfg.Registry.Histograms(),
		}
		b, err := json.MarshalIndent(payload, "", "  ")
		add("metrics.json", b, err)
	}

	if !t.cfg.DisableProfiles {
		// goroutines.txt: full stack dump of every goroutine.
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, len(buf)*2)
		}
		add("goroutines.txt", buf, nil)

		// heap.pprof.
		var heap bytes.Buffer
		err := pprof.WriteHeapProfile(&heap)
		add("heap.pprof", heap.Bytes(), err)

		// cpu.pprof: a short profiling window around the anomaly. CPU
		// profiling is process-global, so it is serialized and skipped
		// (with a note) when another capture holds it.
		var cpu bytes.Buffer
		cpuProfileMu.Lock()
		cpuErr := pprof.StartCPUProfile(&cpu)
		if cpuErr == nil {
			time.Sleep(t.cfg.CPUProfileDuration)
			pprof.StopCPUProfile()
		}
		cpuProfileMu.Unlock()
		add("cpu.pprof", cpu.Bytes(), cpuErr)
	}
	return files
}

// prune removes the oldest bundles beyond MaxBundles.
func (t *Tracker) prune() error {
	infos, err := t.Bundles()
	if err != nil {
		return err
	}
	for len(infos) > t.cfg.MaxBundles {
		oldest := infos[0]
		if err := removeBundle(t.cfg.FS, filepath.Join(t.cfg.Dir, oldest.ID)); err != nil {
			return err
		}
		infos = infos[1:]
	}
	return nil
}

// removeBundle deletes every file in a bundle directory, then the
// directory itself. The manifest goes first, so a crash mid-prune leaves
// a bundle that listings already ignore as incomplete.
func removeBundle(fsys fsx.FS, dir string) error {
	if err := fsys.Remove(filepath.Join(dir, "MANIFEST.json")); err != nil && !isNotExist(err) {
		return err
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if isNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil && !isNotExist(err) {
			return err
		}
	}
	return fsys.Remove(dir)
}

// isNotExist covers wrapped fs.ErrNotExist / ENOENT from both the real
// and fault filesystems.
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// Bundles lists the complete bundles in the ring, oldest first. Bundles
// without a readable, CRC-clean manifest are ignored (in-flight captures
// or crash debris).
func (t *Tracker) Bundles() ([]BundleInfo, error) {
	if t.cfg.Dir == "" {
		return nil, nil
	}
	return ListBundles(t.cfg.FS, t.cfg.Dir)
}

// Bundle verifies one bundle in the ring end to end and returns its
// manifest — the HTTP surface's lookup-by-ID path.
func (t *Tracker) Bundle(id string) (Manifest, error) {
	if t.cfg.Dir == "" {
		return Manifest{}, fs.ErrNotExist
	}
	if err := checkBundleID(id); err != nil {
		return Manifest{}, err
	}
	return VerifyBundle(t.cfg.FS, filepath.Join(t.cfg.Dir, id))
}

// BundleFile returns one verified file from a bundle in the ring.
func (t *Tracker) BundleFile(id, name string) ([]byte, error) {
	if t.cfg.Dir == "" {
		return nil, fs.ErrNotExist
	}
	if err := checkBundleID(id); err != nil {
		return nil, err
	}
	if name != filepath.Base(name) || name == ".." || name == "." {
		return nil, fmt.Errorf("health: invalid bundle file name %q", name)
	}
	return ReadBundleFile(t.cfg.FS, filepath.Join(t.cfg.Dir, id), name)
}

// checkBundleID rejects IDs that would escape the ring directory.
func checkBundleID(id string) error {
	if id == "" || id != filepath.Base(id) || id == ".." || id == "." {
		return fmt.Errorf("health: invalid bundle id %q", id)
	}
	return nil
}

// ListBundles scans dir for complete bundles, oldest first.
func ListBundles(fsys fsx.FS, dir string) ([]BundleInfo, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if isNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []BundleInfo
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		m, err := readManifest(fsys, filepath.Join(dir, e.Name()))
		if err != nil {
			continue // incomplete or corrupt: not part of the ring
		}
		info := BundleInfo{
			ID:       m.ID,
			Query:    m.Query,
			Signal:   m.Signal,
			Epoch:    m.Epoch,
			AtMicros: m.AtMicros,
			Files:    len(m.Files),
		}
		for _, f := range m.Files {
			info.Bytes += int64(f.Bytes)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return bundleSeq(out[i].ID) < bundleSeq(out[j].ID) })
	return out, nil
}

// bundleSeq extracts the monotone sequence number from a bundle ID
// (<query>-<seq>-<unixmicro>); ties and malformed IDs order by the ID
// string itself via the stable sort above.
func bundleSeq(id string) int64 {
	parts := strings.Split(id, "-")
	if len(parts) < 3 {
		return 0
	}
	seq, err := strconv.ParseInt(parts[len(parts)-2], 10, 64)
	if err != nil {
		return 0
	}
	at, err := strconv.ParseInt(parts[len(parts)-1], 10, 64)
	if err != nil {
		return seq << 20
	}
	return seq<<44 | (at & (1<<44 - 1))
}

func readManifest(fsys fsx.FS, dir string) (Manifest, error) {
	raw, err := fsys.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		return Manifest{}, err
	}
	body, err := fsx.Verify(filepath.Join(dir, "MANIFEST.json"), raw)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// VerifyBundle checks a bundle end to end: the manifest's own frame CRC,
// then every listed file's length and CRC32C. It returns the manifest on
// success.
func VerifyBundle(fsys fsx.FS, dir string) (Manifest, error) {
	m, err := readManifest(fsys, dir)
	if err != nil {
		return m, err
	}
	for _, f := range m.Files {
		data, err := fsys.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			return m, fmt.Errorf("health: bundle file %s: %w", f.Name, err)
		}
		if len(data) != f.Bytes {
			return m, fmt.Errorf("health: %w: %s is %d bytes, manifest says %d",
				fsx.ErrCorrupt, f.Name, len(data), f.Bytes)
		}
		if got := fmt.Sprintf("%08x", fsx.Checksum(data)); got != f.CRC32C {
			return m, fmt.Errorf("health: %w: %s crc32c %s, manifest says %s",
				fsx.ErrCorrupt, f.Name, got, f.CRC32C)
		}
	}
	return m, nil
}

// ReadBundleFile returns one file from a bundle after verifying it
// against the manifest.
func ReadBundleFile(fsys fsx.FS, dir, name string) ([]byte, error) {
	m, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	for _, f := range m.Files {
		if f.Name != name {
			continue
		}
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if len(data) != f.Bytes || fmt.Sprintf("%08x", fsx.Checksum(data)) != f.CRC32C {
			return nil, fmt.Errorf("health: %w: %s fails its manifest checksum", fsx.ErrCorrupt, name)
		}
		return data, nil
	}
	return nil, fmt.Errorf("health: bundle has no file %q", name)
}
