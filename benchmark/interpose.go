package main

import (
	"io/fs"
	"strings"
	"sync"
	"sync/atomic"

	"structream/internal/fsx"
	"structream/internal/sinks"
	"structream/internal/sources"
	"structream/internal/sql"
	"structream/internal/sql/vec"
)

// Interposers wrap what the harness hands to engine.Start on a traced run.
// Each forwards to the real value and records a span around the call. The
// untraced run never sees them.

// ---------------------------------------------------------------- source

// tracedSource forwards every optional read extension the inner source has,
// so the engine takes the same path it takes untraced.
type tracedSource struct {
	inner sources.Source
	rec   *recorder

	readRows atomic.Int64
	backlog  struct {
		sync.Mutex
		samples []float64
	}
}

func (s *tracedSource) Name() string       { return s.inner.Name() }
func (s *tracedSource) Schema() sql.Schema { return s.inner.Schema() }
func (s *tracedSource) Partitions() int    { return s.inner.Partitions() }

// Latest is the engine's planning call: the backlog it sees is the head
// minus what has been read so far.
func (s *tracedSource) Latest() (sources.Offsets, error) {
	st := s.rec.now()
	o, err := s.inner.Latest()
	s.rec.call("sources.latest", st, s.rec.now(), 0, 0)
	if err == nil {
		s.backlog.Lock()
		s.backlog.samples = append(s.backlog.samples, float64(o.Total()-s.readRows.Load()))
		s.backlog.Unlock()
	}
	return o, err
}

func (s *tracedSource) Earliest() (sources.Offsets, error) { return s.inner.Earliest() }

func (s *tracedSource) Read(p int, from, to int64) ([]sql.Row, error) {
	st := s.rec.now()
	rows, err := s.inner.Read(p, from, to)
	s.rec.call("sources.read", st, s.rec.now(), int64(len(rows)), 0)
	s.readRows.Add(int64(len(rows)))
	return rows, err
}

func (s *tracedSource) ReadVec(p int, from, to int64) (*vec.Batch, bool, error) {
	vr, ok := s.inner.(sources.VectorReader)
	if !ok {
		return nil, false, nil
	}
	st := s.rec.now()
	b, ok, err := vr.ReadVec(p, from, to)
	var n int64
	if ok && err == nil {
		n = int64(b.Len)
	}
	s.rec.call("sources.read", st, s.rec.now(), n, 0)
	s.readRows.Add(n)
	return b, ok, err
}

func (s *tracedSource) ReadPartition(p int, from, to int64, n, of int) (*vec.Batch, bool, error) {
	pr, ok := s.inner.(sources.PartitionReader)
	if !ok {
		return nil, false, nil
	}
	st := s.rec.now()
	b, ok, err := pr.ReadPartition(p, from, to, n, of)
	var rows int64
	if ok && err == nil {
		rows = int64(b.Len)
	}
	s.rec.call("sources.read", st, s.rec.now(), rows, 0)
	s.readRows.Add(rows)
	return b, ok, err
}

func (s *tracedSource) backlogP95() float64 {
	s.backlog.Lock()
	defer s.backlog.Unlock()
	return percentile(s.backlog.samples, 0.95)
}

// ---------------------------------------------------------------- sink

// tracedSink wraps a ColumnSink (the memory sink is one), so the engine
// keeps its columnar delivery path.
type tracedSink struct {
	inner sinks.ColumnSink
	rec   *recorder
}

func (s *tracedSink) AddBatch(b sinks.Batch) error {
	st := s.rec.now()
	err := s.inner.AddBatch(b)
	s.rec.call("sinks.add", st, s.rec.now(), int64(len(b.Rows)), 0)
	return err
}

func (s *tracedSink) AddColumnBatch(b sinks.Batch) error {
	var n int64
	for _, vb := range b.Vecs {
		n += int64(vb.NumLive())
	}
	st := s.rec.now()
	err := s.inner.AddColumnBatch(b)
	s.rec.call("sinks.add_column", st, s.rec.now(), n, 0)
	return err
}

// ---------------------------------------------------------------- fs

// tracedFS classifies every checkpoint file operation by path:
// offsets/, commits/, segments/ are the write-ahead log; under state/ a
// *.sst is the LSM's, a *.delta is the state store's commit log, and the
// rest (manifests, snapshots) is state bookkeeping.
type tracedFS struct {
	inner fsx.FS
	rec   *recorder

	// SSTable block reads are far too frequent for a span each: adjacent
	// reads (gap under sstCoalesceNs) merge into one "lsm.sst.read" span
	// whose Rows is the number of reads merged.
	sst struct {
		sync.Mutex
		open                  bool
		start, end, n, nbytes int64
	}
}

const sstCoalesceNs = 20_000

func classify(path string) string {
	p := strings.ReplaceAll(path, "\\", "/")
	switch {
	case strings.Contains(p, "/offsets/") || strings.HasSuffix(p, "/offsets"):
		return "wal.offsets"
	case strings.Contains(p, "/commits/") || strings.HasSuffix(p, "/commits"):
		return "wal.commits"
	case strings.Contains(p, "/segments/") || strings.HasSuffix(p, "/segments"):
		return "wal.segments"
	case strings.Contains(p, "/state/") || strings.HasSuffix(p, "/state"):
		base := strings.TrimSuffix(p, fsx.TmpSuffix)
		switch {
		case strings.HasSuffix(base, ".sst"):
			return "lsm.sst"
		case strings.HasSuffix(base, ".delta"):
			return "state.delta"
		default:
			return "state.meta"
		}
	default:
		return "fs.other"
	}
}

func (f *tracedFS) span(class, op string, st int64, bytes int64) {
	f.rec.call(class+"."+op, st, f.rec.now(), 0, bytes)
}

func (f *tracedFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	st := f.rec.now()
	err := f.inner.WriteFile(path, data, perm)
	f.span(classify(path), "write", st, int64(len(data)))
	return err
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	st := f.rec.now()
	err := f.inner.Rename(oldpath, newpath)
	f.span(classify(newpath), "rename", st, 0)
	return err
}

func (f *tracedFS) ReadFile(path string) ([]byte, error) {
	st := f.rec.now()
	data, err := f.inner.ReadFile(path)
	f.span(classify(path), "read", st, int64(len(data)))
	return data, err
}

func (f *tracedFS) ReadFileRange(path string, off int64, n int) ([]byte, error) {
	st := f.rec.now()
	data, err := fsx.ReadRange(f.inner, path, off, n)
	end := f.rec.now()
	class := classify(path)
	if class != "lsm.sst" {
		f.rec.call(class+".read", st, end, 0, int64(len(data)))
		return data, err
	}
	s := &f.sst
	s.Lock()
	if s.open && st-s.end > sstCoalesceNs {
		f.rec.call("lsm.sst.read", s.start, s.end, s.n, s.nbytes)
		s.open = false
	}
	if !s.open {
		s.open, s.start, s.end, s.n, s.nbytes = true, st, end, 0, 0
	}
	if end > s.end {
		s.end = end
	}
	s.n++
	s.nbytes += int64(len(data))
	s.Unlock()
	return data, err
}

// flush emits the open coalesced SSTable-read span, if any.
func (f *tracedFS) flush() {
	s := &f.sst
	s.Lock()
	if s.open {
		f.rec.call("lsm.sst.read", s.start, s.end, s.n, s.nbytes)
		s.open = false
	}
	s.Unlock()
}

func (f *tracedFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	st := f.rec.now()
	es, err := f.inner.ReadDir(dir)
	f.span(classify(dir), "readdir", st, 0)
	return es, err
}

func (f *tracedFS) Remove(path string) error {
	st := f.rec.now()
	err := f.inner.Remove(path)
	f.span(classify(path), "remove", st, 0)
	return err
}

func (f *tracedFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f *tracedFS) Stat(path string) (fs.FileInfo, error) {
	st := f.rec.now()
	fi, err := f.inner.Stat(path)
	f.span(classify(path), "stat", st, 0)
	return fi, err
}
