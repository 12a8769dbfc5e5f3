package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// memFS is an in-memory fsx.FS: what every checkpoint of a benchmark run is
// written to. A file create on the sandbox's disk costs between 15 µs and
// 400 µs depending on how long the CPU idled before it and on how new the
// directory is, and it drifts over a run; on live-serve, whose epochs are two
// small file writes plus a fraction of a millisecond of engine work, that
// drift was most of the latency's run-to-run spread. Nothing is synced either
// way (fsync time in a sandbox is not a device measurement), so WAL and state
// write cost is reported as counts and bytes by the traced run, not as time.
//
// Semantics follow the real filesystem where the engine relies on them:
// WriteFile needs its parent directory, Rename replaces its target
// atomically, a missing path is fs.ErrNotExist, ReadDir is sorted by name.
type memFS struct {
	mu    sync.RWMutex
	files map[string][]byte
	dirs  map[string]map[string]bool // directory → names of its children
}

func newMemFS() *memFS {
	return &memFS{files: map[string][]byte{}, dirs: map[string]map[string]bool{".": {}, "/": {}}}
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) WriteFile(path string, data []byte, _ fs.FileMode) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	children, ok := m.dirs[filepath.Dir(path)]
	if !ok {
		return notExist("open", path)
	}
	if _, isDir := m.dirs[path]; isDir {
		return &fs.PathError{Op: "open", Path: path, Err: fmt.Errorf("is a directory")}
	}
	m.files[path] = append([]byte(nil), data...)
	children[filepath.Base(path)] = true
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	children, ok := m.dirs[filepath.Dir(newpath)]
	if !ok {
		return notExist("rename", newpath)
	}
	delete(m.files, oldpath)
	delete(m.dirs[filepath.Dir(oldpath)], filepath.Base(oldpath))
	m.files[newpath] = data
	children[filepath.Base(newpath)] = true
	return nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	path = filepath.Clean(path)
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[path]
	if !ok {
		return nil, notExist("open", path)
	}
	return append([]byte(nil), data...), nil
}

// ReadFileRange is the block-granular read the LSM's SSTables use.
func (m *memFS) ReadFileRange(path string, off int64, n int) ([]byte, error) {
	path = filepath.Clean(path)
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[path]
	if !ok {
		return nil, notExist("open", path)
	}
	if off < 0 || off+int64(n) > int64(len(data)) {
		return nil, &fs.PathError{Op: "read", Path: path, Err: fmt.Errorf("range [%d, %d) outside a file of %d bytes", off, off+int64(n), len(data))}
	}
	return append([]byte(nil), data[off:off+int64(n)]...), nil
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	dir = filepath.Clean(dir)
	m.mu.RLock()
	defer m.mu.RUnlock()
	children, ok := m.dirs[dir]
	if !ok {
		return nil, notExist("open", dir)
	}
	entries := make([]fs.DirEntry, 0, len(children))
	for name := range children {
		entries = append(entries, m.infoLocked(filepath.Join(dir, name)))
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	return entries, nil
}

func (m *memFS) Remove(path string) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	if children, isDir := m.dirs[path]; isDir {
		if len(children) > 0 {
			return &fs.PathError{Op: "remove", Path: path, Err: fmt.Errorf("directory not empty")}
		}
		delete(m.dirs, path)
	} else if _, ok := m.files[path]; ok {
		delete(m.files, path)
	} else {
		return notExist("remove", path)
	}
	delete(m.dirs[filepath.Dir(path)], filepath.Base(path))
	return nil
}

func (m *memFS) MkdirAll(path string, _ fs.FileMode) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	defer m.mu.Unlock()
	var missing []string // path and its ancestors that do not exist yet, deepest first
	for p := path; ; p = filepath.Dir(p) {
		if _, isFile := m.files[p]; isFile {
			return &fs.PathError{Op: "mkdir", Path: p, Err: fmt.Errorf("not a directory")}
		}
		if _, ok := m.dirs[p]; ok {
			break
		}
		missing = append(missing, p)
	}
	for i := len(missing) - 1; i >= 0; i-- {
		p := missing[i]
		m.dirs[p] = map[string]bool{}
		m.dirs[filepath.Dir(p)][filepath.Base(p)] = true
	}
	return nil
}

func (m *memFS) Stat(path string) (fs.FileInfo, error) {
	path = filepath.Clean(path)
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, isDir := m.dirs[path]
	_, isFile := m.files[path]
	if !isDir && !isFile {
		return nil, notExist("stat", path)
	}
	return m.infoLocked(path), nil
}

// removeAll drops path and everything under it (a finished checkpoint).
func (m *memFS) removeAll(path string) {
	path = filepath.Clean(path)
	prefix := path + string(filepath.Separator)
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := range m.files {
		if p == path || strings.HasPrefix(p, prefix) {
			delete(m.files, p)
		}
	}
	for p := range m.dirs {
		if p == path || strings.HasPrefix(p, prefix) {
			delete(m.dirs, p)
		}
	}
	delete(m.dirs[filepath.Dir(path)], filepath.Base(path))
}

// treeBytes sums the sizes of the files under root.
func (m *memFS) treeBytes(root string) int64 {
	prefix := filepath.Clean(root) + string(filepath.Separator)
	m.mu.RLock()
	defer m.mu.RUnlock()
	var total int64
	for p, data := range m.files {
		if strings.HasPrefix(p, prefix) {
			total += int64(len(data))
		}
	}
	return total
}

func (m *memFS) infoLocked(path string) memInfo {
	if _, isDir := m.dirs[path]; isDir {
		return memInfo{name: filepath.Base(path), dir: true}
	}
	return memInfo{name: filepath.Base(path), size: int64(len(m.files[path]))}
}

// memInfo is both the fs.FileInfo and the fs.DirEntry of a memFS path.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string               { return i.name }
func (i memInfo) Size() int64                { return i.size }
func (i memInfo) IsDir() bool                { return i.dir }
func (i memInfo) ModTime() time.Time         { return time.Time{} }
func (i memInfo) Sys() any                   { return nil }
func (i memInfo) Info() (fs.FileInfo, error) { return i, nil }
func (i memInfo) Type() fs.FileMode          { return i.Mode().Type() }
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
