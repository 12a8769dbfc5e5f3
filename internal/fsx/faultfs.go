package fsx

import (
	"fmt"
	"io/fs"
	"sync"
)

// OpKind labels a counted (mutating) filesystem operation.
type OpKind string

// Counted operation kinds.
const (
	OpWrite  OpKind = "write"
	OpRename OpKind = "rename"
	OpRemove OpKind = "remove"
)

// Op is one entry of a FaultFS trace: the n-th mutating operation, what it
// was, and the path it touched.
type Op struct {
	N    int64
	Kind OpKind
	Path string
}

// CrashMode selects where in an operation a scheduled crash strikes.
type CrashMode int

const (
	// CrashBefore fails the operation before it has any effect — the
	// process died just before the syscall.
	CrashBefore CrashMode = iota
	// CrashTorn applies to writes: half of the payload reaches the disk,
	// then the process dies. Non-write operations degrade to CrashBefore.
	CrashTorn
	// CrashAfter performs the operation durably, then the process dies —
	// the caller never learns the operation succeeded.
	CrashAfter
)

// FaultFS wraps an FS with deterministic fault injection keyed by a
// mutating-operation counter (WriteFile, Rename, Remove each count as one
// operation, in execution order). Because the counter — not wall time or
// randomness — keys every fault, a failing schedule is exactly
// reproducible: re-running the same workload against the same schedule
// crashes at the same step.
//
// After a scheduled crash fires, every subsequent operation (reads
// included) fails with ErrCrash, modelling a dead process. Build a fresh
// FaultFS to model the restart.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	n       int64
	crashed bool
	trace   []Op

	// CrashAt schedules a simulated crash at the CrashAt-th mutating
	// operation (1-based; 0 disables).
	CrashAt int64
	// CrashWhen, when set, latches CrashAt to the first counted operation
	// the predicate matches. It exists for concurrent workloads (two reduce
	// tasks committing at once), where operation numbers shift between runs
	// but the shape of the target operation — "the first state-delta write",
	// "the commit marker's rename" — does not. Once latched, the crash follows
	// the ordinary CrashAt/Mode path, so traces still pinpoint the op.
	CrashWhen func(kind OpKind, path string) bool
	// Mode selects where in the operation the crash strikes.
	Mode CrashMode
	// FailAt injects a one-shot error instead of performing the n-th
	// operation; the entry is consumed, so a retry of the same logical
	// write succeeds. Use Transient(...) values to model EIO/ENOSPC.
	FailAt map[int64]error
	// FlipBitAt corrupts the n-th operation's payload (writes only) by
	// flipping one bit before it reaches the disk — silent bit rot.
	FlipBitAt int64
}

// NewFaultFS wraps inner with an empty fault schedule.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{inner: inner, FailAt: map[int64]error{}}
}

// Transient returns an injectable error that IsTransient recognizes.
func Transient(msg string) error {
	return fmt.Errorf("fsx: injected %s: %w", msg, ErrTransient)
}

// Ops returns how many mutating operations have been counted.
func (f *FaultFS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Crashed reports whether the scheduled crash has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Trace returns the counted operations so far (copy).
func (f *FaultFS) Trace() []Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Op(nil), f.trace...)
}

func (f *FaultFS) crashErr(kind OpKind, path string) error {
	return fmt.Errorf("fsx: %w (op %d: %s %s)", ErrCrash, f.n, kind, path)
}

// begin counts one mutating operation and applies pre-operation faults.
// Caller holds f.mu. The second return is non-nil when the operation must
// fail without running.
func (f *FaultFS) begin(kind OpKind, path string) (int64, error) {
	if f.crashed {
		return 0, f.crashErr(kind, path)
	}
	f.n++
	n := f.n
	f.trace = append(f.trace, Op{N: n, Kind: kind, Path: path})
	if f.CrashWhen != nil && f.CrashAt == 0 && f.CrashWhen(kind, path) {
		f.CrashAt = n
	}
	if err, ok := f.FailAt[n]; ok {
		delete(f.FailAt, n)
		return n, fmt.Errorf("%w (op %d: %s %s)", err, n, kind, path)
	}
	if n == f.CrashAt && (f.Mode == CrashBefore || (f.Mode == CrashTorn && kind != OpWrite)) {
		f.crashed = true
		return n, f.crashErr(kind, path)
	}
	return n, nil
}

// WriteFile implements FS with write-targeted faults: torn writes persist
// half the payload, bit flips corrupt it silently.
func (f *FaultFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.begin(OpWrite, path)
	if err != nil {
		return err
	}
	if n == f.FlipBitAt && len(data) > 0 {
		data = append([]byte(nil), data...)
		data[len(data)/3] ^= 0x10
	}
	if n == f.CrashAt && f.Mode == CrashTorn {
		f.crashed = true
		f.inner.WriteFile(path, data[:len(data)/2], perm)
		return f.crashErr(OpWrite, path)
	}
	err = f.inner.WriteFile(path, data, perm)
	if n == f.CrashAt && f.Mode == CrashAfter {
		f.crashed = true
		return f.crashErr(OpWrite, path)
	}
	return err
}

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.begin(OpRename, newpath)
	if err != nil {
		return err
	}
	err = f.inner.Rename(oldpath, newpath)
	if n == f.CrashAt && f.Mode == CrashAfter {
		f.crashed = true
		return f.crashErr(OpRename, newpath)
	}
	return err
}

// Remove implements FS.
func (f *FaultFS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.begin(OpRemove, path)
	if err != nil {
		return err
	}
	err = f.inner.Remove(path)
	if n == f.CrashAt && f.Mode == CrashAfter {
		f.crashed = true
		return f.crashErr(OpRemove, path)
	}
	return err
}

// checkAlive gates read-side operations on the simulated process still
// being alive.
func (f *FaultFS) checkAlive(kind OpKind, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return f.crashErr(kind, path)
	}
	return nil
}

// ReadFile implements FS.
func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if err := f.checkAlive("read", path); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

// ReadFileRange implements RangeReader: reads die with the simulated
// process like every other post-crash operation.
func (f *FaultFS) ReadFileRange(path string, off int64, n int) ([]byte, error) {
	if err := f.checkAlive("read", path); err != nil {
		return nil, err
	}
	return ReadRange(f.inner, path, off, n)
}

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	if err := f.checkAlive("readdir", dir); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

// MkdirAll implements FS. Directory creation is idempotent setup, not a
// counted mutation; it still dies with the process.
func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.checkAlive("mkdir", path); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

// Stat implements FS.
func (f *FaultFS) Stat(path string) (fs.FileInfo, error) {
	if err := f.checkAlive("stat", path); err != nil {
		return nil, err
	}
	return f.inner.Stat(path)
}
