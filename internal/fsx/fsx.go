// Package fsx is the durability layer under the write-ahead log, the state
// store, and the file sinks. It provides a small filesystem abstraction with
// two implementations — a hardened real filesystem that fsyncs both the file
// and its parent directory on every atomic write, and a deterministic
// fault-injecting filesystem (FaultFS) that simulates crashes, torn writes,
// transient I/O errors, and silent bit rot — plus a record-framing scheme
// (length + CRC32C footer) so truncation and corruption are *detected*
// rather than misread. The paper's exactly-once guarantee (§6.1) is only as
// strong as this layer: the WAL and state store assume that a renamed file
// is durable and that what they read back is what they wrote.
package fsx

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// FS is the filesystem surface the durability-critical components use.
// Implementations must make WriteFile + Rename usable as an atomic,
// crash-safe file replacement (see WriteAtomic).
type FS interface {
	// WriteFile creates or truncates path with data. Durable
	// implementations fsync before returning. An implementation must not
	// keep data after it returns — one that holds file contents in memory
	// copies them: writers encode the next file over the same buffer (the
	// state store's delta image, the LSM's table image).
	WriteFile(path string, data []byte, perm fs.FileMode) error
	// Rename atomically replaces newpath with oldpath. Durable
	// implementations fsync the parent directory so the rename itself
	// survives a crash.
	Rename(oldpath, newpath string) error
	// ReadFile returns the contents of path.
	ReadFile(path string) ([]byte, error)
	// ReadDir lists dir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// Remove deletes path.
	Remove(path string) error
	// MkdirAll creates dir and parents.
	MkdirAll(path string, perm fs.FileMode) error
	// Stat describes path.
	Stat(path string) (fs.FileInfo, error)
}

// ---------------------------------------------------------------- real FS

type realFS struct {
	sync bool
}

var (
	realSync   FS = realFS{sync: true}
	realNoSync FS = realFS{sync: false}
)

// Real returns the hardened real filesystem: WriteFile fsyncs the file and
// Rename fsyncs the destination's parent directory. This is the default for
// every checkpoint and file sink.
func Real() FS { return realSync }

// NoSync returns the real filesystem without fsync — the pre-hardening
// behaviour. Benchmarks and tests that measure engine cost rather than disk
// cost use it; production checkpoints should not.
func NoSync() FS { return realNoSync }

func (r realFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if r.sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func (r realFS) Rename(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	if r.sync {
		syncDir(filepath.Dir(newpath))
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename survives a power loss.
// Errors are ignored: some filesystems reject fsync on directories, and the
// rename itself already succeeded.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

func (realFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// ReadFileRange preads n bytes at off without reading the whole file — the
// block-granular access path of the LSM state backend's SSTables.
func (realFS) ReadFileRange(path string, off int64, n int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (realFS) ReadDir(dir string) ([]fs.DirEntry, error)    { return os.ReadDir(dir) }
func (realFS) Remove(path string) error                     { return os.Remove(path) }
func (realFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (realFS) Stat(path string) (fs.FileInfo, error)        { return os.Stat(path) }

// ---------------------------------------------------------------- helpers

// TmpSuffix is appended to the temp file of an in-flight atomic write.
// A crash can orphan such files; CleanupTmp reclaims them on reopen.
const TmpSuffix = ".tmp"

// WriteAtomic writes data to path so that readers (even after a crash)
// observe either the old contents or the new contents, never a mixture:
// write to path+".tmp", fsync (durable FS), rename over path, fsync the
// directory.
func WriteAtomic(fsys FS, path string, data []byte, perm fs.FileMode) error {
	tmp := path + TmpSuffix
	if err := fsys.WriteFile(tmp, data, perm); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}

// RangeReader is the optional partial-read extension of FS. Implementations
// serve n bytes at offset off without materializing the rest of the file,
// which is what makes block-cache-granular SSTable reads cheaper than whole
// file loads.
type RangeReader interface {
	ReadFileRange(path string, off int64, n int) ([]byte, error)
}

// ReadRange reads [off, off+n) of path. Filesystems implementing
// RangeReader serve the range directly; anything else falls back to a whole
// file read plus slicing, which stays correct (just not cheap).
func ReadRange(fsys FS, path string, off int64, n int) ([]byte, error) {
	if rr, ok := fsys.(RangeReader); ok {
		return rr.ReadFileRange(path, off, n)
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if off < 0 || off+int64(n) > int64(len(data)) {
		return nil, fmt.Errorf("fsx: range [%d,+%d) outside %s (%d bytes)", off, n, path, len(data))
	}
	return data[off : off+int64(n)], nil
}

// CleanupTmp removes orphaned "*.tmp" files in dir — the debris of atomic
// writes interrupted by a crash. It returns the paths removed. A missing
// directory is not an error.
func CleanupTmp(fsys FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), TmpSuffix) {
			continue
		}
		p := filepath.Join(dir, e.Name())
		if err := fsys.Remove(p); err != nil {
			return removed, err
		}
		removed = append(removed, p)
	}
	return removed, nil
}

// Walk visits every file under root depth-first, calling fn for each
// non-directory entry. A missing root is not an error.
func Walk(fsys FS, root string, fn func(path string, d fs.DirEntry) error) error {
	entries, err := fsys.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		p := filepath.Join(root, e.Name())
		if e.IsDir() {
			if err := Walk(fsys, p, fn); err != nil {
				return err
			}
			continue
		}
		if err := fn(p, e); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------- errors

// ErrCrash marks an operation rejected by a FaultFS that has simulated a
// process crash. It is terminal: nothing should retry it.
var ErrCrash = errors.New("simulated crash")

// ErrTransient marks an injected transient I/O failure; operations wrapping
// it are safe to retry.
var ErrTransient = errors.New("transient I/O error")

// ErrCorrupt marks a record that failed its length/CRC32C frame check.
var ErrCorrupt = errors.New("corrupt record")

// IsTransient reports whether err is worth retrying: an injected transient
// fault or a real-world transient errno (EIO, ENOSPC, EAGAIN, EINTR).
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) ||
		errors.Is(err, syscall.EIO) ||
		errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EINTR)
}

// IsCorrupt reports whether err is a detected corruption (frame mismatch).
func IsCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// ---------------------------------------------------------------- framing

// Records written by the state store are framed with a trailing footer:
//
//	\n#structream.v1 crc32c=XXXXXXXX length=DDDDDDDDDDDD\n
//
// where XXXXXXXX is the CRC32C (Castagnoli) of the body in hex and
// DDDDDDDDDDDD the body length in bytes. The footer is fixed-size, so it
// frames binary payloads as well as text, and it is the *last* thing
// written: a torn or truncated write loses the footer and is detected, and
// any bit flip in the body fails the checksum.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	footerPrefix = "\n#structream.v1 crc32c="
	footerMiddle = " length="
	// FooterSize is the exact byte length of a record footer.
	FooterSize = len(footerPrefix) + 8 + len(footerMiddle) + 12 + 1
)

// Checksum returns the CRC32C (Castagnoli) of data.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Seal appends the length+CRC32C footer to body — in place when body has
// FooterSize of spare capacity, which the encoders of large records leave
// (lsm.EncodeBatch), so a sealed file is not copied once more before it is
// written; the result then shares body's storage.
func Seal(body []byte) []byte {
	const hex = "0123456789abcdef"
	crc, n := Checksum(body), len(body)
	body = append(body, footerPrefix...)
	for shift := 28; shift >= 0; shift -= 4 {
		body = append(body, hex[crc>>shift&0xf])
	}
	body = append(body, footerMiddle...)
	// Twelve digits, zero-padded: what %012d prints for any length a file
	// can have.
	body = append(body, "000000000000\n"...)
	for i := 2; i <= 13; i++ {
		body[len(body)-i] = byte('0' + n%10)
		n /= 10
	}
	return body
}

// Verify checks a sealed record and returns its body. Errors wrap
// ErrCorrupt and name the offending file.
func Verify(path string, data []byte) ([]byte, error) {
	if len(data) < FooterSize {
		return nil, fmt.Errorf("fsx: %w: %s: file too short for its frame footer (%d bytes; truncated write?)", ErrCorrupt, path, len(data))
	}
	footer := string(data[len(data)-FooterSize:])
	if !strings.HasPrefix(footer, footerPrefix) || !strings.HasSuffix(footer, "\n") {
		return nil, fmt.Errorf("fsx: %w: %s: missing frame footer (truncated or foreign file)", ErrCorrupt, path)
	}
	rest := footer[len(footerPrefix):]
	crcHex := rest[:8]
	if !strings.HasPrefix(rest[8:], footerMiddle) {
		return nil, fmt.Errorf("fsx: %w: %s: malformed frame footer", ErrCorrupt, path)
	}
	lenDec := rest[8+len(footerMiddle) : len(rest)-1]
	wantCRC, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return nil, fmt.Errorf("fsx: %w: %s: malformed frame footer crc", ErrCorrupt, path)
	}
	wantLen, err := strconv.ParseInt(lenDec, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("fsx: %w: %s: malformed frame footer length", ErrCorrupt, path)
	}
	body := data[:len(data)-FooterSize]
	if int64(len(body)) != wantLen {
		return nil, fmt.Errorf("fsx: %w: %s: body is %d bytes but footer says %d (truncated or appended)", ErrCorrupt, path, len(body), wantLen)
	}
	if got := Checksum(body); uint32(wantCRC) != got {
		return nil, fmt.Errorf("fsx: %w: %s: crc32c mismatch (stored %08x, computed %08x — bit rot or torn write)", ErrCorrupt, path, uint32(wantCRC), got)
	}
	return body, nil
}
