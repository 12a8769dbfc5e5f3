package fsx

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

func TestWriteAtomicRoundTrip(t *testing.T) {
	for _, fsys := range []FS{Real(), NoSync()} {
		dir := t.TempDir()
		path := filepath.Join(dir, "rec")
		if err := WriteAtomic(fsys, path, []byte("hello"), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := fsys.ReadFile(path)
		if err != nil || string(got) != "hello" {
			t.Fatalf("got %q err=%v", got, err)
		}
		// No temp debris after a completed write.
		if _, err := fsys.Stat(path + TmpSuffix); !os.IsNotExist(err) {
			t.Errorf("tmp file left behind: %v", err)
		}
		// Overwrite is atomic too.
		if err := WriteAtomic(fsys, path, []byte("v2"), 0o644); err != nil {
			t.Fatal(err)
		}
		got, _ = fsys.ReadFile(path)
		if string(got) != "v2" {
			t.Errorf("overwrite = %q", got)
		}
	}
}

func TestSealVerifyRoundTrip(t *testing.T) {
	for _, body := range [][]byte{nil, []byte("x"), []byte("hello\nworld"), {0, 1, 2, 0xff, '\n', 0}} {
		sealed := Seal(append([]byte(nil), body...))
		got, err := Verify("f", sealed)
		if err != nil {
			t.Fatalf("verify(%q): %v", body, err)
		}
		if string(got) != string(body) {
			t.Errorf("body = %q, want %q", got, body)
		}
	}
}

// TestSealFooterFormat pins the footer's bytes — Seal formats them by hand —
// against the format string readers and older writers share, and that a body
// with FooterSize to spare is sealed where it lies.
func TestSealFooterFormat(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 4095, 123456} {
		body := make([]byte, n, n+FooterSize)
		for i := range body {
			body[i] = byte(i * 31)
		}
		want := string(body) + fmt.Sprintf("\n#structream.v1 crc32c=%08x length=%012d\n", Checksum(body), n)
		sealed := Seal(body)
		if string(sealed) != want {
			t.Fatalf("Seal of %d bytes ends %q, want %q", n, sealed[n:], want[n:])
		}
		if len(sealed) != n+FooterSize || &sealed[0] != &body[:1][0] {
			t.Fatalf("Seal of %d bytes with room for the footer moved the body or wrote %d footer bytes", n, len(sealed)-n)
		}
	}
}

// TestWriteFileDoesNotRetain: writers encode the next file over the buffer
// they handed to WriteFile, so what a filesystem wrote must not change with
// it.
func TestWriteFileDoesNotRetain(t *testing.T) {
	for name, fsys := range map[string]FS{"real": Real(), "nosync": NoSync(), "fault": NewFaultFS(NoSync())} {
		path := filepath.Join(t.TempDir(), "f")
		buf := []byte("first contents")
		if err := fsys.WriteFile(path, buf, 0o644); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		copy(buf, "XXXXXXXXXXXXXX")
		if got, err := fsys.ReadFile(path); err != nil || string(got) != "first contents" {
			t.Fatalf("%s: the file reads %q, %v after its writer reused the buffer", name, got, err)
		}
	}
}

func TestVerifyDetectsTruncation(t *testing.T) {
	sealed := Seal([]byte("some record body"))
	for cut := 1; cut < len(sealed); cut += 7 {
		if _, err := Verify("trunc", sealed[:len(sealed)-cut]); !IsCorrupt(err) {
			t.Errorf("truncation by %d not detected: %v", cut, err)
		}
	}
	if _, err := Verify("empty", nil); !IsCorrupt(err) {
		t.Errorf("empty file not detected: %v", err)
	}
}

func TestVerifyDetectsBitFlips(t *testing.T) {
	sealed := Seal([]byte("the quick brown fox"))
	for i := 0; i < len(sealed); i++ {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 0x04
		if _, err := Verify("flip", mut); err == nil {
			t.Errorf("bit flip at byte %d not detected", i)
		}
	}
}

func TestVerifyNamesFile(t *testing.T) {
	_, err := Verify("/ckpt/state/agg/0/7.delta", []byte("garbage"))
	if err == nil || !strings.Contains(err.Error(), "7.delta") {
		t.Errorf("error should name the file: %v", err)
	}
}

func TestCleanupTmp(t *testing.T) {
	dir := t.TempDir()
	fsys := Real()
	os.WriteFile(filepath.Join(dir, "live.json"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, "orphan.json.tmp"), []byte("partial"), 0o644)
	os.WriteFile(filepath.Join(dir, "another.tmp"), nil, 0o644)
	removed, err := CleanupTmp(fsys, dir)
	if err != nil || len(removed) != 2 {
		t.Fatalf("removed=%v err=%v", removed, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "live.json")); err != nil {
		t.Error("live file removed")
	}
	// Missing directory is fine.
	if _, err := CleanupTmp(fsys, filepath.Join(dir, "nope")); err != nil {
		t.Errorf("missing dir: %v", err)
	}
}

func TestFaultFSCrashBefore(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(NoSync())
	f.CrashAt, f.Mode = 2, CrashBefore
	if err := f.WriteFile(filepath.Join(dir, "a"), []byte("1"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := f.WriteFile(filepath.Join(dir, "b"), []byte("2"), 0o644)
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("err = %v", err)
	}
	if _, serr := os.Stat(filepath.Join(dir, "b")); !os.IsNotExist(serr) {
		t.Error("crash-before must not create the file")
	}
	// Everything after the crash fails, reads included.
	if _, err := f.ReadFile(filepath.Join(dir, "a")); !errors.Is(err, ErrCrash) {
		t.Errorf("post-crash read = %v", err)
	}
	if !f.Crashed() {
		t.Error("Crashed() = false")
	}
}

func TestFaultFSCrashTornWrite(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(NoSync())
	f.CrashAt, f.Mode = 1, CrashTorn
	payload := []byte("0123456789abcdef")
	err := f.WriteFile(filepath.Join(dir, "torn"), payload, 0o644)
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("err = %v", err)
	}
	got, rerr := os.ReadFile(filepath.Join(dir, "torn"))
	if rerr != nil || len(got) != len(payload)/2 {
		t.Errorf("torn file = %q err=%v, want half of %q", got, rerr, payload)
	}
}

func TestFaultFSCrashAfter(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(NoSync())
	f.CrashAt, f.Mode = 1, CrashAfter
	err := f.WriteFile(filepath.Join(dir, "done"), []byte("x"), 0o644)
	if !errors.Is(err, ErrCrash) {
		t.Fatalf("err = %v", err)
	}
	// The operation itself was durable; only the acknowledgement was lost.
	if got, rerr := os.ReadFile(filepath.Join(dir, "done")); rerr != nil || string(got) != "x" {
		t.Errorf("crash-after file = %q err=%v", got, rerr)
	}
}

func TestFaultFSTransientConsumedOnce(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(NoSync())
	f.FailAt[1] = Transient("EIO")
	path := filepath.Join(dir, "f")
	err := f.WriteFile(path, []byte("x"), 0o644)
	if !IsTransient(err) {
		t.Fatalf("err = %v", err)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Error("failed op must not create the file")
	}
	// The retry (op 2) succeeds.
	if err := f.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatalf("retry: %v", err)
	}
}

func TestFaultFSBitFlip(t *testing.T) {
	dir := t.TempDir()
	f := NewFaultFS(NoSync())
	f.FlipBitAt = 1
	sealed := Seal([]byte("important state"))
	path := filepath.Join(dir, "rec")
	if err := f.WriteFile(path, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if _, err := Verify(path, data); !IsCorrupt(err) {
		t.Errorf("flipped record passed verification: %v", err)
	}
}

func TestFaultFSDeterministicTrace(t *testing.T) {
	run := func() []Op {
		dir := t.TempDir()
		f := NewFaultFS(NoSync())
		WriteAtomic(f, filepath.Join(dir, "a"), []byte("1"), 0o644)
		WriteAtomic(f, filepath.Join(dir, "b"), []byte("2"), 0o644)
		f.Remove(filepath.Join(dir, "a"))
		tr := f.Trace()
		// Strip the differing temp-dir prefix for comparison.
		for i := range tr {
			tr[i].Path = filepath.Base(tr[i].Path)
		}
		return tr
	}
	t1, t2 := run(), run()
	if !reflect.DeepEqual(t1, t2) {
		t.Errorf("traces differ:\n%v\n%v", t1, t2)
	}
	want := []Op{
		{1, OpWrite, "a.tmp"}, {2, OpRename, "a"},
		{3, OpWrite, "b.tmp"}, {4, OpRename, "b"},
		{5, OpRemove, "a"},
	}
	if !reflect.DeepEqual(t1, want) {
		t.Errorf("trace = %v, want %v", t1, want)
	}
}

func TestIsTransientClassification(t *testing.T) {
	if !IsTransient(Transient("ENOSPC")) || !IsTransient(syscall.EIO) || !IsTransient(syscall.ENOSPC) {
		t.Error("transient errors misclassified")
	}
	if IsTransient(ErrCrash) || IsTransient(ErrCorrupt) || IsTransient(errors.New("boom")) {
		t.Error("non-transient errors misclassified as transient")
	}
}
