package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"structream/internal/fsx"
)

// sealThree commits three sorted batches of n keys each into tr's active
// memtable and seals it.
func sealThree(t *testing.T, tr *Tree, n int) *sealedMem {
	t.Helper()
	for v := 1; v <= 3; v++ {
		puts := make(map[string][]byte, n)
		for i := 0; i < n; i++ {
			puts[fmt.Sprintf("eL\x05key-%d-%06d", v, i)] = bytes.Repeat([]byte{byte(v)}, 40)
		}
		commit(t, tr, tr.Stats().Version+1, puts)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.sealLocked()
	return tr.sealed[len(tr.sealed)-1]
}

// TestFlushDoesNoPerEntryWork counts what a flush does per entry beyond
// reading a slot and writing the image, and finds nothing: no lookup in the
// memtable's index (each entry comes out of the slot its run names), and a
// number of allocations that depends on the memtable's runs, not on its
// entries or the table's blocks — the image, the hash vector and the index
// are the tree's builder's, kept from the flush before.
func TestFlushDoesNoPerEntryWork(t *testing.T) {
	tr := mustOpen(t, Options{FS: fsx.NoSync(), Dir: t.TempDir(), MemtableBytes: 1 << 30})
	const perCommit = 1000
	sm := sealThree(t, tr, perCommit)
	if sm.mem.len() != 3*perCommit {
		t.Fatalf("the sealed memtable holds %d entries, want %d", sm.mem.len(), 3*perCommit)
	}
	probes := sm.mem.probes
	img := tr.buildFlush(sm.mem) // also sizes the builder: later flushes fit
	if got := sm.mem.probes - probes; got != 0 {
		t.Fatalf("flushing %d entries looked %d keys up in the memtable's index", sm.mem.len(), got)
	}
	tbl, err := openTable(imageFS{image: img}, "flush.sst", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.entries != 3*perCommit || len(tbl.index) < 30 {
		t.Fatalf("the flushed table has %d entries in %d blocks; want %d entries in at least 30", tbl.entries, len(tbl.index), 3*perCommit)
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	allocs := testing.AllocsPerRun(5, func() { tr.buildFlush(sm.mem) })
	if limit := float64(8 + 2*len(sm.mem.runs)); allocs > limit {
		t.Fatalf("a flush of %d entries into %d blocks allocates %.0f times; want at most %.0f (iterators and the filter's growth, nothing per entry or block)",
			tbl.entries, len(tbl.index), allocs, limit)
	}
}

// TestRecycledMemtableIsEmpty: the memtable a flush has written becomes the
// next active one, emptied — it answers nothing, holds no run and pins no
// key or value — while a reader that took values out of it before the flush
// still reads them, and the tree still serves every key from the table.
func TestRecycledMemtableIsEmpty(t *testing.T) {
	tr := mustOpen(t, Options{FS: fsx.NoSync(), Dir: t.TempDir(), MemtableBytes: 1 << 30})
	sm := sealThree(t, tr, 200)
	flushed := sm.mem
	key := []byte("eL\x05key-2-000017")
	held, ok, err := tr.GetBytes(key)
	if err != nil || !ok {
		t.Fatalf("GetBytes before the flush = %v, %v", ok, err)
	}
	var heldKeys [][]byte
	if err := tr.Range("", "", func(k, _ []byte) error { heldKeys = append(heldKeys, k); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := tr.runInlineSteps(-1); err != nil {
		t.Fatal(err)
	}
	if tr.spare != flushed || len(tr.sealed) != 0 || len(tr.tables) != 1 {
		t.Fatalf("after the flush: spare is the flushed memtable = %v, %d sealed, %d tables", tr.spare == flushed, len(tr.sealed), len(tr.tables))
	}
	if flushed.len() != 0 || len(flushed.index) != 0 || len(flushed.runs) != 0 || flushed.bytes != 0 || flushed.get(string(key)) != nil {
		t.Fatalf("the recycled memtable is not empty: %d slots, %d index entries, %d runs, %d bytes", flushed.len(), len(flushed.index), len(flushed.runs), flushed.bytes)
	}
	for _, s := range flushed.slots[:cap(flushed.slots)] {
		if s.key != "" || s.value != nil {
			t.Fatal("a recycled slot still pins the key or value it held")
		}
	}
	if want := bytes.Repeat([]byte{2}, 40); !bytes.Equal(held, want) {
		t.Fatalf("a value read before the flush reads %q after it", held)
	}
	if len(heldKeys) != 600 || string(heldKeys[217]) != "eL\x05key-2-000017" {
		t.Fatalf("key views taken before the flush read wrong after it: %d keys, [217] = %q", len(heldKeys), heldKeys[217])
	}
	if v, ok, err := tr.GetBytes(key); err != nil || !ok || !bytes.Equal(v, held) {
		t.Fatalf("GetBytes after the flush = %q, %v, %v", v, ok, err)
	}
	// The next seal hands the recycled memtable back as the active one.
	commit(t, tr, tr.Stats().Version+1, map[string][]byte{"z": []byte("1")})
	tr.mu.Lock()
	tr.sealLocked()
	tr.mu.Unlock()
	if tr.mem != flushed || tr.spare != nil {
		t.Fatal("the seal after a flush did not reuse the flushed memtable")
	}
}

// TestDeltaImageIsAllocatedOnce: encoding a commit's delta and sealing it
// allocates the image once — EncodeBatch leaves room for the footer, and Seal
// formats it in place — and not at all when the last image is handed back.
func TestDeltaImageIsAllocatedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var b Batch
	for i := 0; i < 500; i++ {
		b = append(b, Entry{Key: fmt.Sprintf("eL\x05key-%06d", i), Value: bytes.Repeat([]byte{byte(i)}, 40), Tomb: i%7 == 0})
	}
	var img []byte
	if allocs := testing.AllocsPerRun(10, func() { img = fsx.Seal(EncodeBatch(nil, b)) }); allocs != 1 {
		t.Fatalf("EncodeBatch+Seal allocate %.0f times, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { img = fsx.Seal(EncodeBatch(img, b)) }); allocs != 0 {
		t.Fatalf("EncodeBatch+Seal over the last image allocate %.0f times, want 0", allocs)
	}
	body, err := fsx.Verify("delta", img)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBatch(body)
	if err != nil || len(back) != len(b) {
		t.Fatalf("the sealed image decodes to %d entries, %v", len(back), err)
	}
}
