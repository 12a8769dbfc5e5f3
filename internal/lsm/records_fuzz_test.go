package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"structream/internal/fsx"
)

// encodeBatchOracle is the encoder as it was before batches were sorted
// slices: keys gathered from two maps (a key in both is a delete) and put in
// order with sort.Strings. The tests hold EncodeBatch to its bytes.
func encodeBatchOracle(puts map[string][]byte, dels map[string]bool) []byte {
	keys := make([]string, 0, len(puts)+len(dels))
	for k := range puts {
		if !dels[k] {
			keys = append(keys, k)
		}
	}
	for k := range dels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		if dels[k] {
			buf = append(buf, OpDel)
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
			continue
		}
		buf = append(buf, OpPut)
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(puts[k])))
		buf = append(buf, puts[k]...)
	}
	return buf
}

// walkRecords reads a record batch one record at a time, in file order, with
// no opinion about that order — the model DecodeBatch is compared with.
func walkRecords(data []byte, put func(key string, value []byte), del func(key string)) error {
	bad := errors.New("bad framing")
	for pos := 0; pos < len(data); {
		op := data[pos]
		klen, n := binary.Uvarint(data[pos+1:])
		if n <= 0 || uint64(len(data)-pos-1-n) < klen {
			return bad
		}
		pos += 1 + n
		key := string(data[pos : pos+int(klen)])
		pos += int(klen)
		switch op {
		case OpPut:
			vlen, n := binary.Uvarint(data[pos:])
			if n <= 0 || uint64(len(data)-pos-n) < vlen {
				return bad
			}
			put(key, data[pos+n:pos+n+int(vlen)])
			pos += n + int(vlen)
		case OpDel:
			del(key)
		default:
			return bad
		}
	}
	return nil
}

// frame renders records in the order given: "k=v" is a put, "k" a delete.
func frame(records ...string) []byte {
	var buf []byte
	for _, r := range records {
		k, v, isPut := bytes.Cut([]byte(r), []byte("="))
		if !isPut {
			buf = append(buf, OpDel)
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
			continue
		}
		buf = append(buf, OpPut)
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// FuzzRecordBatch fuzzes the key/value record framing of the delta log, which
// the .snapshot files of checkpoints the retired map store wrote share. Arbitrary
// (corrupt) input never panics — it either decodes or returns an error — and
// whatever decodes, in whatever order its records sit and however often they
// repeat a key, (1) comes back strictly ascending and equal to the records
// applied one at a time to a map, last one winning; (2) re-encodes to the
// bytes the map-based encoder gives for that map, and those decode to the
// same batch; (3) replays through Tree.Load to that same state, with the
// memtable's ordered iteration strictly ascending.
func FuzzRecordBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeBatchOracle(map[string][]byte{"a": []byte("1"), "b": nil}, map[string]bool{"c": true}))
	f.Add(encodeBatchOracle(map[string][]byte{"": []byte("empty key")}, nil))
	f.Add([]byte{OpPut, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{OpDel, 3, 'a'})
	f.Add([]byte{99, 1, 'x'})
	f.Add(frame("m=1", "c=2", "x", "a=3"))                  // out of order
	f.Add(frame("k=1", "k", "j=0", "k=2", "j", "j=9", "a")) // keys repeated, put and delete interleaved
	// The body of a .snapshot the map store wrote, which Load reads as a base.
	snap := filepath.Join("..", "state", "testdata", "parent-state", "memory", "state", "join", "3", "10.snapshot")
	data, err := os.ReadFile(snap)
	if err != nil {
		f.Fatal(err)
	}
	body, err := fsx.Verify(snap, data)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(data)
		puts, dels := map[string][]byte{}, map[string]bool{}
		werr := walkRecords(data,
			func(key string, value []byte) { puts[key] = value; delete(dels, key) },
			func(key string) { dels[key] = true; delete(puts, key) })
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeBatch: %v, record walk: %v", err, werr)
		}
		if err != nil {
			return // rejected corrupt input is the correct outcome
		}
		if len(b) != len(puts)+len(dels) {
			t.Fatalf("decoded %d entries for %d puts and %d deletes", len(b), len(puts), len(dels))
		}
		for i, e := range b {
			if i > 0 && b[i-1].Key >= e.Key {
				t.Fatalf("entry %d: %q after %q", i, e.Key, b[i-1].Key)
			}
			if v, isPut := puts[e.Key]; e.Tomb != dels[e.Key] || e.Tomb == isPut || !bytes.Equal(e.Value, v) {
				t.Fatalf("entry %q = (%q, tomb %v); the records say (%q, deleted %v)", e.Key, e.Value, e.Tomb, v, dels[e.Key])
			}
		}
		re := EncodeBatch(nil, b)
		if want := encodeBatchOracle(puts, dels); !bytes.Equal(re, want) {
			t.Fatalf("EncodeBatch = %x, the map-based encoder gives %x", re, want)
		}
		b2, err := DecodeBatch(re)
		if err != nil || len(b2) != len(b) {
			t.Fatalf("re-encoded batch decodes to %d entries, %v; want %d", len(b2), err, len(b))
		}
		for i := range b {
			if b2[i].Key != b[i].Key || b2[i].Tomb != b[i].Tomb || !bytes.Equal(b2[i].Value, b[i].Value) {
				t.Fatalf("round trip changed entry %d: %+v -> %+v", i, b[i], b2[i])
			}
		}

		// The same bytes as version 1's delta file.
		if err := os.WriteFile(filepath.Join(dir, "1.delta"), fsx.Seal(data), 0o644); err != nil {
			t.Fatal(err)
		}
		tr, err := Open(Options{FS: fsx.NoSync(), Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if err := tr.Load(1); err != nil {
			t.Fatalf("Load: %v", err)
		}
		if got := tr.NumKeys(); got != int64(len(puts)) {
			t.Fatalf("NumKeys after replay = %d, want %d", got, len(puts))
		}
		for _, e := range b {
			v, ok, err := tr.Get(e.Key)
			if err != nil || ok == e.Tomb || !bytes.Equal(v, e.Value) {
				t.Fatalf("Get(%q) after replay = %q, %v, %v; want %q, %v", e.Key, v, ok, err, e.Value, !e.Tomb)
			}
		}
		n, last := 0, []byte(nil)
		for mi := newMergeIter(tr.mem.iters("")); mi.next(); n++ {
			k, _, _ := mi.entry()
			if n > 0 && bytes.Compare(last, k) >= 0 {
				t.Fatalf("memtable iteration: %q after %q", k, last)
			}
			last = append(last[:0], k...)
		}
		if n != len(b) {
			t.Fatalf("memtable iteration yields %d keys, want %d", n, len(b))
		}
	})
}
