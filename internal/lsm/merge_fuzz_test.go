package lsm

import (
	"bytes"
	"slices"
	"sort"
	"testing"
)

// fuzzKeyHeads are the key shapes the comparison rule must not confuse:
// shorter than a prefix, exactly one prefix long, sharing a whole prefix, and
// look-alikes under zero padding ("ab" and "ab\x00" have one prefix).
var fuzzKeyHeads = []string{
	"", "a", "ab", "ab\x00", "ab\x00\x00", "ab\xff", "abcdefg", "abcdefgh", "abcdefgh\x00",
	"abcdefghi", "abcdefgi", "\x00", "\x00\x00\x00\x00\x00\x00\x00\x00", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
}

// fuzzKey draws one key of at most 20 bytes from two fuzz bytes and a tail.
func fuzzKey(head, n byte, tail []byte) []byte {
	k := []byte(fuzzKeyHeads[int(head)%len(fuzzKeyHeads)])
	k = append(k, tail[:min(len(tail), int(n)%8)]...)
	return k[:min(len(k), 20)]
}

type fuzzEntry struct {
	key, val []byte
	tomb     bool
}

// tableOf writes entries (ascending) as a table of 64-byte blocks and opens
// it from memory.
func tableOf(t testing.TB, entries []fuzzEntry, cache *BlockCache) *Table {
	b := newTableBuilder(64, bloomBitsPerKey)
	for _, e := range entries {
		b.add(e.key, e.val, e.tomb)
	}
	tbl, err := openTable(imageFS{image: slices.Clone(b.finish())}, "fuzz.sst", 0, cache)
	if err != nil {
		t.Fatalf("a table this code built does not open: %v", err)
	}
	return tbl
}

// FuzzMergeIter holds the merge — memtable runs and table iterators mixed,
// one to nine sources, a lower bound — against an oracle that sorts with
// bytes.Compare and lets the newest source win: the stream must be identical,
// tombstones included, and every key and value it yielded must still read
// right once the iterator is exhausted, since nothing copies them any more.
func FuzzMergeIter(f *testing.F) {
	// Keys that tie on their prefix, spread over three sources; the same with
	// a bound between them; one key in every source; tails.
	f.Add([]byte{0, 7, 0, 0, 1, 8, 0, 0, 2, 9, 0, 2, 0, 2, 0, 0, 1, 3, 0, 1, 2, 4, 0, 0}, uint8(2), []byte(nil))
	f.Add([]byte{0, 7, 0, 0, 1, 8, 0, 0, 2, 9, 0, 2, 0, 2, 0, 0, 1, 3, 0, 1, 2, 4, 0, 0}, uint8(8), []byte("ab\x00"))
	f.Add([]byte{0, 10, 0, 0, 1, 10, 0, 1, 2, 10, 0, 2, 3, 10, 0, 3, 4, 12, 0, 0, 5, 11, 0, 0}, uint8(5), []byte("abcdefgh"))
	f.Add([]byte{0, 7, 3, 0, 1, 7, 2, 0, 2, 7, 1, 1, 'x', 'y', 'z'}, uint8(3), []byte{0})
	f.Fuzz(func(t *testing.T, data []byte, nsrc uint8, from []byte) {
		n := 1 + int(nsrc)%9
		from = from[:min(len(from), 20)]
		// Four fuzz bytes pick an entry's source, key head, tail length and
		// kind; the bytes after them are the key's tail. Within a source a
		// later entry replaces an earlier one with the same key.
		srcs := make([]map[string]fuzzEntry, n)
		for i := range srcs {
			srcs[i] = map[string]fuzzEntry{}
		}
		for at := 0; at+4 <= len(data); at += 4 {
			s := int(data[at]) % n
			k := fuzzKey(data[at+1], data[at+2], data[at+4:])
			e := fuzzEntry{key: k, tomb: data[at+3]&1 == 1}
			if !e.tomb {
				e.val = append([]byte{byte(s), data[at+3]}, k...)
			}
			srcs[s][string(k)] = e
		}
		var its []kvIter
		newest := map[string]fuzzEntry{}
		for s, m := range srcs {
			entries := make([]fuzzEntry, 0, len(m))
			for k, e := range m {
				entries = append(entries, e)
				if _, ok := newest[k]; !ok {
					newest[k] = e
				}
			}
			sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
			if s%2 == 1 {
				its = append(its, tableOf(t, entries, nil).iter(string(from)))
				continue
			}
			// A memtable filled by two commits — every other key, then the
			// rest — so that it holds one run or two.
			mem := newMemtable()
			for half := 0; half < 2; half++ {
				first := mem.len()
				for i := half; i < len(entries); i += 2 {
					mem.put(string(entries[i].key), entries[i].val, entries[i].tomb)
				}
				mem.addRun(first)
			}
			its = append(its, mem.iters(string(from))...)
		}
		var want []fuzzEntry
		for _, e := range newest {
			if bytes.Compare(e.key, from) >= 0 {
				want = append(want, e)
			}
		}
		sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].key, want[j].key) < 0 })

		var got []fuzzEntry
		mi := newMergeIter(its)
		for mi.next() {
			k, v, tomb := mi.entry()
			got = append(got, fuzzEntry{k, v, tomb}) // views, kept past the advance
		}
		if err := mi.error(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d entries out of %d sources from %q; the oracle has %d", len(got), n, from, len(want))
		}
		for i, w := range want {
			if g := got[i]; !bytes.Equal(g.key, w.key) || !bytes.Equal(g.val, w.val) || g.tomb != w.tomb {
				t.Fatalf("entry %d is (%q, %q, tomb=%v); the oracle has (%q, %q, tomb=%v)", i, g.key, g.val, g.tomb, w.key, w.val, w.tomb)
			}
		}
	})
}

// FuzzTableGet holds the point lookup's two prefix searches against a scan
// of the same table: every key it holds, and keys that are not there —
// between two neighbours (and so, often, between two blocks), before the
// first, after the last, and look-alikes one padding byte away.
func FuzzTableGet(f *testing.F) {
	f.Add([]byte{2, 0, 3, 1, 'x', 2, 1, 'y', 'z', 7, 2, 'p', 'q', 8, 0, 9, 3, 'a', 'b', 'c'}, []byte("abcdefgh\x00"))
	f.Add([]byte{0, 0, 1, 0, 11, 0, 12, 0, 13, 1, 0xff}, []byte(nil))
	f.Fuzz(func(t *testing.T, data, probe []byte) {
		// Three fuzz bytes pick a key's head and tail length and whether it is
		// a tombstone; the bytes after them are its tail.
		held := map[string]fuzzEntry{}
		for at := 0; at+3 <= len(data); at += 3 {
			k := fuzzKey(data[at], data[at+1], data[at+3:])
			held[string(k)] = fuzzEntry{key: k, val: append([]byte{data[at+2]}, k...), tomb: data[at+2]&3 == 3}
		}
		entries := make([]fuzzEntry, 0, len(held))
		for _, e := range held {
			entries = append(entries, e)
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
		tbl := tableOf(t, entries, NewBlockCache(1<<20))

		// The oracle is the table itself, read front to back.
		var scanned []fuzzEntry
		for it := tbl.iter(""); it.next(); {
			scanned = append(scanned, fuzzEntry{it.key, it.val, it.tomb})
		}
		if len(scanned) != len(entries) {
			t.Fatalf("a scan yields %d entries of %d", len(scanned), len(entries))
		}
		probes := [][]byte{probe[:min(len(probe), 20)], {}, bytes.Repeat([]byte{0xff}, 21)}
		for _, e := range entries {
			probes = append(probes, e.key, append(slices.Clone(e.key), 0), append(slices.Clone(e.key), 0xff))
			if n := len(e.key); n > 0 {
				probes = append(probes, e.key[:n-1])
				if e.key[n-1] > 0 {
					probes = append(probes, append(slices.Clone(e.key[:n-1]), e.key[n-1]-1))
				}
			}
		}
		for _, k := range probes {
			var want *fuzzEntry
			for i := range scanned {
				if bytes.Equal(scanned[i].key, k) {
					want = &scanned[i]
				}
			}
			v, tomb, ok, err := tbl.get(k, keyHash(k))
			if err != nil {
				t.Fatalf("get(%q): %v", k, err)
			}
			switch {
			case want == nil && ok:
				t.Fatalf("get(%q) found (%q, tomb=%v) in a table that does not hold the key", k, v, tomb)
			case want != nil && (!ok || tomb != want.tomb || (!tomb && !bytes.Equal(v, want.val))):
				t.Fatalf("get(%q) = (%q, tomb=%v, ok=%v); a scan finds (%q, tomb=%v)", k, v, tomb, ok, want.val, want.tomb)
			}
		}
	})
}
