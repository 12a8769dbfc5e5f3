package lsm

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"structream/internal/fsx"
)

// sliceIter is a kvIter over sorted keys held in memory; an entry's value
// names the source it came from.
type sliceIter struct {
	keys [][]byte
	val  []byte
	i    int
}

func (it *sliceIter) next() bool                    { it.i++; return it.i <= len(it.keys) }
func (it *sliceIter) entry() ([]byte, []byte, bool) { return it.keys[it.i-1], it.val, false }
func (it *sliceIter) error() error                  { return nil }

// mergeSources builds n sorted sources of perSource keys each out of one key
// space, so that about dupPct percent of the keys sit in more than one
// source, and returns the union's size with them.
func mergeSources(rng *rand.Rand, n, perSource, dupPct int) (srcs []kvIter, distinct int) {
	seen := map[string]bool{}
	var pool []string // keys some source already holds
	for s := 0; s < n; s++ {
		mine := map[string]bool{}
		for len(mine) < perSource {
			k := fmt.Sprintf("eL\x05key-%08d", rng.Intn(1<<30))
			if len(pool) > 0 && rng.Intn(100) < dupPct {
				k = pool[rng.Intn(len(pool))]
			}
			mine[k] = true
		}
		it := &sliceIter{val: []byte{byte(s)}}
		for k := range mine {
			it.keys = append(it.keys, []byte(k))
			if !seen[k] {
				seen[k] = true
				pool = append(pool, k)
			}
		}
		sort.Slice(it.keys, func(i, j int) bool { return string(it.keys[i]) < string(it.keys[j]) })
		srcs = append(srcs, it)
	}
	return srcs, len(seen)
}

// TestMergeIterNewestWins: every key of the union comes out once, in order,
// with the value of the lowest-numbered source that holds it — including
// keys three and more sources share, where every holder must be advanced.
func TestMergeIterNewestWins(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		srcs, distinct := mergeSources(rand.New(rand.NewSource(int64(n))), n, 400, 30)
		newest := map[string]byte{}
		for s := n - 1; s >= 0; s-- {
			for _, k := range srcs[s].(*sliceIter).keys {
				newest[string(k)] = byte(s)
			}
		}
		got, last := 0, ""
		for mi := newMergeIter(srcs); mi.next(); got++ {
			k, v, _ := mi.entry()
			if got > 0 && string(k) <= last {
				t.Fatalf("%d sources: %q after %q", n, k, last)
			}
			if v[0] != newest[string(k)] {
				t.Fatalf("%d sources: %q came from source %d, newest holder is %d", n, k, v[0], newest[string(k)])
			}
			last = string(k)
		}
		if got != distinct {
			t.Fatalf("%d sources: %d keys out, union has %d", n, got, distinct)
		}
	}
}

// BenchmarkMergeIter is the compaction and flush inner loop: 4 and 16
// sources of 4 k keys, one key in ten also held by another source.
func BenchmarkMergeIter(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("sources=%d", n), func(b *testing.B) {
			srcs, distinct := mergeSources(rand.New(rand.NewSource(1)), n, 4<<10, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range srcs {
					s.(*sliceIter).i = 0
				}
				got := 0
				for mi := newMergeIter(srcs); mi.next(); got++ {
				}
				if got != distinct {
					b.Fatalf("%d keys out, union has %d", got, distinct)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*distinct), "ns/key")
		})
	}
}

// TestOneKeyCommitsStayLogarithmic is the small-epoch case the memtable's
// runs must not make quadratic: 20 000 one-key commits into one default
// memtable. Counted, not timed: the runs stay within ⌈log₂ n⌉+1 all the way,
// all the run merges together copy at most log₂ n + 1 keys per commit, and
// Range over any window and the flush at the end equal a sorted model.
func TestOneKeyCommitsStayLogarithmic(t *testing.T) {
	const n = 20_000
	tr := mustOpen(t, Options{FS: fsx.NoSync(), Dir: t.TempDir()})
	rng := rand.New(rand.NewSource(5))
	model := map[string][]byte{}
	for v := int64(1); len(model) < n; v++ {
		k := fmt.Sprintf("tL%012d", rng.Int63n(1e12))
		model[k] = []byte{byte(v)}
		if err := tr.Commit(v, map[string][]byte{k: model[k]}, nil); err != nil {
			t.Fatal(err)
		}
		if keys := len(model); len(tr.mem.runs) > bits.Len(uint(keys-1))+1 {
			t.Fatalf("%d runs after %d one-key commits; want at most ⌈log₂ n⌉+1 = %d", len(tr.mem.runs), keys, bits.Len(uint(keys-1))+1)
		}
	}
	if len(tr.sealed)+len(tr.tables) != 0 || tr.mem.len() != n {
		t.Fatalf("%d keys in the memtable, %d sealed, %d tables; want all %d in one memtable", tr.mem.len(), len(tr.sealed), len(tr.tables), n)
	}
	if limit := int64(n * (bits.Len(n) + 1)); tr.mem.mergedKeys > limit {
		t.Fatalf("run merges copied %d keys over %d commits; want at most n(log₂ n + 1) = %d", tr.mem.mergedKeys, n, limit)
	}
	t.Logf("%d runs, %.1f keys copied per commit", len(tr.mem.runs), float64(tr.mem.mergedKeys)/n)

	sorted := make([]string, 0, n)
	for k := range model {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for trial := 0; trial < 50; trial++ {
		lo := rng.Intn(n)
		hi := min(n-1, lo+rng.Intn(400))
		if trial == 0 {
			lo, hi = 0, n-1
		}
		at := lo
		err := tr.Range(sorted[lo], sorted[hi], func(kb, v []byte) error {
			k := string(kb)
			if at > hi || k != sorted[at] || !bytes.Equal(v, model[k]) {
				return fmt.Errorf("entry %d of the window is %q; want %q", at-lo, k, sorted[min(at, hi)])
			}
			at++
			return nil
		})
		if err != nil || at != hi+1 {
			t.Fatalf("Range[%d..%d] stopped after %d keys: %v", lo, hi, at-lo, err)
		}
	}

	// One value larger than the memtable seals it; the synchronous scheduler
	// flushes it before Commit returns.
	if err := tr.Commit(n+1, map[string][]byte{"~": make([]byte, defaultMemtableCap)}, nil); err != nil {
		t.Fatal(err)
	}
	if len(tr.tables) != 1 || tr.tables[0].entries != n+1 {
		t.Fatalf("the seal left %d tables; want one of %d entries", len(tr.tables), n+1)
	}
	it := tr.tables[0].iter("")
	for i, k := range sorted {
		if !it.next() || string(it.key) != k || !bytes.Equal(it.val, model[k]) {
			t.Fatalf("flushed entry %d is %q (%v); want %q", i, it.key, it.err, k)
		}
	}
}
