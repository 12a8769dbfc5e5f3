package lsm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"structream/internal/fsx"
)

// The write path's micro-benchmarks. They drive flushStep, compactStep and
// Table.get through names and signatures the tree has had since its staged
// write table, so this file copied into an older checkout measures that
// commit (EXPERIMENTS.md records such pairs):
//
//	go test -run '^$' -bench 'BenchmarkFlush|BenchmarkCompact4|BenchmarkTableGet' -benchtime 20x -cpu 1 ./internal/lsm/

// benchShape draws the keys and values of one commit in a benchmark
// workload's shape.
type benchShape struct {
	name string
	// commit returns version v's puts: about n keys.
	commit func(rng *rand.Rand, v, n int) map[string][]byte
}

var benchShapes = []benchShape{
	// join-skew: per buffered row an entry ('e', side, bucket, ad, idx → the
	// encoded row) and its time-index key ('t', side, event time, ad, idx →
	// nothing). Ads are Zipf-skewed, so a hot ad's entries differ only in
	// their last eight bytes.
	{"join", func(rng *rand.Rand, v, n int) map[string][]byte {
		puts := make(map[string][]byte, n)
		zipf := rand.NewZipf(rng, 1.1, 8, 50_000)
		row := make([]byte, 56)
		for i := 0; len(puts) < n; i++ {
			side := "LR"[i&1]
			ad := binary.BigEndian.AppendUint64([]byte{3}, zipf.Uint64())
			idx := binary.BigEndian.AppendUint64(nil, uint64(v)<<20|uint64(i))
			ts := uint64(v)*2_000_000 + uint64(rng.Intn(2_000_000))
			e := binary.AppendUvarint([]byte{'e', side}, ts/80_000_000)
			puts[string(append(append(e, ad...), idx...))] = row
			t := binary.BigEndian.AppendUint64([]byte{'t', side}, ts)
			puts[string(append(append(t, ad...), idx...))] = []byte{}
		}
		return puts
	}},
	// agg-spill: one short string key per group out of 1.5 M, a count and a
	// sum behind it.
	{"agg", func(rng *rand.Rand, v, n int) map[string][]byte {
		puts := make(map[string][]byte, n)
		val := make([]byte, 18)
		for len(puts) < n {
			puts[fmt.Sprintf("\x05\x08k%07d", rng.Intn(1_500_000))] = val
		}
		return puts
	}},
}

// benchTree opens a tree that never seals or merges on its own.
func benchTree(b *testing.B) *Tree {
	tr, err := Open(Options{FS: fsx.NoSync(), Dir: b.TempDir(), MemtableBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(tr.Close)
	return tr
}

// fillAndSeal commits three sorted batches — about 256 KiB of memtable — and
// seals them, returning the sealed memtable and its entry count.
func fillAndSeal(b *testing.B, tr *Tree, shape benchShape, rng *rand.Rand, version *int) (*sealedMem, int) {
	per := 1100
	if shape.name == "agg" {
		per = 1400
	}
	for c := 0; c < 3; c++ {
		*version++
		if err := tr.Commit(int64(*version), shape.commit(rng, *version, per), nil); err != nil {
			b.Fatal(err)
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.mem.bytes < 200<<10 || tr.mem.bytes > 320<<10 {
		b.Fatalf("the memtable holds %d bytes; the benchmark is calibrated for about 256 KiB", tr.mem.bytes)
	}
	n := tr.mem.len()
	tr.sealLocked()
	return tr.sealed[len(tr.sealed)-1], n
}

// measured runs fn and adds its wall time and allocation to the totals.
type measured struct {
	elapsed       time.Duration
	bytes, allocs uint64
}

func (m *measured) do(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	m.elapsed += time.Since(start)
	runtime.ReadMemStats(&after)
	m.bytes += after.TotalAlloc - before.TotalAlloc
	m.allocs += after.Mallocs - before.Mallocs
}

func (m *measured) report(b *testing.B, units int, unit string) {
	b.ReportMetric(float64(m.elapsed.Nanoseconds())/float64(units), "ns/"+unit)
	b.ReportMetric(float64(m.bytes)/float64(units), "B/"+unit)
	b.ReportMetric(float64(m.allocs)/float64(units), "allocs/"+unit)
}

// BenchmarkFlush is one memtable flush: a 256 KiB memtable built from three
// sorted commits, merged and written as a table. Only flushStep is measured.
func BenchmarkFlush(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			tr := benchTree(b)
			rng := rand.New(rand.NewSource(1))
			var m measured
			version, entries := 0, 0
			for i := 0; i < b.N; i++ {
				sm, n := fillAndSeal(b, tr, shape, rng, &version)
				entries += n
				m.do(func() {
					if err := tr.flushStep(sm, tr.nextSeq); err != nil {
						b.Fatal(err)
					}
				})
				// Each flush starts from an empty table list.
				tr.mu.Lock()
				tr.tables = nil
				tr.mu.Unlock()
			}
			m.report(b, entries, "entry")
		})
	}
}

// BenchmarkCompact4 is one merge of four similar tables, each a flushed
// 256 KiB memtable. Only compactStep is measured; the table list is put back
// after each merge.
func BenchmarkCompact4(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			tr := benchTree(b)
			rng := rand.New(rand.NewSource(2))
			version, entries := 0, 0
			for t := 0; t < 4; t++ {
				sm, n := fillAndSeal(b, tr, shape, rng, &version)
				entries += n
				if err := tr.flushStep(sm, tr.nextSeq); err != nil {
					b.Fatal(err)
				}
			}
			run := append([]*Table(nil), tr.tables...)
			var m measured
			for i := 0; i < b.N; i++ {
				m.do(func() {
					if err := tr.compactStep(0, len(run), run, tr.nextSeq); err != nil {
						b.Fatal(err)
					}
				})
				tr.mu.Lock()
				tr.tables = append([]*Table(nil), run...)
				tr.mu.Unlock()
			}
			m.report(b, entries*b.N, "entry")
		})
	}
}

// BenchmarkTableGet is a point lookup in one table of 64 k aggregate keys
// with every block cached: keys the table holds, and absent keys its filter
// lets through — the lookups that reach both binary searches.
func BenchmarkTableGet(b *testing.B) {
	tr, err := Open(Options{FS: fsx.NoSync(), Dir: b.TempDir(), MemtableBytes: 1 << 40, Cache: NewBlockCache(64 << 20)})
	if err != nil {
		b.Fatal(err)
	}
	defer tr.Close()
	rng := rand.New(rand.NewSource(3))
	puts := benchShapes[1].commit(rng, 1, 64<<10)
	if err := tr.Commit(1, puts, nil); err != nil {
		b.Fatal(err)
	}
	tr.mu.Lock()
	tr.sealLocked()
	sm := tr.sealed[0]
	tr.mu.Unlock()
	if err := tr.flushStep(sm, tr.nextSeq); err != nil {
		b.Fatal(err)
	}
	tbl := tr.tables[0]
	var hits, misses [][]byte
	for k := range puts {
		if len(hits) < 4096 {
			hits = append(hits, []byte(k))
		}
	}
	for i := 0; len(misses) < 1024; i++ {
		k := []byte(fmt.Sprintf("\x05\x08k%07d", i))
		if _, held := puts[string(k)]; !held && tbl.bloom.mayContain(keyHash(k)) {
			misses = append(misses, k)
		}
	}
	for _, c := range []struct {
		name string
		keys [][]byte
		want bool
	}{{"hit", hits, true}, {"filter-passed-miss", misses, false}} {
		b.Run(c.name, func(b *testing.B) {
			lookup := func() {
				for _, k := range c.keys {
					if _, _, ok, err := tbl.get(k, keyHash(k)); err != nil || ok != c.want {
						b.Fatalf("get(%q) = ok %v, %v", k, ok, err)
					}
				}
			}
			lookup() // every block the keys touch is cached from here on
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lookup()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.keys)), "ns/key")
		})
	}
}
