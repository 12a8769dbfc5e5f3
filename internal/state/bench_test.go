package state

import (
	"encoding/binary"
	"testing"

	"structream/internal/fsx"
)

// benchKey is laid out like a stream-stream join's entry key: tag, side, a
// four-byte uvarint time bucket, the codec's int64 tag, a varint join key
// out of 50 000, a big-endian index — 18 bytes, the first six or seven
// shared by most of an epoch's keys.
func benchKey(buf []byte, bucket, id, idx uint64) []byte {
	buf = append(buf[:0], 'e', 'L')
	buf = binary.AppendUvarint(buf, 160_000_000+bucket)
	buf = append(buf, 0x03)
	buf = binary.AppendVarint(buf, int64(id*0x9E3779B97F4A7C15>>40%50_000))
	return binary.BigEndian.AppendUint64(buf, idx)
}

// BenchmarkStoreStageCommit is one reduce task's write side: stage 8 k puts
// of keys new by construction and 4 k removes of keys the epoch before put
// (both with a Hint, as the join does), then Commit. Synchronous maintenance
// on an unsynced filesystem, so a memtable flush is part of the commit that
// triggers it.
func BenchmarkStoreStageCommit(b *testing.B) {
	const puts, removes = 8 << 10, 4 << 10
	for _, backend := range []Backend{BackendMemory, BackendLSM} {
		b.Run(string(backend), func(b *testing.B) {
			p := NewProviderFS(fsx.NoSync(), b.TempDir())
			p.Backend = backend
			defer p.Close()
			s, err := p.Open(ID{Operator: "join", Partition: 0}, -1)
			if err != nil {
				b.Fatal(err)
			}
			var kb []byte
			value := make([]byte, 24)
			epoch := func(v int) {
				for i := 0; i < puts; i++ {
					kb = benchKey(kb, uint64(v), uint64(i), uint64(v))
					s.PutNew(kb, value)
				}
				for i := 0; v > 0 && i < removes; i++ {
					kb = benchKey(kb, uint64(v-1), uint64(i), uint64(v-1))
					s.RemoveLive(kb)
				}
				if err := s.Commit(int64(v)); err != nil {
					b.Fatal(err)
				}
			}
			epoch(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				epoch(i)
			}
			b.StopTimer()
			keys := float64(b.N) * (puts + removes)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/keys, "ns/key")
		})
	}
}

// BenchmarkStoreRangeNarrow is the join's eviction scan: a window holding 1 %
// of the keys, over a default (4 MiB) memtable filled by 8 commits to about
// three quarters with nothing flushed, under 6 k staged puts none of which
// fall inside the window.
func BenchmarkStoreRangeNarrow(b *testing.B) {
	const commits, perCommit, staged = 8, 4 << 10, 6 << 10
	p := NewProviderFS(fsx.NoSync(), b.TempDir())
	p.Backend = BackendLSM
	defer p.Close()
	s, err := p.Open(ID{Operator: "join", Partition: 0}, -1)
	if err != nil {
		b.Fatal(err)
	}
	// Time-index keys: tag, side, big-endian timestamp, index.
	timeKey := func(ts, idx uint64) []byte {
		k := binary.BigEndian.AppendUint64([]byte{'t', 'L'}, ts)
		return binary.BigEndian.AppendUint64(k, idx)
	}
	value := make([]byte, 48)
	for v := 0; v < commits; v++ {
		for i := 0; i < perCommit; i++ {
			// Interleaved: every commit spreads over the whole time range.
			s.Put(timeKey(uint64(i*commits+v), 0), value)
		}
		if err := s.Commit(int64(v)); err != nil {
			b.Fatal(err)
		}
	}
	if st := p.Stats(); st.Flushes != 0 || st.MemtableBytes < 3<<20 {
		b.Fatalf("set-up wants one memtable about three quarters full, nothing flushed: %+v", st)
	}
	var kb []byte
	for i := 0; i < staged; i++ {
		kb = benchKey(kb, 7, uint64(i), 0)
		s.Put(kb, value)
	}
	const total = commits * perCommit
	from, to := timeKey(total/2, 0), timeKey(total/2+total/100, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.Range(from, to, func(_, _ []byte) bool { n++; return true })
		if n != total/100 {
			b.Fatalf("window holds %d keys, want %d", n, total/100)
		}
	}
}
