package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestGetBatchBytesMatchesGetBytes drives random commit schedules over
// random tree shapes — a memtable threshold from a few entries to a few
// hundred, a merge width that leaves two tables or dozens, maintenance run
// to completion at every commit or a seeded fraction of it (so sealed
// memtables are still queued when the reads happen) — and requires the
// structure-at-a-time batch probe, with its one hash per key, to agree with
// the per-key path for every key: live, tombstoned, overwritten and never
// written, including duplicates within one batch.
func TestGetBatchBytesMatchesGetBytes(t *testing.T) {
	const keys = 200
	key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := smallOpts(t)
		opts.MemtableBytes = []int64{1, 256, 2 << 10, 16 << 10}[rng.Intn(4)]
		opts.MaxTierTables = []int{2, 4, 1 << 20}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			opts.Scheduler = NewSeededScheduler(seed)
		}
		tr := mustOpen(t, opts)

		commits := 12 + int64(rng.Intn(20))
		for version := int64(1); version <= commits; version++ {
			puts := map[string][]byte{}
			dels := map[string]bool{}
			for i := 0; i < 40; i++ {
				k := key(rng.Intn(keys))
				if rng.Intn(4) == 0 {
					dels[k] = true
					delete(puts, k)
				} else {
					puts[k] = []byte(fmt.Sprintf("v%d-%s", version, k))
					delete(dels, k)
				}
			}
			if err := tr.Commit(version, puts, dels); err != nil {
				t.Fatalf("seed %d: Commit(%d): %v", seed, version, err)
			}
		}
		st := tr.Stats()
		shape := fmt.Sprintf("seed %d (memtable %d B, merge width %d, %d tables, %d sealed, %d merges)",
			seed, opts.MemtableBytes, opts.MaxTierTables, st.Tables, st.FlushBacklog, st.Compactions)

		var batch [][]byte
		for i := 0; i < keys; i++ {
			batch = append(batch, []byte(key(i)))
		}
		for i := 0; i < 60; i++ {
			batch = append(batch, []byte(key(rng.Intn(keys))))
		}
		batch = append(batch, []byte("zzz-never"), []byte(""))

		values := make([][]byte, len(batch))
		oks := make([]bool, len(batch))
		// Twice: the second call runs on the first one's scratch.
		for round := 0; round < 2; round++ {
			if err := tr.GetBatchBytes(batch, values, oks); err != nil {
				t.Fatalf("%s: GetBatchBytes: %v", shape, err)
			}
			for i, k := range batch {
				wantV, wantOK, err := tr.GetBytes(k)
				if err != nil {
					t.Fatalf("%s: GetBytes(%q): %v", shape, k, err)
				}
				if oks[i] != wantOK || !bytes.Equal(values[i], wantV) {
					t.Fatalf("%s: key %q: batch = (%q, %v), scalar = (%q, %v)", shape, k, values[i], oks[i], wantV, wantOK)
				}
			}
		}
		t.Log(shape)

		// Empty batch is a no-op.
		if err := tr.GetBatchBytes(nil, nil, nil); err != nil {
			t.Fatalf("%s: empty GetBatchBytes: %v", shape, err)
		}
	}
}

// TestSortBatchOrdersAsBytes: SortBatch puts a batch in the order of its keys'
// bytes on both of its paths — a comparison sort below radixMin, the radix
// sort on eight-byte prefixes from it up — over keys that share long
// prefixes, keys shorter than eight bytes whose zero padding ties them with
// longer ones ("ab" and "ab\x00"), and random bytes; every value moves with
// its key, and the scratch one call returns serves the next of any size.
func TestSortBatchOrdersAsBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var handles [][2]uint64
	for _, n := range []int{2, 7, radixMin - 1, radixMin, radixMin + 1, 3000, 40} {
		for _, shape := range []string{"state", "short", "random"} {
			seen := map[string]bool{}
			var b Batch
			for len(b) < n {
				var k []byte
				switch shape {
				case "state": // the join's entry keys: tag, side, bucket, key, index
					k = fmt.Appendf(nil, "e%c\x05%c%08d", "LR"[rng.Intn(2)], 'a'+rng.Intn(3), rng.Intn(4*n))
				case "short":
					k = make([]byte, rng.Intn(10))
					for i := range k {
						k[i] = "ab\x00"[rng.Intn(3)]
					}
				default:
					k = make([]byte, 1+rng.Intn(12))
					rng.Read(k)
				}
				if !seen[string(k)] {
					seen[string(k)] = true
					b = append(b, Entry{Key: string(k), Value: []byte("v" + string(k))})
				}
			}
			handles = SortBatch(b, handles)
			for i, e := range b {
				if i > 0 && bytes.Compare([]byte(b[i-1].Key), []byte(e.Key)) >= 0 {
					t.Fatalf("%s, %d keys: %q before %q", shape, n, b[i-1].Key, e.Key)
				}
				if string(e.Value) != "v"+e.Key {
					t.Fatalf("%s, %d keys: key %q carries the value %q", shape, n, e.Key, e.Value)
				}
			}
			if len(b) != n {
				t.Fatalf("%s: %d entries after sorting %d", shape, len(b), n)
			}
		}
	}
}
