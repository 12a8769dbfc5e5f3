package lsm

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// flushOnly runs exactly the flush after each commit and no merge, so a
// test can build a table set and then run the merge on its own (Compact).
type flushOnly struct{}

func (flushOnly) Async() bool                      { return false }
func (flushOnly) StepsAfterCommit(backlog int) int { return backlog }

// TestTableCountLogarithmicInFlushes: 64 flushes whose sizes alternate
// either side of 16 KiB — a boundary of the power-of-two bands the run
// selection used to be drawn from, where no four neighbours ever shared a
// band and nothing merged — leave at most 2·log₂(64) + MaxTierTables
// tables, at the end and at every commit on the way.
func TestTableCountLogarithmicInFlushes(t *testing.T) {
	const flushes = 64
	opts := smallOpts(t)
	opts.MemtableBytes = 1 // every commit flushes
	opts.BlockBytes = 4096
	opts.MaxTierTables = 4
	tr := mustOpen(t, opts)
	bound := int64(2*math.Log2(flushes)) + int64(opts.MaxTierTables)
	value := bytes.Repeat([]byte("v"), 1000)
	for v := int64(1); v <= flushes; v++ {
		n := 12 // ≈ 12 KiB
		if v%2 == 0 {
			n = 20 // ≈ 20 KiB
		}
		puts := map[string][]byte{}
		for i := 0; i < n; i++ {
			puts[fmt.Sprintf("f%02d-%02d", v, i)] = value
		}
		commit(t, tr, v, puts)
		if st := tr.Stats(); st.Tables > bound {
			t.Fatalf("after flush %d: %d tables, bound %d (stats %+v)", v, st.Tables, bound, st)
		}
	}
	st := tr.Stats()
	if st.Flushes != flushes || st.Compactions == 0 {
		t.Fatalf("expected %d flushes and some merges, got %+v", flushes, st)
	}
	if got, want := tr.NumKeys(), int64(flushes/2*(12+20)); got != want {
		t.Fatalf("NumKeys = %d, want %d", got, want)
	}
	t.Logf("%d flushes → %d tables (bound %d), %d merges over %d KiB", flushes, st.Tables, bound, st.Compactions, st.CompactionBytes>>10)
}

// TestPickRunSizeRatio pins the selection rule on hand-built size lists
// (oldest first): the run is the newest suffix, extended while the next
// older table is at most twice the run so far, and due at MaxTierTables.
func TestPickRunSizeRatio(t *testing.T) {
	for _, c := range []struct {
		sizes []int64
		i, j  int
	}{
		{nil, -1, -1},
		{[]int64{10, 10, 10}, -1, -1},                     // narrower than the minimum width
		{[]int64{10, 10, 10, 10}, 0, 4},                   // equal sizes
		{[]int64{110, 155, 110, 155}, 0, 4},               // either side of a band boundary
		{[]int64{1000, 10, 10, 10, 10}, 1, 5},             // 1000 > 2·40: the old table stays out
		{[]int64{80, 10, 10, 10, 10}, 0, 5},               // 80 ≤ 2·40: it joins
		{[]int64{1000, 400, 10, 10, 10}, -1, -1},          // 400 > 2·30 stops a run of three
		{[]int64{100, 100, 100, 100, 1}, -1, -1},          // a tiny newest table takes nothing older
		{[]int64{100, 100, 100, 100, 1, 100}, 0, 6},       // until a flush of the usual size arrives
		{[]int64{4000, 2000, 1000, 300, 100, 30}, -1, -1}, // geometric stack: nothing due
	} {
		tr := &Tree{opts: Options{MaxTierTables: 4}}
		for _, sz := range c.sizes {
			tr.tables = append(tr.tables, &Table{size: sz})
		}
		if i, j := tr.pickRunLocked(); i != c.i || j != c.j {
			t.Errorf("sizes %v: run [%d,%d), want [%d,%d)", c.sizes, i, j, c.i, c.j)
		}
	}
}

// TestMergeLeavesCachedBlocksOfOtherTablesAlone: a merge reads its inputs
// past the block cache. With the cache full of an older, larger table's
// blocks — the readers' hot set — merging the newer small tables must leave
// that resident set exactly as it was, count nothing as cache traffic, and
// cache nothing of the table it writes.
func TestMergeLeavesCachedBlocksOfOtherTablesAlone(t *testing.T) {
	opts := smallOpts(t)
	opts.MemtableBytes = 1
	opts.MaxTierTables = 4
	opts.Scheduler = flushOnly{}
	opts.Cache = NewBlockCache(8 << 10) // a fraction of the old table
	tr := mustOpen(t, opts)

	value := bytes.Repeat([]byte("x"), 100)
	old := map[string][]byte{}
	for i := 0; i < 300; i++ {
		old[fmt.Sprintf("old-%03d", i)] = value
	}
	commit(t, tr, 1, old) // ≈ 36 KiB: more than twice the four below together
	for v := int64(2); v <= 5; v++ {
		puts := map[string][]byte{}
		for i := 0; i < 8; i++ {
			puts[fmt.Sprintf("new-%d-%d", v, i)] = value
		}
		commit(t, tr, v, puts)
	}
	if st := tr.Stats(); st.Tables != 5 || st.Compactions != 0 {
		t.Fatalf("setup: want 5 unmerged tables, got %+v", st)
	}
	oldID := tr.tables[0].id

	// Readers work on the old table until its blocks fill the cache.
	for k := range old {
		if _, ok, err := tr.GetBytes([]byte(k)); err != nil || !ok {
			t.Fatalf("Get(%s) = %v, %v", k, ok, err)
		}
	}
	// resident is the cached block set by table: the old table's, and
	// everything else's (a filter's false positive can bring in a block of
	// a table that does not hold the key).
	resident := func() (ofOld, ofOthers map[cacheKey]bool) {
		opts.Cache.mu.Lock()
		defer opts.Cache.mu.Unlock()
		ofOld, ofOthers = map[cacheKey]bool{}, map[cacheKey]bool{}
		for k := range opts.Cache.items {
			if k.table == oldID {
				ofOld[k] = true
			} else {
				ofOthers[k] = true
			}
		}
		return ofOld, ofOthers
	}
	before, _ := resident()
	statsBefore := opts.Cache.Stats()
	if len(before) == 0 || statsBefore.Bytes < opts.Cache.capacity*3/4 {
		t.Fatalf("setup: cache not filled by reads of the old table: %d blocks, %+v", len(before), statsBefore)
	}

	if err := tr.runInlineSteps(-1); err != nil {
		t.Fatal(err)
	}
	if st := tr.Stats(); st.Compactions != 1 || st.Tables != 2 {
		t.Fatalf("want one merge of the four new tables, got %+v", st)
	}
	after, others := resident()
	statsAfter := opts.Cache.Stats()
	if len(after) != len(before) {
		t.Fatalf("merge changed the old table's resident set: %d blocks before, %d after", len(before), len(after))
	}
	for k := range before {
		if !after[k] {
			t.Fatalf("merge evicted block %d of the old table", k.block)
		}
	}
	if len(others) != 0 {
		t.Fatalf("after the merge the cache holds blocks of its inputs or its output: %v", others)
	}
	if statsAfter.Hits != statsBefore.Hits || statsAfter.Misses != statsBefore.Misses {
		t.Fatalf("merge went through the cache: %+v before, %+v after", statsBefore, statsAfter)
	}
}
