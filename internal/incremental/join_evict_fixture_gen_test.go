package incremental

import (
	"os"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/state"
)

// The checkpoint under testdata/pr29-join-evicted was written by the last
// commit that evicted both sides of a banded join at ts < W (c9cbacb): its
// last epoch ran under a watermark of 143 s and dropped — padding it, the join
// being left-outer — the left row of key "a" at 140 s, which the band
// [0, 10 s] keeps matchable until the watermark passes 150 s. This file is the
// fixture's definition and was compiled at that commit to produce it, with
// that commit's boxed shuffle-row constructor where joinRow, which renders
// join cells, stands now:
//
//	cp join_evict_fixture_gen_test.go <checkout of c9cbacb>/internal/incremental/
//	JOIN_WRITE_EVICT_FIXTURE=<dir> go test -run TestWriteJoinEvictFixture ./internal/incremental
//
// TestJoinContinuesCheckpointEvictedUnderOldRule reads it back with the
// current code.
const joinEvictFixtureEpochs = 3

func joinEvictFixtureOp() *StreamStreamJoin {
	return &StreamStreamJoin{OpName: "join", Type: logical.LeftOuterJoin, LeftArity: 2, RightArity: 2,
		LeftEventIdx: 1, RightEventIdx: 1, Band: &TimeBand{Lo: 0, Hi: 10 * sec}}
}

// joinEvictFixtureInputs is epoch e's shuffle rows: per side one row of key
// "a" at 100+20e s and one of key "b" 5 s later, the right side 1 s behind
// the left and so outside the band.
func joinEvictFixtureInputs(e int64) [][]sql.Row {
	inputs := make([][]sql.Row, 2)
	for s := range inputs {
		for i, key := range []sql.Value{"a", "b"} {
			ts := (100 + 20*e + 5*int64(i) - int64(s)) * sec
			inputs[s] = append(inputs[s], joinRow([]sql.Value{key}, ts, sql.Row{key, ts}))
		}
	}
	return inputs
}

// joinEvictFixtureWatermark trails epoch e's newest row by 2 s, far less
// than the band: 103, 123, 143 s.
func joinEvictFixtureWatermark(e int64) int64 { return (103 + 20*e) * sec }

func TestWriteJoinEvictFixture(t *testing.T) {
	dir := os.Getenv("JOIN_WRITE_EVICT_FIXTURE")
	if dir == "" {
		t.Skip("set JOIN_WRITE_EVICT_FIXTURE=<dir> to write the fixture with the code of this checkout")
	}
	prov := state.NewProvider(dir)
	defer prov.Close()
	store, err := prov.Open(state.ID{Operator: "join"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < joinEvictFixtureEpochs; e++ {
		ctx := &EpochContext{Epoch: e, Watermark: joinEvictFixtureWatermark(e), Mode: logical.Append}
		if _, err := joinEvictFixtureOp().Process(ctx, store, joinEvictFixtureInputs(e)); err != nil {
			t.Fatal(err)
		}
		if err := store.Commit(e); err != nil {
			t.Fatal(err)
		}
	}
}
