package incremental

import (
	"os"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/logical"
	"structream/internal/state"
)

// The checkpoint under testdata/pr12-join-state was written by the commit
// before join state was grouped by (join key, time bucket) (83d75ff): one
// header per (side, join key), entry keys without a bucket, a 'w' value that
// holds the eviction floor and nothing else. This file is the fixture's
// definition — the epochs are a pure function of their number — and was
// compiled at that commit to produce it, with that commit's boxed
// shuffle-row constructor where joinRow, which renders join cells, stands
// now:
//
//	cp join_fixture_gen_test.go <checkout of 83d75ff>/internal/incremental/
//	JOIN_WRITE_FIXTURE=<dir> go test -run TestWriteJoinStateFixture ./internal/incremental
//
// TestJoinRejectsOlderLayout reads it back with the current code.
const joinFixtureEpochs = 3

func joinFixtureOp() *StreamStreamJoin {
	return &StreamStreamJoin{OpName: "join", Type: logical.LeftOuterJoin, LeftArity: 2, RightArity: 2,
		LeftEventIdx: 1, RightEventIdx: 1}
}

// joinFixtureInputs is epoch e's shuffle rows: four per side over two join
// keys, event times 10 s apart, the right side 1 s behind the left.
func joinFixtureInputs(e int64) [][]sql.Row {
	inputs := make([][]sql.Row, 2)
	for s := range inputs {
		for i := int64(0); i < 4; i++ {
			key, ts := sql.Value([]string{"a", "b"}[i%2]), (100+10*(4*e+i)-int64(s))*sec
			inputs[s] = append(inputs[s], joinRow([]sql.Value{key}, ts, sql.Row{key, ts}))
		}
	}
	return inputs
}

func TestWriteJoinStateFixture(t *testing.T) {
	dir := os.Getenv("JOIN_WRITE_FIXTURE")
	if dir == "" {
		t.Skip("set JOIN_WRITE_FIXTURE=<dir> to write the fixture with the code of this checkout")
	}
	prov := state.NewProvider(dir)
	defer prov.Close()
	store, err := prov.Open(state.ID{Operator: "join"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < joinFixtureEpochs; e++ {
		// The watermark trails by 60 s: the last epoch evicts a few rows.
		ctx := &EpochContext{Epoch: e, Watermark: max(0, (100+40*e-60)*sec), Mode: logical.Append}
		if _, err := joinFixtureOp().Process(ctx, store, joinFixtureInputs(e)); err != nil {
			t.Fatal(err)
		}
		if err := store.Commit(e); err != nil {
			t.Fatal(err)
		}
	}
}
