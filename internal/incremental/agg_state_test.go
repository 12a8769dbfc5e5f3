package incremental

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/codec"
)

// aggStateKinds are the nine aggregate buffers, one bound aggregate each
// (min and max share one, as do first and last, and stddev and variance).
var aggStateKinds = []sql.BoundAgg{
	{Kind: sql.AggCount, ResultType: sql.TypeInt64},
	{Kind: sql.AggSum, ResultType: sql.TypeInt64},
	{Kind: sql.AggSum, ResultType: sql.TypeFloat64},
	{Kind: sql.AggAvg, ResultType: sql.TypeFloat64},
	{Kind: sql.AggMin, ResultType: sql.TypeFloat64},
	{Kind: sql.AggLast, ResultType: sql.TypeString},
	{Kind: sql.AggCountDistinct, ResultType: sql.TypeInt64},
	{Kind: sql.AggApproxCountDistinct, ResultType: sql.TypeInt64},
	{Kind: sql.AggStddev, ResultType: sql.TypeFloat64},
}

// aggStateOracle is the boxed route a state value took before the typed
// loaders: every buffer keeps it for this file.
type aggStateOracle interface {
	Serialize() []sql.Value
	Deserialize(vals []sql.Value) error
}

// oracleLoad reads a one-aggregate state value the boxed way: the length
// frame, every value in it decoded to a []sql.Value, Deserialize.
func oracleLoad(data []byte, buf sql.AggBuffer) error {
	n, w := binary.Uvarint(data)
	if w <= 0 || n != uint64(len(data)-w) {
		return fmt.Errorf("bad frame")
	}
	vals, err := codec.DecodeValues(data[w:])
	if err != nil {
		return err
	}
	return buf.(aggStateOracle).Deserialize(vals)
}

// oracleState renders a one-aggregate state value the boxed way.
func oracleState(buf sql.AggBuffer) []byte {
	body := codec.EncodeValues(buf.(aggStateOracle).Serialize())
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// FuzzAggState feeds arbitrary bytes, as a state value read off disk, to the
// typed loader of each of the nine buffers and to the Serialize/Deserialize
// oracle: both must accept or both refuse, an accepted value must leave the
// two buffers in the same state with the same result, AppendState must
// re-emit the oracle's bytes, and nothing may panic.
func FuzzAggState(f *testing.F) {
	for _, agg := range aggStateKinds {
		buf := agg.NewBuffer()
		f.Add(appendAggState(nil, []sql.AggBuffer{buf})) // the empty state
		for _, v := range []sql.Value{3.5, "x", int64(7), 3.5, math.Inf(-1)} {
			buf.Update(v)
		}
		f.Add(appendAggState(nil, []sql.AggBuffer{buf}))
	}
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN that is not the canonical one
	f.Add(append([]byte{10}, sql.AppendBool(sql.AppendFloat64(nil, nan), true)...))
	f.Add(append([]byte{12}, sql.AppendInt64(sql.AppendFloat64(nil, nan), 3)...))
	f.Add(binary.AppendUvarint(nil, 1<<63+5)) // a length that wraps negative as an int
	f.Add([]byte{2, sql.WireInt64, 0x80})     // a varint cut short
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, agg := range aggStateKinds {
			op := &StatefulAggregate{OpName: "fuzz", Aggs: []sql.BoundAgg{agg}}
			typed, boxed := op.newBuffers(), op.newBuffers()
			errTyped, errBoxed := op.loadAggState(data, typed), oracleLoad(data, boxed[0])
			if (errTyped == nil) != (errBoxed == nil) {
				t.Fatalf("%T on %x: typed loader says %v, oracle says %v", typed[0], data, errTyped, errBoxed)
			}
			if errTyped != nil {
				continue
			}
			want := oracleState(boxed[0])
			if got := oracleState(typed[0]); !bytes.Equal(got, want) {
				t.Fatalf("%T on %x: typed loader left state %x, oracle %x", typed[0], data, got, want)
			}
			if got := appendAggState(nil, typed); !bytes.Equal(got, want) {
				t.Fatalf("%T on %x: AppendState wrote %x, oracle %x", typed[0], data, got, want)
			}
			if got, want := codec.EncodeValues([]sql.Value{typed[0].Result()}), codec.EncodeValues([]sql.Value{boxed[0].Result()}); !bytes.Equal(got, want) {
				t.Fatalf("%T on %x: results %x and %x", typed[0], data, got, want)
			}
		}
	})
}

// TestAppendAggStateLongBuffer: a buffer whose state needs a length of more
// than one byte (HLL registers) is moved up behind it, and the buffers
// around it are not disturbed.
func TestAppendAggStateLongBuffer(t *testing.T) {
	op := &StatefulAggregate{OpName: "agg", Aggs: []sql.BoundAgg{aggStateKinds[0], aggStateKinds[7], aggStateKinds[1]}}
	bufs := op.newBuffers()
	for i := 0; i < 300; i++ {
		for _, b := range bufs {
			b.Update(int64(i))
		}
	}
	var want []byte
	for _, b := range bufs {
		want = append(want, oracleState(b)...)
	}
	got := appendAggState([]byte("prefix"), bufs)
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("state bytes differ from the oracle's:\n got  %x\n want %x", got, want)
	}
	back := op.newBuffers()
	if err := op.loadAggState(want, back); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i].Result() != bufs[i].Result() {
			t.Fatalf("buffer %d read back as %v, want %v", i, back[i].Result(), bufs[i].Result())
		}
	}
}
