package sinks

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
)

// ------------------------------------------------------------ the oracle

// boxedTable is what the memory sink was before its table became bytes: a
// map of boxed rows per mode. The fuzz target holds the sink to it.
type boxedTable struct {
	mode     logical.OutputMode
	keyed    map[string]int // update: key bytes → position in order
	order    []sql.Row
	complete []sql.Row
	byEpoch  map[epochSub][]sql.Row
}

type epochSub struct{ epoch, sub int64 }

func (o *boxedTable) add(b Batch) {
	switch o.mode {
	case logical.Complete:
		o.complete = b.Rows
	case logical.Append:
		o.byEpoch[epochSub{b.Epoch, b.Sub}] = b.Rows
	case logical.Update:
		ka := b.KeyArity
		if ka <= 0 || ka > b.Schema.Len() {
			ka = b.Schema.Len()
		}
		for _, r := range b.Rows {
			k := codec.KeyString(r[:ka])
			if at, ok := o.keyed[k]; ok {
				o.order[at] = r
				continue
			}
			o.keyed[k] = len(o.order)
			o.order = append(o.order, r)
		}
	}
}

func (o *boxedTable) epochRows(epoch int64) (rows []sql.Row, held bool) {
	var subs []int64
	for k := range o.byEpoch {
		if k.epoch == epoch {
			subs = append(subs, k.sub)
		}
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
	for _, sub := range subs {
		rows = append(rows, o.byEpoch[epochSub{epoch, sub}]...)
	}
	return rows, len(subs) > 0
}

func (o *boxedTable) rows() []sql.Row {
	switch o.mode {
	case logical.Complete:
		return o.complete
	case logical.Update:
		return o.order
	}
	seen := map[int64]bool{}
	var epochs []int64
	for k := range o.byEpoch {
		if !seen[k.epoch] {
			seen[k.epoch] = true
			epochs = append(epochs, k.epoch)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	var out []sql.Row
	for _, e := range epochs {
		rows, _ := o.epochRows(e)
		out = append(out, rows...)
	}
	return out
}

// ------------------------------------------------------------ the fuzzer

// program reads a fuzz input as a byte stream that ends in zeros.
type program struct {
	data []byte
	at   int
}

func (p *program) next() int {
	if p.at >= len(p.data) {
		return 0
	}
	p.at++
	return int(p.data[p.at-1])
}

var fuzzWide = sql.NewSchema(
	sql.Field{Name: "k", Type: sql.TypeString},
	sql.Field{Name: "n", Type: sql.TypeInt64},
	sql.Field{Name: "w", Type: sql.TypeWindow},
	sql.Field{Name: "f", Type: sql.TypeFloat64},
	sql.Field{Name: "b", Type: sql.TypeBinary},
	sql.Field{Name: "flag", Type: sql.TypeBool},
)

var fuzzNarrow = sql.NewSchema(fuzzWide.Field(0), fuzzWide.Field(1))

// cell draws one value of column c: NULL, the type's edge cases (the empty
// string, NaN, negative zero, the empty byte string) or a value whose
// encoding is anything from one byte to a few hundred.
func (p *program) cell(c int) sql.Value {
	kind, x := p.next(), p.next()
	if kind%5 == 0 {
		return nil
	}
	switch c {
	case 0:
		switch kind % 5 {
		case 1:
			return ""
		case 2:
			return fmt.Sprintf("key-%d", x%6)
		}
		return strings.Repeat("s", x)
	case 1:
		return (int64(1) << uint(x%63)) * int64(1-2*(kind%2))
	case 2:
		return sql.Window{Start: int64(x%3) * 10, End: int64(x%3)*10 + 10}
	case 3:
		switch kind % 5 {
		case 1:
			return math.NaN()
		case 2:
			return math.Copysign(0, -1)
		}
		return float64(x) / 4
	case 4:
		return []byte(strings.Repeat("b", x%40))
	}
	return x%2 == 0
}

// batch draws one delivery: its place in the epoch sequence (the previous
// (epoch, sub) again, another sub of the same epoch, or the next epoch), the
// schema (six columns or two), the key arity (0 = the whole row) and up to
// seven rows.
func (p *program) batch(mode logical.OutputMode, epoch *int64) Batch {
	head := p.next()
	var sub int64
	switch head % 4 {
	case 0: // replay
	case 1:
		sub = int64(p.next() % 3)
	default:
		*epoch++
	}
	schema := fuzzWide
	if head&4 != 0 {
		schema = fuzzNarrow
	}
	b := Batch{Epoch: *epoch, Sub: sub, Mode: mode, Schema: schema, KeyArity: (head >> 3) % 4}
	for i := p.next() % 8; i > 0; i-- {
		r := make(sql.Row, schema.Len())
		for c := range r {
			r[c] = p.cell(c)
		}
		b.Rows = append(b.Rows, r)
	}
	return b
}

// checkTable holds the keyed table's own accounting: every slab byte is
// either some entry's room or counted dead.
func checkTable(t *testing.T, kt *keyedTable) {
	t.Helper()
	slabBytes, room := 0, 0
	for _, s := range kt.slabs {
		slabBytes += len(s)
	}
	for _, e := range kt.ents {
		room += int(e.size)
		if e.klen+e.vlen > e.size {
			t.Fatalf("record of %d bytes in %d bytes of room", e.klen+e.vlen, e.size)
		}
	}
	if kt.used != slabBytes || room+kt.dead != kt.used {
		t.Fatalf("slabs hold %d bytes: used %d = %d in records + %d dead?", slabBytes, kt.used, room, kt.dead)
	}
	if kt.dead > kt.used/2 {
		t.Fatalf("%d of %d slab bytes dead and no rewrite", kt.dead, kt.used)
	}
}

func FuzzMemorySinkTable(f *testing.F) {
	f.Add([]byte{0, 2, 3, 1, 1, 2, 2, 3, 3, 4, 4, 1, 5, 6, 7})
	f.Add([]byte{1, 10, 4, 2, 1, 1, 9, 2, 1, 1, 60, 0, 10, 2, 2, 1, 1, 1, 2, 1, 1, 3})
	f.Add([]byte{1, 6, 5, 2, 0, 1, 7, 2, 0, 1, 200, 2, 0, 1, 3, 0, 0, 6, 5, 2, 0, 1, 7})
	f.Add([]byte{2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 33, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &program{data: data}
		mode := []logical.OutputMode{logical.Append, logical.Update, logical.Complete}[p.next()%3]
		s := NewMemorySink()
		o := &boxedTable{mode: mode, keyed: map[string]int{}, byEpoch: map[epochSub][]sql.Row{}}
		agree := func(when string) {
			t.Helper()
			if got, want := showRows(s.Rows()), showRows(o.rows()); got != want {
				t.Fatalf("%s:\n got %s\nwant %s", when, got, want)
			}
		}
		var epoch int64
		for step := 0; p.at < len(p.data) && step < 64; step++ {
			b := p.batch(mode, &epoch)
			o.add(b)
			var err error
			if p.next()%2 == 0 {
				err = s.AddBatch(b)
			} else {
				err = s.AddColumnBatch(columnar(t, b))
			}
			if err != nil {
				t.Fatal(err)
			}
			agree(fmt.Sprintf("step %d", step))
			if mode == logical.Append {
				got, held := s.EpochRows(b.Epoch)
				want, _ := o.epochRows(b.Epoch)
				if !held || showRows(got) != showRows(want) {
					t.Fatalf("step %d, epoch %d: held=%v\n got %s\nwant %s", step, b.Epoch, held, showRows(got), showRows(want))
				}
			}
			checkTable(t, &s.keyed)
			if p.next()%4 == 0 {
				s.keyed.rewrite()
				checkTable(t, &s.keyed)
				agree(fmt.Sprintf("step %d, after a rewrite", step))
			}
		}
	})
}

// ------------------------------------------------------------ bookkeeping

func TestSinkHoldsNoObjectsPerRow(t *testing.T) {
	const upserts, perBatch, keys = 200_000, 1_000, 150_000
	heapObjects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	s := NewMemorySink()
	before := heapObjects()
	for from := 0; from < upserts; from += perBatch {
		rows := make([]sql.Row, perBatch)
		for i := range rows {
			n := from + i
			rows[i] = sql.Row{fmt.Sprintf("k%07d", n*7%keys), int64(n), int64(n) * 1000}
		}
		if err := s.AddBatch(batch(int64(from/perBatch), logical.Update, rows...)); err != nil {
			t.Fatal(err)
		}
	}
	grown := int64(heapObjects() - before)
	held := len(s.keyed.ents)
	runtime.KeepAlive(s)
	if held != keys {
		t.Fatalf("table holds %d rows, want %d", held, keys)
	}
	// A few dozen slabs, the index and the entry array — not a handful of
	// objects for each of the rows.
	t.Logf("%d rows retained, the heap grew by %d objects", held, grown)
	if grown > 500 {
		t.Fatalf("%d rows retained and the heap grew by %d objects", held, grown)
	}
}

// Registering an epoch, enforcing retention and reading an epoch back each
// take a bounded number of steps whatever the sink already holds: a sink
// nobody bounds, fed and read by the hub an epoch at a time, must not go
// quadratic over its life.
func TestEpochBookkeepingIsLinear(t *testing.T) {
	const epochs = 20_000
	for _, retain := range []int{0, 64} {
		s := NewMemorySink()
		s.SetRetention(retain)
		for e := int64(0); e < epochs; e++ {
			if err := s.AddBatch(batch(e, logical.Append, sql.Row{"CA", e})); err != nil {
				t.Fatal(err)
			}
			if rows, ok := s.EpochRows(e); !ok || len(rows) != 1 || rows[0][1] != e {
				t.Fatalf("epoch %d: held=%v rows=%v", e, ok, rows)
			}
		}
		t.Logf("retain=%d: %d steps over %d epochs", retain, s.steps, epochs)
		// One step to append in order, one binary search to read back.
		if perEpoch := s.steps / epochs; perEpoch > 24 {
			t.Errorf("retain=%d: %d bookkeeping steps an epoch over %d epochs", retain, perEpoch, epochs)
		}
		if want := epochs; retain == 0 && s.distinct != want {
			t.Errorf("distinct = %d, want %d", s.distinct, want)
		}
		if retain > 0 && (s.distinct != retain || len(s.epochs) != retain || s.Floor() != epochs-1-int64(retain)) {
			t.Errorf("retain=%d: distinct=%d held=%d floor=%d", retain, s.distinct, len(s.epochs), s.Floor())
		}
	}
}

// Retention, Truncate and a replay in the other delivery form must let go of
// a delivery's bytes — or its vectors — exactly where the boxed sink let go
// of its rows.
func TestDroppedDeliveriesAreReleased(t *testing.T) {
	row := func(epoch, sub int64) fixtureStep {
		return rowStep(fixtureBatch(logical.Append, epoch, sub, 2, fixtureRows(0, 3, int(epoch))))
	}
	col := func(epoch, sub int64) fixtureStep {
		return colStep(fixtureBatch(logical.Append, epoch, sub, 2, fixtureRows(0, 3, int(epoch))))
	}
	for _, tc := range []struct {
		name     string
		steps    []fixtureStep
		want     string // "epoch.sub:form" of every delivery held
		distinct int
		floor    int64
		last     int64
	}{
		{
			name: "retention",
			steps: []fixtureStep{row(0, 0), col(1, 0), row(1, 1), col(2, 0), row(3, 0), row(3, 1),
				func(t *testing.T, s *MemorySink) { s.SetRetention(2) }},
			want: "2.0:cols 3.0:rows 3.1:rows", distinct: 2, floor: 1, last: 3,
		},
		{
			name: "truncate",
			steps: []fixtureStep{row(0, 0), col(1, 0), row(1, 1), col(2, 0), row(3, 0), row(3, 1),
				func(t *testing.T, s *MemorySink) { s.Truncate(1) }},
			want: "0.0:rows 1.0:cols 1.1:rows", distinct: 2, floor: -1, last: 1,
		},
		{
			name:  "replay in the other form",
			steps: []fixtureStep{row(0, 0), col(1, 0), row(2, 0), col(0, 0), row(1, 0), col(2, 0), row(2, 0)},
			want:  "0.0:cols 1.0:rows 2.0:rows", distinct: 3, floor: -1, last: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewMemorySink()
			for _, step := range tc.steps {
				step(t, s)
			}
			var held []string
			for _, d := range s.epochs {
				form := "rows"
				switch {
				case d.vecs != nil && d.rows.buf != nil:
					form = "both"
				case d.vecs != nil:
					form = "cols"
				}
				held = append(held, fmt.Sprintf("%d.%d:%s", d.epoch, d.sub, form))
			}
			if got := strings.Join(held, " "); got != tc.want {
				t.Errorf("holds %s, want %s", got, tc.want)
			}
			if s.distinct != tc.distinct || s.Floor() != tc.floor || s.LastEpoch() != tc.last {
				t.Errorf("distinct=%d floor=%d last=%d, want %d %d %d", s.distinct, s.Floor(), s.LastEpoch(), tc.distinct, tc.floor, tc.last)
			}
			for _, d := range s.epochs[len(s.epochs):cap(s.epochs)] {
				if d.rows.buf != nil || d.vecs != nil {
					t.Errorf("a dropped delivery of epoch %d is still referenced behind the slice", d.epoch)
				}
			}
		})
	}
}
