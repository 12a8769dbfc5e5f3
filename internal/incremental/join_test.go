package incremental

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/logical"
	"structream/internal/sql/vec"
	"structream/internal/state"
)

// Tests that hold the indexed join state layout to the list-valued reference
// in join_oracle_test.go, and to its own cost claims.

// spillBudget is a memtable budget small enough that these workloads flush
// and compact; under the default one (0) they never leave the memtable.
const spillBudget = 16 << 10

// joinBudgets are the budgets the join's suites run at, under the names of
// the two state backends they replaced.
var joinBudgets = []struct {
	name  string
	bytes int64
}{{"memory", 0}, {"lsm", spillBudget}}

// joinStore opens one partition's store for the join at the given memtable
// budget.
func joinStore(t testing.TB, budget int64) (*state.Provider, *state.Store) {
	t.Helper()
	p := state.NewProvider(t.TempDir())
	p.MemtableBytes = budget
	t.Cleanup(p.Close)
	s, err := p.Open(state.ID{Operator: "join", Partition: 0}, -1)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

// joinRow renders one row as a join's map task does — the shuffle row of a
// cell with this key and event time — cut from slabs of its own.
func joinRow(key []sql.Value, ts int64, row sql.Row) sql.Row {
	var c joinCells
	c.addRow(key, ts, row)
	return c.scatter(1)[0][0]
}

// parentEntry is the entry value the layout defines for a buffered row — the
// bytes the commits that boxed rows on the way to the store wrote: varint ts,
// matched byte, codec row.
func parentEntry(row sql.Row, ts int64, matched bool) []byte {
	v := binary.AppendVarint(nil, ts)
	if matched {
		return append(append(v, 1), codec.EncodeRow(row)...)
	}
	return append(append(v, 0), codec.EncodeRow(row)...)
}

// bufferedRow is one live buffered row as either layout describes it.
type bufferedRow struct {
	side    byte
	key     string
	row     string
	ts      int64
	matched bool
}

// testBucket is the bucket the layout must file a row under, worked out here
// from the documented rule and not by calling the operator's arithmetic.
func testBucket(width, ts int64) uint64 {
	if width <= 0 || ts < 0 {
		return 0
	}
	return uint64(ts/width) + 1
}

// oracleBuffered lists the reference store's live rows per (side, key): in
// list (arrival) order within a bucket of the given width, buckets ascending —
// which for width 0 is plain arrival order.
func oracleBuffered(t *testing.T, store *state.Store, width int64) []bufferedRow {
	t.Helper()
	var out []bufferedRow
	store.Iterate(func(k, v []byte) bool {
		entries, err := oracleDecodeEntries(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			out = append(out, bufferedRow{k[0], string(k[1:]), e.row.String(), e.ts, e.matched})
		}
		return true
	})
	sort.SliceStable(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.side != y.side {
			return x.side < y.side
		} else if x.key != y.key {
			return x.key < y.key
		}
		return testBucket(width, x.ts) < testBucket(width, y.ts)
	})
	return out
}

// indexedBuffered lists the new layout's live rows per (side, key) in
// (bucket, idx) order, after checking the layout's invariants: the meta key
// records the operator's bucket width, every entry sits in the bucket its
// event time names, every header counts exactly the entries inside its range,
// every entry sits under a header, and the time index holds exactly the
// evictable entries.
func indexedBuffered(t *testing.T, j *StreamStreamJoin, store *state.Store) []bufferedRow {
	t.Helper()
	type group struct {
		hdr     joinGroup
		hasHdr  bool
		entries int
	}
	groups := map[string]*group{}
	at := func(name []byte) *group { // side, bucket, join key
		g := groups[string(name)]
		if g == nil {
			g = &group{}
			groups[string(name)] = g
		}
		return g
	}
	type located struct {
		bufferedRow
		bucket, idx uint64
	}
	var rows []located
	evictable, indexed := map[string]bool{}, map[string]bool{}
	eventIdx := map[byte]int{'L': j.LeftEventIdx, 'R': j.RightEventIdx}
	width := j.bucketWidth()
	store.Range(nil, nil, func(k, v []byte) bool {
		switch k[0] {
		case tagMeta:
			if _, stored, err := decodeJoinMeta(v); err != nil || stored != width {
				t.Fatalf("meta %x: width %d (%v), operator's %d", v, stored, err, width)
			}
		case tagHeader:
			g := at(k[1:])
			if err := g.hdr.decodeHeader(v); err != nil {
				t.Fatalf("header %x: %v", k, err)
			}
			g.hasHdr = true
		case tagEntry:
			bucket, w := binary.Uvarint(k[2:])
			kb, idx := k[2+w:len(k)-8], binary.BigEndian.Uint64(k[len(k)-8:])
			ts, rest, err := entryTs(v)
			row, rowErr := entryRow(v, nil, 0)
			if err != nil || rowErr != nil {
				t.Fatalf("entry %x: %v, %v", k, err, rowErr)
			}
			if bucket != testBucket(width, ts) {
				t.Fatalf("entry %x with ts %d sits in bucket %d of width %d", k, ts, bucket, width)
			}
			at(k[1:len(k)-8]).entries++
			rows = append(rows, located{bufferedRow{k[1], string(kb), row.String(), ts, rest[0] == 1}, bucket, idx})
			if ts >= 0 && eventIdx[k[1]] >= 0 {
				evictable[string(new(joinKeyBuf).key(tagTime, k[1], uint64(ts), kb, idx))] = true
			}
		case tagTime:
			if _, _, _, err := parseJoinTimeKey(k); err != nil {
				t.Fatalf("time key %x: %v", k, err)
			}
			indexed[string(k)] = true
		default:
			t.Fatalf("foreign key %x in join state", k)
		}
		return true
	})
	for name, g := range groups {
		if !g.hasHdr || uint64(g.entries) != g.hdr.live {
			t.Fatalf("group %q: header %+v (present=%v) over %d entries", name, g.hdr, g.hasHdr, g.entries)
		}
	}
	if !reflect.DeepEqual(evictable, indexed) {
		t.Fatalf("time index holds %d keys, evictable entries are %d", len(indexed), len(evictable))
	}
	sort.Slice(rows, func(a, b int) bool {
		x, y := rows[a], rows[b]
		if x.side != y.side {
			return x.side < y.side
		} else if x.key != y.key {
			return x.key < y.key
		} else if x.bucket != y.bucket {
			return x.bucket < y.bucket
		}
		return x.idx < y.idx
	})
	out := make([]bufferedRow, len(rows))
	for i, r := range rows {
		out[i] = r.bufferedRow
	}
	return out
}

func rowStrings(rows []sql.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// bandResidual is |l.ts - r.ts| ≤ 4 s over (key, ts, id) rows of both sides,
// NULL-safe like a bound expression.
func bandResidual(r sql.Row) sql.Value {
	l, lok := r[1].(int64)
	rt, rok := r[4].(int64)
	if !lok || !rok {
		return nil
	}
	return l-rt <= 4*sec && rt-l <= 4*sec
}

// testBand is the band the planner derives from bandResidual.
var testBand = TimeBand{Lo: -4 * sec, Hi: 4 * sec}

// inBucketOrder reorders the reference's matched rows — for each arriving row,
// the other side's rows in arrival order — into the order a probe of a
// bucketed layout finds them: bucket by bucket, arrival order within one.
// rightArrived holds the ids of this epoch's right rows: a pair with one of
// them was emitted when that row arrived, any other when its left row did.
func inBucketOrder(rows []sql.Row, width int64, rightArrived map[sql.Value]bool) []sql.Row {
	arriving := func(r sql.Row) (side int, id sql.Value, otherTs sql.Value) {
		if rightArrived[r[5]] {
			return 1, r[5], r[1]
		}
		return 0, r[2], r[4]
	}
	out := append([]sql.Row(nil), rows...)
	for from := 0; from < len(out); {
		side, id, _ := arriving(out[from])
		to := from + 1
		for ; to < len(out); to++ {
			if s, i, _ := arriving(out[to]); s != side || i != id {
				break
			}
		}
		run := out[from:to]
		sort.SliceStable(run, func(a, b int) bool {
			_, _, x := arriving(run[a])
			_, _, y := arriving(run[b])
			xt, _ := x.(int64)
			yt, _ := y.(int64)
			if x == nil {
				xt = -1
			}
			if y == nil {
				yt = -1
			}
			return testBucket(width, xt) < testBucket(width, yt)
		})
		from = to
	}
	return out
}

// TestJoinDifferentialAgainstListLayout replays random two-sided streams —
// skewed and NULL keys, out-of-order and late rows, NULL event times, empty and
// lopsided epochs, store reloads — through the indexed layout and the
// list-valued reference, with no residual, with a time-band residual the
// operator knows nothing about (one bucket: PR 12's layout), and with that
// residual and the band the planner derives from it (time buckets, windowed
// decode, the integer pre-check). The reference never sees the band and shares
// no bucket code. Matched rows must agree in order — with the band, the
// reference's order taken per arriving row into (bucket, idx) order, which is
// what makes the order defined and the same at every budget — eviction-time
// rows as a per-epoch multiset (the reference emits them in map order), and
// the live buffered rows, in per-key order, after every epoch.
func TestJoinDifferentialAgainstListLayout(t *testing.T) {
	for _, typ := range []logical.JoinType{logical.InnerJoin, logical.LeftOuterJoin, logical.RightOuterJoin} {
		for _, variant := range []string{"equi", "residual", "band"} {
			for _, budget := range joinBudgets {
				for seed := int64(1); seed <= 4; seed++ {
					name := fmt.Sprintf("%v/%s/%s/seed%d", typ, variant, budget.name, seed)
					t.Run(name, func(t *testing.T) {
						rng := rand.New(rand.NewSource(seed))
						j := &StreamStreamJoin{OpName: "join", Type: typ, LeftArity: 3, RightArity: 3,
							LeftEventIdx: 1, RightEventIdx: 1}
						if variant != "equi" {
							j.Residual = bandResidual
						}
						if seed == 4 { // one side without a watermark: its rows are never evicted
							if typ == logical.RightOuterJoin {
								j.LeftEventIdx = -1
							} else {
								j.RightEventIdx = -1
							}
						}
						if variant == "band" && j.LeftEventIdx >= 0 && j.RightEventIdx >= 0 {
							j.Band = &testBand // as compileStreamStreamJoin would: both columns watermarked
						}
						width := j.bucketWidth()
						if (width == 8*sec) != (j.Band != nil) {
							t.Fatalf("bucket width %d with band %v", width, j.Band)
						}
						prov, store := joinStore(t, budget.bytes)
						_, ref := joinStore(t, 0)
						var clock, watermark int64 = 100 * sec, 0
						nextID := int64(0)
						var matchedRows, evictionRows, peakLive, lateRows int
						gen := func(n int, eventIdx int) []sql.Row {
							rows := make([]sql.Row, n)
							for i := range rows {
								var key sql.Value = fmt.Sprintf("k%d", int(rng.ExpFloat64()*2)) // k0 is hot
								if rng.Intn(12) == 0 {
									key = nil
								}
								// Out of order within a key, and on a half-second grid, so
								// that pairs land exactly on the band's ends and rows
								// exactly on bucket boundaries.
								ts := (clock + rng.Int63n(6*sec) - 3*sec) / (sec / 2) * (sec / 2)
								if rng.Intn(15) == 0 {
									ts -= 30 * sec // late: behind any watermark
									lateRows++
								}
								clock += sec / 2
								nextID++
								shuffleTs, rowTs := ts, sql.Value(ts)
								if eventIdx < 0 {
									shuffleTs = -1
								} else if rng.Intn(20) == 0 { // NULL event time: never evicted, later rows of its key are
									shuffleTs, rowTs = -1, nil
								}
								rows[i] = joinRow([]sql.Value{key}, shuffleTs, sql.Row{key, rowTs, nextID})
							}
							return rows
						}
						for epoch := int64(0); epoch < 40; epoch++ {
							sizes := [2]int{rng.Intn(40), rng.Intn(40)}
							if rng.Intn(6) == 0 {
								sizes[rng.Intn(2)] = 0
							}
							inputs := [][]sql.Row{gen(sizes[0], j.LeftEventIdx), gen(sizes[1], j.RightEventIdx)}
							ctx := &EpochContext{Epoch: epoch, Watermark: watermark, Mode: logical.Append}
							got, err := j.Process(ctx, store, inputs)
							if err != nil {
								t.Fatalf("epoch %d: %v", epoch, err)
							}
							want, evictedFrom, err := oracleJoinProcess(j, ctx, ref, inputs)
							if err != nil {
								t.Fatalf("epoch %d: oracle: %v", epoch, err)
							}
							if len(got) != len(want) {
								t.Fatalf("epoch %d: %d rows, reference %d", epoch, len(got), len(want))
							}
							rightArrived := map[sql.Value]bool{}
							for _, sr := range inputs[1] {
								_, _, row, err := joinRowOf(sr)
								if err != nil {
									t.Fatal(err)
								}
								rightArrived[row[len(row)-1]] = true
							}
							g, w := rowStrings(got), rowStrings(inBucketOrder(want[:evictedFrom], width, rightArrived))
							w = append(w, rowStrings(want[evictedFrom:])...)
							matchedRows, evictionRows = matchedRows+evictedFrom, evictionRows+len(want)-evictedFrom
							if !reflect.DeepEqual(g[:evictedFrom], w[:evictedFrom]) {
								t.Fatalf("epoch %d: matched rows differ\n got %v\nwant %v", epoch, g[:evictedFrom], w[:evictedFrom])
							}
							sort.Strings(g[evictedFrom:])
							sort.Strings(w[evictedFrom:])
							if !reflect.DeepEqual(g, w) {
								t.Fatalf("epoch %d: eviction-time rows differ\n got %v\nwant %v", epoch, g[evictedFrom:], w[evictedFrom:])
							}
							if err := store.Commit(epoch); err != nil {
								t.Fatal(err)
							}
							if err := ref.Commit(epoch); err != nil {
								t.Fatal(err)
							}
							if rng.Intn(5) == 0 { // recovery: rebuild the store from its files
								prov.Evict(store.ID())
								if store, err = prov.Open(store.ID(), epoch); err != nil {
									t.Fatal(err)
								}
							}
							live, refLive := indexedBuffered(t, j, store), oracleBuffered(t, ref, width)
							for i := range refLive {
								if preserved := j.preserves(strings.IndexByte("LR", refLive[i].side)); !preserved {
									refLive[i].matched = false // only read, so only kept, on the preserved side
								}
							}
							if !reflect.DeepEqual(live, refLive) {
								t.Fatalf("epoch %d: buffered rows differ\n got %v\nwant %v", epoch, live, refLive)
							}
							if len(live) == 0 && store.NumKeys() != 1 {
								t.Fatalf("epoch %d: nothing buffered, yet %d keys beside the meta key", epoch, store.NumKeys()-1)
							}
							peakLive = max(peakLive, len(live))
							if rng.Intn(3) > 0 {
								watermark = max(watermark, clock-10*sec)
							}
						}
						// The stream must have exercised what the comparison is about.
						if matchedRows == 0 || lateRows == 0 || peakLive < 20 || (typ != logical.InnerJoin) != (evictionRows > 0) {
							t.Fatalf("weak run: %d matched, %d at eviction, %d late, peak %d buffered",
								matchedRows, evictionRows, lateRows, peakLive)
						}
					})
				}
			}
		}
	}
}

// TestJoinHotKeyStaysLinear appends N and 4N rows per side, every row of a
// side on one join key (a different one per side, so the pair evaluations
// inherent to any join are zero and what remains is state maintenance). With
// one list per join key each append rewrote the whole list: bytes written
// and state read per row both grew with N. Per-row entries keep both flat.
// Every measure is a count — delta-log bytes, SSTable blocks looked up (the
// store's maintenance is synchronous here, so the same appends look up the
// same blocks), and the join's own entriesRead, the buffered entries its
// probes fetched: none here, an append reads nothing its key has buffered —
// not a clock: a wall-time ratio failed now and then beside a busy neighbour
// on two CPUs.
func TestJoinHotKeyStaysLinear(t *testing.T) {
	const perEpoch = 250
	run := func(n int) (bytesPerRow, blocksPerRow float64) {
		j := &StreamStreamJoin{OpName: "join", Type: logical.InnerJoin, LeftArity: 2, RightArity: 2,
			LeftEventIdx: 1, RightEventIdx: 1}
		prov, store := joinStore(t, spillBudget)
		for epoch := 0; epoch*perEpoch < n; epoch++ {
			var inputs [2][]sql.Row
			for s, key := range []sql.Value{"left-hot", "right-hot"} {
				for i := 0; i < perEpoch; i++ {
					ts := int64(epoch*perEpoch+i+1) * sec
					inputs[s] = append(inputs[s], joinRow([]sql.Value{key}, ts, sql.Row{key, ts}))
				}
			}
			// A watermark that never reaches a row: eviction runs and finds nothing.
			ctx := &EpochContext{Epoch: int64(epoch), Watermark: 1, Mode: logical.Append}
			if _, err := j.Process(ctx, store, inputs[:]); err != nil {
				t.Fatal(err)
			}
			if err := store.Commit(int64(epoch)); err != nil {
				t.Fatal(err)
			}
		}
		deltas, err := filepath.Glob(filepath.Join(prov.Dir(), "state", "join", "0", "*.delta"))
		if err != nil || len(deltas) == 0 {
			t.Fatalf("no delta log found: %v", err)
		}
		var total int64
		for _, path := range deltas {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
		if read := j.entriesRead.Load(); read != 0 {
			t.Errorf("N=%d: appending %d rows fetched %d buffered entries; no row here has a partner to probe for", n, 2*n, read)
		}
		st := prov.Stats()
		if st.Flushes == 0 {
			t.Fatalf("N=%d never spilled to an SSTable: the block count measures nothing", n)
		}
		return float64(total) / float64(2*n), float64(st.BlockCacheHits+st.BlockCacheMisses) / float64(2*n)
	}
	smallBytes, smallBlocks := run(2000)
	largeBytes, largeBlocks := run(8000)
	t.Logf("N=2000: %.0f B/row, %.3f blocks/row; N=8000: %.0f B/row, %.3f blocks/row", smallBytes, smallBlocks, largeBytes, largeBlocks)
	if largeBytes > 1.5*smallBytes {
		t.Errorf("delta-log bytes per row grew %.2f× from N to 4N", largeBytes/smallBytes)
	}
	if largeBlocks > 1.5*smallBlocks {
		t.Errorf("SSTable blocks read per row grew %.2f× from N to 4N", largeBlocks/smallBlocks)
	}
}

// TestJoinBucketZeroAcrossEpochs: rows with a NULL or a negative event time
// live in bucket 0 of a banded join, which no watermark reaches, and a
// negative time still matches inside the band. A side's bucket-0 rows
// arrive in an epoch before the other side's — left first, then right first
// — and the pairs, the padded rows and the buffered rows must be the
// reference's after every epoch, inner and left-outer, at both budgets, with
// a reload in between: a probe that skipped bucket 0 of a side that holds it
// would lose the cross-epoch pairs.
func TestJoinBucketZeroAcrossEpochs(t *testing.T) {
	type r struct {
		key string
		ts  int64 // -1: NULL
		id  int64
	}
	null := int64(-1)
	schedules := map[string][][2][]r{ // per epoch, left and right rows
		"left first": {
			{{{"k", -3 * sec, 1}, {"k", null, 2}, {"k", 5 * sec, 3}, {"j", -20 * sec, 4}}, nil},
			{nil, {{"k", -1 * sec, 10}, {"k", null, 11}, {"k", 6 * sec, 12}, {"j", -15 * sec, 13}}},
			{{{"k", -4 * sec, 5}}, {{"k", -2 * sec, 14}}},
			{nil, {{"j", -11 * sec, 15}, {"k", 20 * sec, 16}}},
		},
		"right first": {
			{nil, {{"k", -1 * sec, 10}, {"k", null, 11}, {"k", 6 * sec, 12}, {"j", -15 * sec, 13}}},
			{{{"k", -3 * sec, 1}, {"k", null, 2}, {"k", 5 * sec, 3}, {"j", -20 * sec, 4}}, nil},
			{{{"k", -9 * sec, 5}}, {{"k", -2 * sec, 14}}},
			{{{"j", -16 * sec, 6}, {"k", 20 * sec, 7}}, nil},
		},
	}
	for name, epochs := range schedules {
		for _, typ := range []logical.JoinType{logical.InnerJoin, logical.LeftOuterJoin} {
			for _, budget := range joinBudgets {
				t.Run(fmt.Sprintf("%s/%v/%s", name, typ, budget.name), func(t *testing.T) {
					band := TimeBand{Lo: 0, Hi: 10 * sec}
					j := &StreamStreamJoin{OpName: "join", Type: typ, LeftArity: 3, RightArity: 3,
						LeftEventIdx: 1, RightEventIdx: 1, Band: &band,
						Residual: func(row sql.Row) sql.Value {
							l, lok := row[1].(int64)
							r, rok := row[4].(int64)
							if !lok || !rok {
								return nil
							}
							return r-l >= band.Lo && r-l <= band.Hi
						}}
					prov, store := joinStore(t, budget.bytes)
					_, ref := joinStore(t, 0)
					negativePairs := 0
					for epoch, sides := range epochs {
						var inputs [2][]sql.Row
						for s, rows := range sides {
							for _, x := range rows {
								ts, row := x.ts, sql.Row{x.key, sql.Value(x.ts), x.id}
								if ts == null {
									row[1] = nil
								}
								inputs[s] = append(inputs[s], joinRow([]sql.Value{x.key}, ts, row))
							}
						}
						ctx := &EpochContext{Epoch: int64(epoch), Watermark: 8 * sec * int64(epoch), Mode: logical.Append}
						got, err := j.Process(ctx, store, inputs[:])
						if err != nil {
							t.Fatalf("epoch %d: %v", epoch, err)
						}
						want, _, err := oracleJoinProcess(j, ctx, ref, inputs[:])
						if err != nil {
							t.Fatalf("epoch %d: oracle: %v", epoch, err)
						}
						g, w := rowStrings(got), rowStrings(want)
						sort.Strings(g)
						sort.Strings(w)
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("epoch %d: emitted %v, the reference %v", epoch, g, w)
						}
						for _, row := range got {
							if l, ok := row[1].(int64); ok && l < 0 && row[4] != nil {
								negativePairs++
							}
						}
						if err := errors.Join(store.Commit(int64(epoch)), ref.Commit(int64(epoch))); err != nil {
							t.Fatal(err)
						}
						if epoch == 1 {
							prov.Evict(store.ID())
							if store, err = prov.Open(store.ID(), int64(epoch)); err != nil {
								t.Fatal(err)
							}
						}
						live, refLive := indexedBuffered(t, j, store), oracleBuffered(t, ref, j.bucketWidth())
						for i := range refLive {
							refLive[i].matched = refLive[i].matched && j.preserves(strings.IndexByte("LR", refLive[i].side))
						}
						sort.Slice(live, func(a, b int) bool { return fmt.Sprint(live[a]) < fmt.Sprint(live[b]) })
						sort.Slice(refLive, func(a, b int) bool { return fmt.Sprint(refLive[a]) < fmt.Sprint(refLive[b]) })
						if !reflect.DeepEqual(live, refLive) {
							t.Fatalf("epoch %d: buffered rows differ\n got %v\nwant %v", epoch, live, refLive)
						}
					}
					if negativePairs < 4 {
						t.Fatalf("only %d pairs of negative event times: the schedule does not reach bucket 0 across epochs", negativePairs)
					}
				})
			}
		}
	}
}

// TestJoinProbeReadsFollowLiveRows: a row with no event time on a watermarked
// side is never evicted, so it holds its key's range open while every row
// appended after it comes and goes. A probe reads the whole range, so the
// range must stay within a constant factor of the live rows — not grow with
// the rows ever appended — and renumbering them must change nothing the
// reference sees.
func TestJoinProbeReadsFollowLiveRows(t *testing.T) {
	const perEpoch, epochs = 200, 60
	j := &StreamStreamJoin{OpName: "join", Type: logical.RightOuterJoin, LeftArity: 3, RightArity: 3,
		LeftEventIdx: 1, RightEventIdx: 1, Residual: bandResidual}
	_, store := joinStore(t, spillBudget)
	_, ref := joinStore(t, 0)
	hdrKey := new(joinKeyBuf).key(tagHeader, 'R', 0, codec.EncodeValues([]sql.Value{"k"}), 0)
	id := int64(0)
	row := func(ts int64) sql.Row {
		id++
		if ts < 0 {
			return joinRow([]sql.Value{"k"}, -1, sql.Row{"k", nil, id})
		}
		return joinRow([]sql.Value{"k"}, ts, sql.Row{"k", ts, id})
	}
	for epoch := int64(0); epoch < epochs; epoch++ {
		// The watermark passes every row of the epoch before: the right side
		// holds the pinned row and one epoch's rows, whatever the epoch.
		ctx := &EpochContext{Epoch: epoch, Watermark: (epoch*perEpoch + 1) * sec, Mode: logical.Append}
		inputs := [][]sql.Row{{row(epoch * perEpoch * sec)}, nil} // probes the right side, matches its newest rows
		if epoch == 0 {
			inputs[1] = append(inputs[1], row(-1))
		}
		for i := int64(1); i <= perEpoch; i++ {
			inputs[1] = append(inputs[1], row((epoch*perEpoch+i)*sec))
		}
		start := time.Now()
		got, err := j.Process(ctx, store, inputs)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if epoch == 1 || epoch == epochs-1 {
			t.Logf("epoch %d: Process took %v", epoch, time.Since(start))
		}
		want, evictedFrom, err := oracleJoinProcess(j, ctx, ref, inputs)
		if err != nil {
			t.Fatalf("epoch %d: oracle: %v", epoch, err)
		}
		g, w := rowStrings(got), rowStrings(want)
		if len(g) != len(w) || epoch > 0 && (evictedFrom == 0 || evictedFrom == len(w)) {
			t.Fatalf("epoch %d: %d rows, reference %d of which %d matched", epoch, len(g), len(w), evictedFrom)
		}
		sort.Strings(g[evictedFrom:])
		sort.Strings(w[evictedFrom:])
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("epoch %d: rows differ\n got %v\nwant %v", epoch, g, w)
		}
		if err := errors.Join(store.Commit(epoch), ref.Commit(epoch)); err != nil {
			t.Fatal(err)
		}
		if live, refLive := indexedBuffered(t, j, store), oracleBuffered(t, ref, 0); !reflect.DeepEqual(live, refLive) {
			t.Fatalf("epoch %d: buffered rows differ\n got %v\nwant %v", epoch, live, refLive)
		}
		var hdr joinGroup
		if v, _ := store.Get(hdrKey); hdr.decodeHeader(v) != nil || hdr.live != perEpoch+1 {
			t.Fatalf("epoch %d: right header %+v, want %d live", epoch, hdr, perEpoch+1)
		}
		if hdr.hi-hdr.lo > 3*hdr.live {
			t.Fatalf("epoch %d: a probe reads %d indices for %d live rows", epoch, hdr.hi-hdr.lo, hdr.live)
		}
	}
}

// copyJoinFixture copies a checkpoint an earlier commit wrote (testdata/<name>;
// join_fixture_gen_test.go, join_evict_fixture_gen_test.go) into a scratch
// directory and opens its last version, epochs-1.
func copyJoinFixture(t *testing.T, name string, epochs int64) *state.Store {
	t.Helper()
	dst := t.TempDir()
	rel := filepath.Join("state", "join", "0")
	if err := os.MkdirAll(filepath.Join(dst, rel), 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join("testdata", name, rel))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join("testdata", name, rel, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, rel, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	prov := state.NewProvider(dst)
	t.Cleanup(prov.Close)
	store, err := prov.Open(state.ID{Operator: "join"}, epochs-1)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestJoinRejectsOlderLayout: a checkpoint written by the list-valued layout,
// by the layout before time buckets (the fixture the parent commit wrote), or
// under another bucket width must fail loudly and by name, not read as "no
// rows buffered" — and one written under the same width must read back.
func TestJoinRejectsOlderLayout(t *testing.T) {
	j := &StreamStreamJoin{OpName: "join", Type: logical.InnerJoin, LeftArity: 1, RightArity: 1,
		LeftEventIdx: -1, RightEventIdx: -1}
	_, store := joinStore(t, 0)
	left := []sql.Row{joinRow([]sql.Value{"k"}, -1, sql.Row{"k"})}
	if _, _, err := oracleJoinProcess(j, &EpochContext{}, store, [][]sql.Row{left, nil}); err != nil {
		t.Fatal(err)
	}
	if err := store.Commit(0); err != nil {
		t.Fatal(err)
	}
	_, err := j.Process(&EpochContext{Epoch: 1}, store, [][]sql.Row{nil, left})
	if !errors.Is(err, errJoinLayout) {
		t.Fatalf("err = %v, want the older-layout error", err)
	}

	// The fixture buffers rows on both sides of keys "a" and "b": an operator
	// that took it for its own would find no header under its keys and emit
	// nothing for a row that has matches.
	for _, band := range []*TimeBand{nil, {Lo: 0, Hi: 10 * sec}} {
		fixture, op := copyJoinFixture(t, "pr12-join-state", joinFixtureEpochs), joinFixtureOp()
		if n := fixture.NumKeys(); n < 10 {
			t.Fatalf("fixture holds %d keys", n)
		}
		op.Band = band
		_, err := op.Process(&EpochContext{Epoch: joinFixtureEpochs}, fixture, joinFixtureInputs(joinFixtureEpochs))
		if !errors.Is(err, errJoinLayout) {
			t.Fatalf("band %v on the pre-bucket fixture: err = %v, want the older-layout error", band, err)
		}
	}

	// A store written under one width: read back under it, refused under others.
	wide, narrow := joinFixtureOp(), joinFixtureOp()
	wide.Band, narrow.Band = &TimeBand{Lo: 0, Hi: 20 * sec}, &TimeBand{Lo: 0, Hi: 5 * sec}
	_, store = joinStore(t, spillBudget)
	for e := int64(0); e < joinFixtureEpochs; e++ {
		if _, err := wide.Process(&EpochContext{Epoch: e}, store, joinFixtureInputs(e)); err != nil {
			t.Fatal(err)
		}
		if err := store.Commit(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, other := range []*StreamStreamJoin{narrow, joinFixtureOp()} {
		_, err := other.Process(&EpochContext{Epoch: joinFixtureEpochs}, store, joinFixtureInputs(joinFixtureEpochs))
		if !errors.Is(err, errJoinBucket) {
			t.Fatalf("width %d on a store of width %d: err = %v, want the bucket-width error", other.bucketWidth(), wide.bucketWidth(), err)
		}
		store.Abort()
	}
	// A right row is 1 s behind the left row of its slot, outside [0, 20 s], and
	// 19 s ahead of its key's left row before that, inside.
	out, err := wide.Process(&EpochContext{Epoch: joinFixtureEpochs}, store, joinFixtureInputs(joinFixtureEpochs))
	if err != nil || len(out) == 0 {
		t.Fatalf("same width: %d rows, err = %v", len(out), err)
	}
}

// FuzzJoinState fuzzes the decoders that read join state back: header values,
// entry values, the meta value and time-index keys (the bucket in header and
// entry keys is only ever rendered, from an event time and the width the meta
// value vouches for). Accepted input must survive a re-encode round trip;
// corrupt input must be an error, never a panic; and a key or meta value of an
// older layout must be named as such. The entry seeds are written through the
// map side's cell rendering — boxed and columnar — and must be the bytes the
// layout defines, which parent commits wrote.
func FuzzJoinState(f *testing.F) {
	f.Add((&joinGroup{lo: 1, hi: 9, live: 3}).appendHeader(nil))
	f.Add(parentEntry(sql.Row{"a", int64(7), nil, 1.5}, 42, true))
	f.Add(parentEntry(sql.Row{}, -1, false))
	f.Add(new(joinKeyBuf).key(tagTime, 'L', 1_600_000_000_000_000, codec.EncodeValues([]sql.Value{int64(12)}), 77))
	f.Add(new(joinKeyBuf).key(tagTime, 'R', 0, nil, 0))
	f.Add(new(joinKeyBuf).key(tagEntry, 'L', 160_000_001, []byte("k"), 3))
	f.Add(append([]byte{'L'}, codec.EncodeValues([]sql.Value{"old"})...))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1_600_000_000_000_000), 10_000_000)) // meta: floor, width
	f.Add(binary.AppendUvarint(nil, 1_600_000_000_000_000))                                   // the pre-bucket meta: the floor alone
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}) // an entry claiming a 4-billion-value row
	// An entry whose string length wraps negative as an int (found by this fuzzer).
	f.Add([]byte("0\x01\x04\x05\x97\x97\x97\x97\x97\x97\x97\x97\x97\x01"))
	for _, r := range []struct {
		row sql.Row
		ts  int64
	}{
		{sql.Row{"a", int64(7), nil, 1.5}, 42},
		{sql.Row{int64(-3), "", true}, -1},
		{sql.Row{nil, nil}, 1_600_000_000_000_000},
	} {
		boxed, _ := joinCellOf(joinRow([]sql.Value{r.row[0]}, r.ts, r.row))
		if want := parentEntry(r.row, r.ts, false); !bytes.Equal(boxed.entry, want) {
			f.Fatalf("the boxed cell of %v at %d holds the entry %x, the layout says %x", r.row, r.ts, boxed.entry, want)
		}
		schema := sql.NewSchema()
		for i, v := range r.row {
			typ := sql.TypeNull
			if v != nil {
				typ = sql.TypeOf(v)
			}
			schema.Fields = append(schema.Fields, sql.Field{Name: fmt.Sprintf("c%d", i), Type: typ})
		}
		b, ok := vec.FromRows(schema, []sql.Row{r.row})
		if !ok {
			f.Fatalf("FromRows refused %v", r.row)
		}
		var cells joinCells
		cells.addBatch(&joinShuffle{eventIdx: -1}, b)
		columnar := cells.scatter(1)[0][0][0].(*joinCell)
		if want := parentEntry(r.row, -1, false); !bytes.Equal(columnar.entry, want) {
			f.Fatalf("the columnar cell of %v holds the entry %x, the layout says %x", r.row, columnar.entry, want)
		}
		f.Add(boxed.entry)
		f.Add(withMatched(columnar.entry))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h joinGroup
		if err := h.decodeHeader(data); err == nil {
			var again joinGroup
			if err := again.decodeHeader(h.appendHeader(nil)); err != nil || !reflect.DeepEqual(again, h) {
				t.Fatalf("header %+v re-decoded as %+v (%v)", h, again, err)
			}
			if h.live == 0 || h.live > h.hi-h.lo {
				t.Fatalf("accepted an impossible header %+v", h)
			}
		}
		if row, err := entryRow(data, nil, 0); err == nil {
			ts, rest, err := entryTs(data)
			if err != nil {
				t.Fatalf("entry %x decodes to %v but its ts does not: %v", data, row, err)
			}
			again := parentEntry(row, ts, rest[0] == 1)
			if againRow, err := entryRow(again, nil, 0); err != nil || againRow.String() != row.String() {
				t.Fatalf("entry %v at %d re-decoded as %v (%v)", row, ts, againRow, err)
			}
			if c, _ := joinCellOf(joinRow([]sql.Value{nil}, ts, row)); rest[0] == 0 && !bytes.Equal(c.entry, again) {
				t.Fatalf("the cell of %v at %d holds the entry %x, the layout says %x", row, ts, c.entry, again)
			}
		}
		floor, width, err := decodeJoinMeta(data)
		switch _, n := binary.Uvarint(data); {
		case err == nil:
			again := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(floor)), uint64(width))
			if floor < 0 || width < 0 || !bytes.Equal(again, data) && len(again) == len(data) {
				t.Fatalf("meta %x decoded as floor %d, width %d", data, floor, width)
			}
		case n > 0 && n == len(data):
			if !errors.Is(err, errJoinLayout) {
				t.Fatalf("pre-bucket meta %x: %v", data, err)
			}
		}
		ts, kb, idx, err := parseJoinTimeKey(data)
		switch {
		case err == nil:
			if again := new(joinKeyBuf).key(tagTime, data[1], uint64(ts), kb, idx); !bytes.Equal(again, data) {
				t.Fatalf("time key %x re-encoded as %x", data, again)
			}
		case len(data) > 0 && (data[0] == 'L' || data[0] == 'R'):
			if !errors.Is(err, errJoinLayout) {
				t.Fatalf("list-layout key %x: %v", data, err)
			}
		}
	})
}
