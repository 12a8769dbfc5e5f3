package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"structream/internal/fsx"
)

// The batch API differential: GetBatch must agree with per-key Get across
// every resolution layer — staged puts, staged deletes, committed state in
// the memtable alone ("memory") or the memtable/sealed/SSTable stack
// ("lsm") — including duplicate keys within one batch.

// layeredStore fills a store so that every resolution layer holds something:
// several committed epochs with overwrites and deletes (under the 2 KiB
// budget of forEachBudget's "lsm": sealed memtables and tables, so
// shadowing order matters), then an uncommitted overlay of puts, deletes and
// delete-then-puts. Keys are key(0) … key(layeredKeys-1).
const layeredKeys = 300

func layeredKey(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }

func layeredStore(t *testing.T, p *Provider, rng *rand.Rand) *Store {
	t.Helper()
	s := open(t, p, -1)
	for epoch := 0; epoch < 6; epoch++ {
		for i := 0; i < 120; i++ {
			k := rng.Intn(layeredKeys)
			if rng.Intn(5) == 0 {
				s.Remove(layeredKey(k))
			} else {
				s.Put(layeredKey(k), []byte(fmt.Sprintf("v%d-%d", epoch, k)))
			}
		}
		if err := s.Commit(int64(epoch)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		k := rng.Intn(layeredKeys)
		switch rng.Intn(3) {
		case 0:
			s.Put(layeredKey(k), []byte(fmt.Sprintf("staged-%d", k)))
		case 1:
			s.Remove(layeredKey(k))
		default:
			s.Remove(layeredKey(k))
			s.Put(layeredKey(k), []byte(fmt.Sprintf("flip-%d", k)))
		}
	}
	return s
}

func TestGetBatchMatchesGet(t *testing.T) {
	forEachBudget(t, func(t *testing.T, mk func(string) *Provider) {
		p := mk(t.TempDir())
		defer p.Close()
		rng := rand.New(rand.NewSource(99))
		s := layeredStore(t, p, rng)
		key, keys := layeredKey, layeredKeys

		// A batch with every key plus duplicates and never-written keys.
		var batch [][]byte
		for i := 0; i < keys; i++ {
			batch = append(batch, key(i))
		}
		for i := 0; i < 50; i++ {
			batch = append(batch, key(rng.Intn(keys)))
		}
		batch = append(batch, []byte("never-written"), []byte(""))

		vals, oks := s.GetBatch(batch)
		if len(vals) != len(batch) || len(oks) != len(batch) {
			t.Fatalf("GetBatch returned %d/%d results for %d keys", len(vals), len(oks), len(batch))
		}
		for i, k := range batch {
			wantV, wantOK := s.Get(k)
			if oks[i] != wantOK || !bytes.Equal(vals[i], wantV) {
				t.Fatalf("key %q: GetBatch = (%q, %v), Get = (%q, %v)", k, vals[i], oks[i], wantV, wantOK)
			}
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRangeMatchesIterate: Range is Iterate restricted to [from, to) and put
// in key order, over the same committed-plus-staged view, and stops when told.
func TestRangeMatchesIterate(t *testing.T) {
	forEachBudget(t, func(t *testing.T, mk func(string) *Provider) {
		p := mk(t.TempDir())
		defer p.Close()
		s := layeredStore(t, p, rand.New(rand.NewSource(7)))
		live := map[string]string{}
		s.Iterate(func(k, v []byte) bool {
			live[string(k)] = string(v)
			return true
		})
		bounds := [][2][]byte{
			{nil, nil}, {layeredKey(40), layeredKey(220)}, {nil, layeredKey(100)}, {layeredKey(250), nil},
			{layeredKey(120), layeredKey(120)}, {layeredKey(200), layeredKey(100)}, {[]byte("key-0100x"), []byte("zzz")},
		}
		for _, b := range bounds {
			from, to := b[0], b[1]
			var want []string
			for k := range live {
				if (from == nil || k >= string(from)) && (to == nil || k < string(to)) {
					want = append(want, k)
				}
			}
			sort.Strings(want)
			var got []string
			s.Range(from, to, func(k, v []byte) bool {
				if string(v) != live[string(k)] {
					t.Fatalf("Range[%q,%q) key %q = %q, Iterate says %q", from, to, k, v, live[string(k)])
				}
				got = append(got, string(k))
				return true
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Range[%q,%q) = %d keys %v, want %d %v", from, to, len(got), got, len(want), want)
			}
			if len(want) > 3 {
				n := 0
				s.Range(from, to, func(k, v []byte) bool { n++; return n < 3 })
				if n != 3 {
					t.Fatalf("Range[%q,%q) visited %d keys after being stopped at 3", from, to, n)
				}
			}
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKnownWritesFeedKeyCount: what PutNew, PutLive and RemoveLive say of
// committed state stands in for the read the store would otherwise make to
// keep its key count; a read says nothing and leaves nothing behind.
func TestKnownWritesFeedKeyCount(t *testing.T) {
	forEachBudget(t, func(t *testing.T, mk func(string) *Provider) {
		p := mk(t.TempDir())
		defer p.Close()
		s := open(t, p, -1)
		s.Put([]byte("old"), []byte("1"))
		s.Put([]byte("gone"), []byte("1"))
		if err := s.Commit(0); err != nil {
			t.Fatal(err)
		}
		s.PutNew([]byte("fresh"), []byte("2"))
		s.RemoveLive([]byte("gone"))
		if _, ok := s.Get([]byte("old")); !ok {
			t.Fatal("committed key not found")
		}
		s.PutLive([]byte("old"), []byte("1b")) // the write says what the Get found
		if n := s.NumKeys(); n != 2 {
			t.Fatalf("NumKeys = %d with one key added, one removed and one rewritten, want 2", n)
		}
		if err := s.Commit(1); err != nil {
			t.Fatal(err)
		}
		if n := s.NumKeys(); n != 2 {
			t.Fatalf("NumKeys after commit = %d, want 2", n)
		}
		// A wrong claim can skew the count, never what the store holds or
		// shows: a key deleted as live that committed state does not have is
		// not iterated, and one put as new over a live key is iterated once.
		s.RemoveLive([]byte("ghost"))
		s.PutNew([]byte("fresh"), []byte("3"))
		for name, visit := range map[string]func(func(k, v []byte) bool){
			"Iterate": s.Iterate,
			"Range":   func(fn func(k, v []byte) bool) { s.Range(nil, nil, fn) },
		} {
			var keys []string
			visit(func(k, v []byte) bool { keys = append(keys, string(k)+"="+string(v)); return true })
			sort.Strings(keys)
			if got := fmt.Sprint(keys); got != "[fresh=3 old=1b]" {
				t.Fatalf("%s under wrong claims = %s, want [fresh=3 old=1b]", name, got)
			}
		}
	})
}

// TestStagingLooksUpOncePerKey: a write that carries what its caller knows
// of the key costs one lookup of the staging table, and a read costs none —
// the join's two keys in and two keys out per buffered row used to cost two
// each, and a read-modify-write's read one more. What the writes say after a
// read keeps the key count right, whichever of found and not found, put and
// remove they are.
func TestStagingLooksUpOncePerKey(t *testing.T) {
	p := NewProviderFS(fsx.NoSync(), t.TempDir())
	defer p.Close()
	s := open(t, p, -1)
	const n = 1000
	key := func(i int) []byte { return []byte(fmt.Sprintf("eL\x05key-%04d", i)) }
	before := s.probes
	for i := 0; i < n; i++ {
		s.PutNew(key(i), []byte("v"))
	}
	if got := s.probes - before; got != n {
		t.Fatalf("%d PutNew calls probed the staging table %d times", n, got)
	}
	if err := s.Commit(0); err != nil {
		t.Fatal(err)
	}
	before = s.probes
	for i := 0; i < n; i++ {
		s.RemoveLive(key(i))
	}
	if got := s.probes - before; got != n {
		t.Fatalf("%d RemoveLive calls probed the staging table %d times", n, got)
	}
	if got := s.NumKeys(); got != 0 {
		t.Fatalf("NumKeys = %d after removing every key, want 0", got)
	}

	forEachBudget(t, func(t *testing.T, mk func(string) *Provider) {
		p := mk(t.TempDir())
		defer p.Close()
		s := open(t, p, -1)
		for i := 0; i < n; i += 2 { // the even keys are committed
			s.Put(key(i), []byte("v"))
		}
		if err := s.Commit(0); err != nil {
			t.Fatal(err)
		}
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = key(i)
		}
		before := s.probes
		_, oks := s.GetBatch(keys)
		if got := s.probes - before; got != 0 {
			t.Fatalf("a GetBatch of %d keys probed the staging table %d times", n, got)
		}
		// Keys 4k and 4k+1 are put, 4k+2 and 4k+3 removed: each of found and
		// not found, put and remove, a quarter of the keys.
		live := n / 2
		for i, k := range keys {
			switch put := i%4 < 2; {
			case put && oks[i]:
				s.PutLive(k, []byte("w"))
			case put:
				s.PutNew(k, []byte("w"))
				live++
			case oks[i]:
				s.RemoveLive(k)
				live--
			default:
				s.Remove(k) // nothing to say of a key that is not there: Commit looks
			}
		}
		if got := s.probes - before; got != n {
			t.Fatalf("a GetBatch of %d keys and a write of each probed the staging table %d times, want %d", n, got, n)
		}
		if got := s.NumKeys(); got != live {
			t.Fatalf("NumKeys before commit = %d, want %d", got, live)
		}
		if err := s.Commit(1); err != nil {
			t.Fatal(err)
		}
		iterated := 0
		s.Iterate(func(_, _ []byte) bool { iterated++; return true })
		if got := s.NumKeys(); got != live || iterated != live {
			t.Fatalf("NumKeys after commit = %d and %d keys iterated, want %d", got, iterated, live)
		}
	})
}

// TestApplyBatchStagesMerges pins ApplyBatch's contract: merge sees the
// pre-batch value, non-nil results stage puts, nil results stage deletes.
func TestApplyBatchStagesMerges(t *testing.T) {
	forEachBudget(t, func(t *testing.T, mk func(string) *Provider) {
		p := mk(t.TempDir())
		defer p.Close()
		s := open(t, p, -1)
		s.Put([]byte("a"), []byte("1"))
		s.Put([]byte("dead"), []byte("x"))
		if err := s.Commit(0); err != nil {
			t.Fatal(err)
		}
		keys := [][]byte{[]byte("a"), []byte("new"), []byte("dead")}
		s.ApplyBatch(keys, func(i int, existing []byte, ok bool) []byte {
			switch string(keys[i]) {
			case "a":
				if !ok || string(existing) != "1" {
					t.Fatalf("merge(a) saw (%q, %v)", existing, ok)
				}
				return append(existing, '+')
			case "new":
				if ok {
					t.Fatalf("merge(new) unexpectedly found %q", existing)
				}
				return []byte("fresh")
			default:
				return nil // delete
			}
		})
		if err := s.Commit(1); err != nil {
			t.Fatal(err)
		}
		if v, ok := s.Get([]byte("a")); !ok || string(v) != "1+" {
			t.Fatalf("a = (%q, %v), want 1+", v, ok)
		}
		if v, ok := s.Get([]byte("new")); !ok || string(v) != "fresh" {
			t.Fatalf("new = (%q, %v), want fresh", v, ok)
		}
		if _, ok := s.Get([]byte("dead")); ok {
			t.Fatal("dead survived ApplyBatch delete")
		}
	})
}
