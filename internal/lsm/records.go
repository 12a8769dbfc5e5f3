// Package lsm is an embedded log-structured merge tree built on the fsx
// durability layer — the storage engine behind the state store's "lsm"
// backend (§6.1). State no longer has to fit in one Go map: committed
// mutations land in per-epoch delta logs and a sorted in-memory memtable;
// when the memtable exceeds its threshold it is sealed into an immutable
// SSTable with a block-level layout, a per-table bloom filter, and
// block-granular reads through a shared LRU cache; size-tiered compaction
// folds similar-sized tables together; and a tiny CRC-framed manifest per
// committed version pins exactly which tables and which delta-log suffix
// reconstruct that version — which is what keeps epoch rollback (§7.2)
// working on top of a compacting store.
package lsm

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"structream/internal/fsx"
)

// Record batch framing, shared with the memory state backend's delta and
// snapshot files: op byte (1=put, 2=del), uvarint key length, key bytes,
// and for puts a uvarint value length plus value bytes.
const (
	// OpPut marks a key/value insertion record.
	OpPut byte = 1
	// OpDel marks a deletion record.
	OpDel byte = 2
)

// Entry is one record of a commit batch: a put, or a tombstone when Tomb is
// set. Known says the committer has read the key's committed state at the
// version the batch applies to, and Live is what it saw there; a backend may
// use the pair to skip a lookup and may ignore it. A wrong pair can skew a
// live-key count, never stored data.
type Entry struct {
	Key         string
	Value       []byte
	Tomb        bool
	Known, Live bool
}

// keyChunkBytes is the size of the chunks key strings are cut from.
const keyChunkBytes = 64 << 10

// CutKey copies key to the end of chunk and returns the copy as a string cut
// from it: one allocation per keyChunkBytes of keys instead of one per key.
// A chunk is only ever appended to, so the strings cut from it are as
// immutable as any; a full one is let go (chunk starts the next) and stays
// reachable for as long as one of its keys does — which is why whoever keeps
// a key past the structure it was cut for copies it.
func CutKey(chunk *strings.Builder, key []byte) string {
	if chunk.Cap()-chunk.Len() < len(key) {
		*chunk = strings.Builder{}
		chunk.Grow(max(keyChunkBytes, len(key)))
	}
	at := chunk.Len()
	chunk.Write(key)
	return chunk.String()[at:]
}

// Batch is one version's mutations in ascending key order, no key twice: the
// epoch's delta, ordered once (SortBatch) and read in that order by the delta
// encoder, the memtable and the memory backend alike.
type Batch []Entry

// SortBatch orders b ascending by key, in place; its keys must be distinct.
// It is the one key sort of the state store and the tree. State keys share
// long prefixes (operator tag, side, bucket), so the sort runs over a
// 16-byte handle per entry — the key's prefix (keyPrefix) and the entry's
// position — and touches the strings only where two prefixes tie. A batch of
// radixMin entries or more is ordered by a least-significant-digit radix sort
// on the prefix, a byte per pass, with the passes skipped whose byte every
// prefix shares; then each run of equal prefixes is sorted by key. The
// handles are scratch: a caller that sorts every epoch passes the slice the
// last call returned and the sort allocates nothing; nil is always valid.
func SortBatch(b Batch, handles [][2]uint64) [][2]uint64 {
	n := len(b)
	if n < 2 {
		return handles
	}
	hs := slices.Grow(handles[:0], 2*n)[:2*n]
	order, spare := hs[:n], hs[n:]
	for i := range b {
		order[i] = [2]uint64{keyPrefix(b[i].Key), uint64(i)}
	}
	byKey := func(x, y [2]uint64) int { return strings.Compare(b[x[1]].Key, b[y[1]].Key) }
	if n < radixMin {
		slices.SortFunc(order, func(x, y [2]uint64) int {
			if x[0] != y[0] {
				if x[0] < y[0] {
					return -1
				}
				return 1
			}
			return byKey(x, y)
		})
	} else {
		var counts [8][256]int
		for _, h := range order {
			for d := range counts {
				counts[d][byte(h[0]>>(8*d))]++
			}
		}
		for d := range counts {
			c := &counts[d]
			if c[byte(order[0][0]>>(8*d))] == n {
				continue // every prefix has this byte: the pass would move nothing
			}
			at := 0
			for k, m := range c {
				c[k], at = at, at+m
			}
			for _, h := range order {
				k := byte(h[0] >> (8 * d))
				spare[c[k]] = h
				c[k]++
			}
			order, spare = spare, order
		}
		for i := 0; i < n; {
			j := i + 1
			for j < n && order[j][0] == order[i][0] {
				j++
			}
			if j-i > 1 {
				slices.SortFunc(order[i:j], byKey)
			}
			i = j
		}
	}
	// Move every entry to its place by walking the permutation's cycles; a
	// handle whose entry has been placed is marked.
	const placed = ^uint64(0)
	for i := range order {
		if order[i][1] == placed {
			continue
		}
		first := b[i]
		for j := i; ; {
			from := int(order[j][1])
			order[j][1] = placed
			if from == i {
				b[j] = first
				break
			}
			b[j] = b[from]
			j = from
		}
	}
	return hs
}

// radixMin is the batch size from which SortBatch radix-sorts: below it a
// comparison sort costs less than clearing and filling the digit counts.
const radixMin = 256

// BatchOf is the map-taking form of a batch: a key in both maps is a delete.
func BatchOf(puts map[string][]byte, dels map[string]bool) Batch {
	b := make(Batch, 0, len(puts)+len(dels))
	for k, v := range puts {
		if !dels[k] {
			b = append(b, Entry{Key: k, Value: v})
		}
	}
	for k := range dels {
		b = append(b, Entry{Key: k, Tomb: true})
	}
	SortBatch(b, nil)
	return b
}

// EncodeBatch renders b as a record batch over dst's storage (dst[:0]; nil
// allocates), sized once with fsx.FooterSize to spare, so that sealing the
// image appends in place and a committer that hands back the last image it
// wrote encodes the next without allocating. The ascending order is part of
// the format: identical logical commits produce byte-identical files,
// whatever order the operator staged them in.
func EncodeBatch(dst []byte, b Batch) []byte {
	size := 0
	for i := range b {
		e := &b[i]
		size += 1 + uvarintLen(len(e.Key)) + len(e.Key)
		if !e.Tomb {
			size += uvarintLen(len(e.Value)) + len(e.Value)
		}
	}
	buf := slices.Grow(dst[:0], size+fsx.FooterSize)
	for i := range b {
		e := &b[i]
		if e.Tomb {
			buf = append(buf, OpDel)
		} else {
			buf = append(buf, OpPut)
		}
		buf = binary.AppendUvarint(buf, uint64(len(e.Key)))
		buf = append(buf, e.Key...)
		if !e.Tomb {
			buf = binary.AppendUvarint(buf, uint64(len(e.Value)))
			buf = append(buf, e.Value...)
		}
	}
	return buf
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for n.
func uvarintLen(n int) int {
	return (bits.Len64(uint64(n)|1) + 6) / 7
}

// DecodeBatch parses a record batch into the form EncodeBatch was given. It
// never panics on corrupt input: any framing violation stops decoding with an
// error naming the offset. The order on disk is checked, not trusted: records
// that are not strictly ascending — corruption behind a valid checksum, or a
// hand-made file — are read as a log, the last record of a key winning, and
// sorted. Values are copies; the batch does not alias data.
func DecodeBatch(data []byte) (Batch, error) {
	var b Batch
	ascending := true
	pos := 0
	for pos < len(data) {
		op := data[pos]
		pos++
		klen, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < klen {
			return nil, fmt.Errorf("lsm: corrupt record batch at offset %d: bad key length", pos)
		}
		pos += n
		e := Entry{Key: string(data[pos : pos+int(klen)])}
		pos += int(klen)
		switch op {
		case OpPut:
			vlen, n := binary.Uvarint(data[pos:])
			if n <= 0 || uint64(len(data)-pos-n) < vlen {
				return nil, fmt.Errorf("lsm: corrupt record batch at offset %d: bad value length", pos)
			}
			pos += n
			e.Value = append([]byte(nil), data[pos:pos+int(vlen)]...)
			pos += int(vlen)
		case OpDel:
			e.Tomb = true
		default:
			return nil, fmt.Errorf("lsm: corrupt record batch at offset %d: bad op %d", pos-1-n-int(klen), op)
		}
		ascending = ascending && (len(b) == 0 || b[len(b)-1].Key < e.Key)
		b = append(b, e)
	}
	if ascending {
		return b, nil
	}
	at := make(map[string]int, len(b))
	kept := b[:0]
	for _, e := range b {
		if i, ok := at[e.Key]; ok {
			kept[i] = e
			continue
		}
		at[e.Key] = len(kept)
		kept = append(kept, e)
	}
	SortBatch(kept, nil)
	return kept, nil
}
