package shard

import (
	"structream/internal/sql"
	"structream/internal/sql/codec"
	"structream/internal/sql/vec"
)

// Scatter routes one column batch to state partitions by hashing the key
// columns (keyIdxs) lane by lane straight from the vectors, codec-encoding
// each key cell from the typed slab, never boxing it, and cuts the rows
// that vec.Batch.AppendRows renders into their destination buckets. The
// hash is codec.HashKey of the boxed key values bit for bit, so bucket
// contents (and their order) are byte-identical to per-row routing. The
// engine routes through incremental.Pipeline.Scatter; the benchmark's
// isolated exchange driver times this one.
func Scatter(b *vec.Batch, keyIdxs []int, nPart int) [][]sql.Row {
	buckets := make([][]sql.Row, nPart)
	if b == nil || b.NumLive() == 0 {
		return buckets
	}
	hashes := HashLanes(b, keyIdxs, make([]uint64, 0, b.NumLive()))
	for j, row := range b.AppendRows(make([]sql.Row, 0, len(hashes))) {
		p := int(hashes[j] % uint64(nPart))
		buckets[p] = append(buckets[p], row)
	}
	return buckets
}

// HashLanes appends the shuffle hash of every live lane of b, in
// emission order, to out. keyIdxs name the grouping-key columns.
func HashLanes(b *vec.Batch, keyIdxs []int, out []uint64) []uint64 {
	keys := make([]*vec.Vector, len(keyIdxs))
	for i, idx := range keyIdxs {
		keys[i] = b.Cols[idx]
	}
	enc := codec.NewEncoder(16 * len(keys))
	if b.Sel != nil {
		for _, i := range b.Sel {
			out = append(out, codec.HashVec(enc, keys, int(i)))
		}
		return out
	}
	for i := 0; i < b.Len; i++ {
		out = append(out, codec.HashVec(enc, keys, i))
	}
	return out
}
