package shard

// Split divides the offset range [from, to) into at most n contiguous
// sub-ranges of near-equal size, none smaller than minPerShard records
// (except the only shard of a tiny range). The split is a pure function
// of its arguments: an epoch replayed with the same offsets and worker
// count produces the identical shard plan, and concatenating the shards
// in order reproduces the original range exactly — which is what keeps
// N-worker output byte-identical to the single-worker run.
func Split(from, to int64, n int, minPerShard int64) [][2]int64 {
	total := to - from
	if total <= 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if minPerShard < 1 {
		minPerShard = 1
	}
	count := int64(n)
	if maxShards := (total + minPerShard - 1) / minPerShard; maxShards < count {
		count = maxShards
	}
	out := make([][2]int64, 0, count)
	for i := int64(0); i < count; i++ {
		lo, hi := Range(from, to, int(i), int(count))
		out = append(out, [2]int64{lo, hi})
	}
	return out
}

// Range returns the n-th of `of` contiguous near-equal slices of the
// offset range [from, to) — the definition of shard boundaries that
// Split is built on. The first (to-from) mod of slices are one record
// longer.
func Range(from, to int64, n, of int) (lo, hi int64) {
	total := to - from
	if total < 0 {
		total = 0
	}
	if of < 1 {
		of = 1
	}
	base, rem := total/int64(of), total%int64(of)
	i := int64(n)
	lo = from + i*base
	if i < rem {
		lo += i
	} else {
		lo += rem
	}
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}
