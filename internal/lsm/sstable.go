package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"structream/internal/fsx"
)

// SSTable layout — immutable, sorted, written once via atomic rename:
//
//	[data block 0][data block 1]...[bloom filter][block index][footer]
//
// Each data block holds ascending entries: uvarint keyLen, key, uvarint
// vcode where vcode 0 is a tombstone and vcode n>0 means n-1 value bytes
// follow. Blocks close at ~BlockBytes so point reads touch one block, not
// the table. The index records every block's first key, extent, entry
// count, and CRC32C; the bloom filter answers "definitely absent" without
// touching data blocks at all. The fixed-size footer locates bloom and
// index and seals them with their own CRC32C — a torn write or bit flip
// anywhere in the table is detected, never silently misread.

const (
	tableMagic         = 0x4C534D31 // "LSM1"
	tableFooterSize    = 8 + 8 + 8 + 8 + 4 + 4
	defaultBlockBytes  = 4096
	defaultTierTables  = 4
	defaultMemtableCap = 4 << 20 // 4 MiB
)

// blockMeta is one index row describing a data block.
type blockMeta struct {
	firstKey string
	off      int64
	length   int64
	crc      uint32
	entries  int64
}

// ---------------------------------------------------------------- builder

// tableBuilder accumulates sorted entries into the on-disk table image.
// Callers must add keys in strictly ascending order. Every entry is written
// once, straight into the image: a block is sealed by recording where it
// began. A tree keeps one builder and resets it for each flush and merge, so
// the image, the hash vector and the index are grown to a step's size once,
// not allocated and zeroed per step.
type tableBuilder struct {
	blockBytes int
	bloomBits  int

	buf        []byte // the image: sealed blocks, then the open one from blockStart
	blockStart int
	blockCount int64
	index      []blockMeta // firstKey unset: finish reads it back from the image
	hashes     []uint64    // keyHash per key, computed as keys stream in
	entries    int64
}

func newTableBuilder(blockBytes, bloomBits int) *tableBuilder {
	if blockBytes <= 0 {
		blockBytes = defaultBlockBytes
	}
	return &tableBuilder{blockBytes: blockBytes, bloomBits: bloomBits}
}

// reset empties the builder for a new table, making room once for what the
// caller knows of its input: sizeHint bounds the finished table's bytes (a
// memtable's footprint, or the summed sizes of a merge's inputs) and
// entriesHint its entry count. Both may overshoot; neither is a limit. What
// is kept from the last step is reused when it fits and let go when it is
// more than eight times too large, so one big merge does not pin its image
// behind the small flushes that follow. The image finish returned before is
// overwritten from here on.
func (b *tableBuilder) reset(sizeHint, entriesHint int64) {
	if c := int64(cap(b.buf)); c < sizeHint || c > 8*sizeHint {
		b.buf = make([]byte, 0, sizeHint)
	}
	if c := int64(cap(b.hashes)); c < entriesHint || c > 8*entriesHint {
		b.hashes = make([]uint64, 0, entriesHint)
	}
	b.buf, b.hashes, b.index = b.buf[:0], b.hashes[:0], b.index[:0]
	b.blockStart, b.blockCount, b.entries = 0, 0, 0
}

// add appends one entry. Keys arrive as []byte views — block slices from a
// merge, slot keys from a flush — so no entry costs a string conversion.
func (b *tableBuilder) add(key, value []byte, tomb bool) {
	b.buf = binary.AppendUvarint(b.buf, uint64(len(key)))
	b.buf = append(b.buf, key...)
	b.hashes = append(b.hashes, keyHash(key))
	if tomb {
		b.buf = binary.AppendUvarint(b.buf, 0)
	} else {
		b.buf = binary.AppendUvarint(b.buf, uint64(len(value))+1)
		b.buf = append(b.buf, value...)
	}
	b.blockCount++
	b.entries++
	if len(b.buf)-b.blockStart >= b.blockBytes {
		b.sealBlock()
	}
}

func (b *tableBuilder) sealBlock() {
	if len(b.buf) == b.blockStart {
		return
	}
	b.index = append(b.index, blockMeta{
		off:     int64(b.blockStart),
		length:  int64(len(b.buf) - b.blockStart),
		crc:     fsx.Checksum(b.buf[b.blockStart:]),
		entries: b.blockCount,
	})
	b.blockStart, b.blockCount = len(b.buf), 0
}

// finish seals the open block and appends bloom, index, and footer,
// returning the complete table image. The image is the builder's own buffer:
// it is good until the next reset.
func (b *tableBuilder) finish() []byte {
	b.sealBlock()
	bloomOff := len(b.buf)
	b.buf = appendBloom(b.buf, b.hashes, b.bloomBits)
	indexOff := len(b.buf)
	for _, m := range b.index {
		first := entryKeyAt(b.buf, int(m.off))
		b.buf = binary.AppendUvarint(b.buf, uint64(len(first)))
		b.buf = append(b.buf, first...)
		b.buf = binary.AppendUvarint(b.buf, uint64(m.off))
		b.buf = binary.AppendUvarint(b.buf, uint64(m.length))
		b.buf = binary.LittleEndian.AppendUint32(b.buf, m.crc)
		b.buf = binary.AppendUvarint(b.buf, uint64(m.entries))
	}
	footOff := len(b.buf)
	metaCRC := fsx.Checksum(b.buf[bloomOff:])
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(bloomOff))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(indexOff-bloomOff))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(indexOff))
	b.buf = binary.LittleEndian.AppendUint64(b.buf, uint64(footOff-indexOff))
	b.buf = binary.LittleEndian.AppendUint32(b.buf, metaCRC)
	b.buf = binary.LittleEndian.AppendUint32(b.buf, tableMagic)
	return b.buf
}

// ---------------------------------------------------------------- reader

// Table is an open immutable SSTable: resident bloom filter and block
// index, data blocks fetched on demand through the shared cache.
type Table struct {
	fsys  fsx.FS
	path  string
	cache *BlockCache
	id    uint64 // the cache's name for this open table; 0 without a cache

	seq   int64
	size  int64
	bloom bloom
	index []blockMeta
	// firstPrefixes[i] is keyPrefix(index[i].firstKey): what a point lookup
	// searches, side by side, before it reads any first key.
	firstPrefixes []uint64
	entries       int64

	// offsets[i] holds block i's entry start positions, built lazily on the
	// first point lookup that touches the block. Blocks are immutable, so
	// the positions stay valid even after the cached block bytes are
	// evicted and re-read — point lookups binary-search entries instead of
	// decoding the block linearly.
	offMu   sync.Mutex
	offsets [][]uint32
}

// openTable loads a table's footer, bloom filter, and index, verifying the
// meta checksum. Data blocks stay on disk until a lookup needs them.
func openTable(fsys fsx.FS, path string, seq int64, cache *BlockCache) (*Table, error) {
	info, err := fsys.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	size := info.Size()
	if size < tableFooterSize {
		return nil, fmt.Errorf("lsm: %w: %s: too short for a table footer (%d bytes)", fsx.ErrCorrupt, path, size)
	}
	foot, err := fsx.ReadRange(fsys, path, size-tableFooterSize, tableFooterSize)
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	if binary.LittleEndian.Uint32(foot[36:]) != tableMagic {
		return nil, fmt.Errorf("lsm: %w: %s: bad table magic", fsx.ErrCorrupt, path)
	}
	bloomOff := int64(binary.LittleEndian.Uint64(foot[0:]))
	bloomLen := int64(binary.LittleEndian.Uint64(foot[8:]))
	indexOff := int64(binary.LittleEndian.Uint64(foot[16:]))
	indexLen := int64(binary.LittleEndian.Uint64(foot[24:]))
	metaCRC := binary.LittleEndian.Uint32(foot[32:])
	metaLen := bloomLen + indexLen
	if bloomOff < 0 || bloomLen < 0 || indexLen < 0 || indexOff != bloomOff+bloomLen ||
		bloomOff+metaLen != size-tableFooterSize {
		return nil, fmt.Errorf("lsm: %w: %s: table footer geometry out of bounds", fsx.ErrCorrupt, path)
	}
	meta, err := fsx.ReadRange(fsys, path, bloomOff, int(metaLen))
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	if fsx.Checksum(meta) != metaCRC {
		return nil, fmt.Errorf("lsm: %w: %s: table meta crc mismatch", fsx.ErrCorrupt, path)
	}
	bf, err := openBloom(meta[:bloomLen])
	if err != nil {
		return nil, fmt.Errorf("lsm: %w: %s: %v", fsx.ErrCorrupt, path, err)
	}
	t := &Table{fsys: fsys, path: path, cache: cache, seq: seq, size: size, bloom: bf}
	if cache != nil {
		t.id = cache.tableIDs.Add(1)
	}
	idx := meta[bloomLen:]
	pos := 0
	for pos < len(idx) {
		klen, n := binary.Uvarint(idx[pos:])
		if n <= 0 || uint64(len(idx)-pos-n) < klen {
			return nil, fmt.Errorf("lsm: %w: %s: corrupt block index", fsx.ErrCorrupt, path)
		}
		pos += n
		m := blockMeta{firstKey: string(idx[pos : pos+int(klen)])}
		pos += int(klen)
		fields := []*int64{&m.off, &m.length, nil, &m.entries}
		for i, dst := range fields {
			if i == 2 {
				if pos+4 > len(idx) {
					return nil, fmt.Errorf("lsm: %w: %s: corrupt block index", fsx.ErrCorrupt, path)
				}
				m.crc = binary.LittleEndian.Uint32(idx[pos:])
				pos += 4
				continue
			}
			v, n := binary.Uvarint(idx[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("lsm: %w: %s: corrupt block index", fsx.ErrCorrupt, path)
			}
			*dst = int64(v)
			pos += n
		}
		// Compared by subtraction: off+length wraps for a length near 2^63.
		if m.off < 0 || m.length < 0 || m.entries < 0 || m.off > bloomOff || m.length > bloomOff-m.off {
			return nil, fmt.Errorf("lsm: %w: %s: block extent outside data section", fsx.ErrCorrupt, path)
		}
		t.entries += m.entries
		t.index = append(t.index, m)
		t.firstPrefixes = append(t.firstPrefixes, keyPrefix(m.firstKey))
	}
	return t, nil
}

// block fetches data block i through the shared cache, filling it on a
// miss.
func (t *Table) block(i int) ([]byte, error) {
	if t.cache == nil {
		return t.readBlock(i)
	}
	key := cacheKey{table: t.id, block: i}
	if b, ok := t.cache.get(key); ok {
		return b, nil
	}
	data, err := t.readBlock(i)
	if err != nil {
		return nil, err
	}
	t.cache.put(key, data)
	return data, nil
}

// readBlock fetches data block i from disk, CRC-verified before it is
// trusted.
func (t *Table) readBlock(i int) ([]byte, error) {
	m := t.index[i]
	data, err := fsx.ReadRange(t.fsys, t.path, m.off, int(m.length))
	if err != nil {
		return nil, fmt.Errorf("lsm: %w", err)
	}
	if fsx.Checksum(data) != m.crc {
		return nil, fmt.Errorf("lsm: %w: %s block %d: crc mismatch (bit rot or torn write)", fsx.ErrCorrupt, t.path, i)
	}
	return data, nil
}

// decodeBlockEntry parses one entry at pos, returning the next position.
// The key and value alias the block — zero-copy: the read path compares
// and yields byte slices, converting to string only at API boundaries.
func decodeBlockEntry(block []byte, pos int, path string) (key, val []byte, tomb bool, next int, err error) {
	klen, n := binary.Uvarint(block[pos:])
	if n <= 0 || uint64(len(block)-pos-n) < klen {
		return nil, nil, false, 0, fmt.Errorf("lsm: %w: %s: corrupt block entry", fsx.ErrCorrupt, path)
	}
	pos += n
	key = block[pos : pos+int(klen)]
	pos += int(klen)
	vcode, n := binary.Uvarint(block[pos:])
	if n <= 0 {
		return nil, nil, false, 0, fmt.Errorf("lsm: %w: %s: corrupt block entry", fsx.ErrCorrupt, path)
	}
	pos += n
	if vcode == 0 {
		return key, nil, true, pos, nil
	}
	// Compared unsigned: a vcode near 2^64 would convert to a negative int.
	if uint64(len(block)-pos) < vcode-1 {
		return nil, nil, false, 0, fmt.Errorf("lsm: %w: %s: corrupt block entry", fsx.ErrCorrupt, path)
	}
	vlen := int(vcode - 1)
	return key, block[pos : pos+vlen], false, pos + vlen, nil
}

// blockOffsets returns block i's entry start positions, building (and
// memoizing) them on first use. The build walks the block with the checked
// decoder, so every memoized offset is known to start a well-formed entry.
func (t *Table) blockOffsets(i int, block []byte) ([]uint32, error) {
	t.offMu.Lock()
	if t.offsets == nil {
		t.offsets = make([][]uint32, len(t.index))
	}
	if offs := t.offsets[i]; offs != nil {
		t.offMu.Unlock()
		return offs, nil
	}
	t.offMu.Unlock()
	// The index's entry count is a hint from disk; an entry is at least two
	// bytes, so the block's own length bounds what it can make us allocate.
	offs := make([]uint32, 0, min(t.index[i].entries, int64(len(block)/2)))
	for pos := 0; pos < len(block); {
		offs = append(offs, uint32(pos))
		_, _, _, next, err := decodeBlockEntry(block, pos, t.path)
		if err != nil {
			return nil, err
		}
		pos = next
	}
	t.offMu.Lock()
	t.offsets[i] = offs
	t.offMu.Unlock()
	return offs, nil
}

// entryKeyAt returns the key of the entry starting at pos. Only valid for
// positions vetted by blockOffsets.
func entryKeyAt(block []byte, pos int) []byte {
	klen, n := binary.Uvarint(block[pos:])
	return block[pos+n : pos+n+int(klen)]
}

// get performs a point lookup: bloom, a binary search of the blocks' first
// keys, then one of the block's entry offsets — both by the tree's one
// comparison rule, prefix first. h is keyHash(key), which the caller
// computes once however many tables it probes. ok=false means the table has
// no record of the key (the caller falls through to older tables); tomb=true
// means the key is recorded deleted.
func (t *Table) get(key []byte, h uint64) (val []byte, tomb, ok bool, err error) {
	if len(t.index) == 0 {
		return nil, false, false, nil
	}
	if t.bloom.legacy {
		h = fnv64a(key)
	}
	if !t.bloom.mayContain(h) {
		return nil, false, false, nil
	}
	kp := keyPrefix(key)
	// First block whose first key is > key; the candidate is the one before.
	i, hi := 0, len(t.index)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if p := t.firstPrefixes[mid]; p > kp || (p == kp && cmpStringBytes(t.index[mid].firstKey, key) > 0) {
			hi = mid
		} else {
			i = mid + 1
		}
	}
	if i == 0 {
		return nil, false, false, nil
	}
	block, err := t.block(i - 1)
	if err != nil {
		return nil, false, false, err
	}
	offs, err := t.blockOffsets(i-1, block)
	if err != nil {
		return nil, false, false, err
	}
	// First entry whose key is >= key.
	j, hi := 0, len(offs)
	for j < hi {
		mid := int(uint(j+hi) >> 1)
		if k := entryKeyAt(block, int(offs[mid])); compareKeys(keyPrefix(k), k, kp, key) >= 0 {
			hi = mid
		} else {
			j = mid + 1
		}
	}
	if j == len(offs) {
		return nil, false, false, nil
	}
	k, v, tb, _, err := decodeBlockEntry(block, int(offs[j]), t.path)
	if err != nil {
		return nil, false, false, err
	}
	if !bytes.Equal(k, key) {
		return nil, false, false, nil
	}
	return v, tb, true, nil
}

// ---------------------------------------------------------------- iterator

// tableIter streams a table's entries in key order, loading blocks lazily.
// The first next() yields the first entry >= the iterator's lower bound.
type tableIter struct {
	t     *Table
	bi    int
	block []byte
	pos   int
	from  string // entries below this bound are skipped ("" = none)
	// direct reads blocks from disk past the shared cache (mergeInput).
	direct bool

	key  []byte // aliases the current block
	val  []byte
	tomb bool
	err  error
}

// iter starts a scan at the first entry >= from ("" scans everything); the
// lower bound only costs a binary search, not a walk of earlier blocks.
func (t *Table) iter(from string) *tableIter {
	it := &tableIter{t: t, from: from}
	if from != "" {
		it.bi = sort.Search(len(t.index), func(i int) bool { return t.index[i].firstKey > from })
		if it.bi > 0 {
			it.bi--
		}
	}
	return it
}

// mergeInput streams the whole table for a compaction merge, reading blocks
// from disk past the shared cache. A merge touches every block of its inputs
// exactly once, and the inputs are obsolete the moment it installs: caching
// those blocks would evict the readers' hot set for copies dropTable is
// about to throw away.
func (t *Table) mergeInput() *tableIter {
	return &tableIter{t: t, direct: true}
}

// next advances to the following entry; false at exhaustion or error.
func (it *tableIter) next() bool {
	for it.err == nil {
		for it.block == nil || it.pos >= len(it.block) {
			if it.bi >= len(it.t.index) {
				return false
			}
			var b []byte
			var err error
			if it.direct {
				b, err = it.t.readBlock(it.bi)
			} else {
				b, err = it.t.block(it.bi)
			}
			if err != nil {
				it.err = err
				return false
			}
			it.block, it.pos = b, 0
			it.bi++
		}
		it.key, it.val, it.tomb, it.pos, it.err = decodeBlockEntry(it.block, it.pos, it.t.path)
		if it.err == nil && (it.from == "" || cmpStringBytes(it.from, it.key) <= 0) {
			it.from = "" // keys ascend: the bound is behind for good
			return true
		}
	}
	return false
}
