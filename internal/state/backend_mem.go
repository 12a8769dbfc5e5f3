package state

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"structream/internal/fsx"
	"structream/internal/lsm"
)

// memBackend keeps all committed state in one Go map. Durability is a delta
// file per committed version plus a full snapshot once SnapshotInterval
// deltas have accumulated since the last one; reloading a version applies
// the newest snapshot at or below it and the delta files after it. Delta
// and snapshot records share the framing in internal/lsm (op byte, uvarint
// key length, key, uvarint value length, value) inside the fsx CRC frame.
type memBackend struct {
	provider *Provider
	dir      string
	data     map[string][]byte
	// deltasSinceSnap counts delta files written (or replayed) since the
	// last snapshot. Snapshot cadence counts actual deltas, not version
	// numbers: versions are sparse (only epochs that touched this partition
	// commit), so a version-modulo rule snapshots too rarely — or, for a
	// store whose versions happen to dodge the modulus, never.
	deltasSinceSnap int64
}

func (b *memBackend) get(key []byte) ([]byte, bool, error) {
	v, ok := b.data[string(key)]
	return v, ok, nil
}

func (b *memBackend) getBatch(keys [][]byte) ([][]byte, []bool, error) {
	values := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	for i, key := range keys {
		values[i], oks[i] = b.data[string(key)]
	}
	return values, oks, nil
}

func (b *memBackend) iterate(fn func(key, value []byte) bool) error {
	for k, v := range b.data {
		if !fn([]byte(k), v) {
			return nil
		}
	}
	return nil
}

// scan filters and sorts per call: the map has no order to exploit.
func (b *memBackend) scan(from, to []byte, fn func(key, value []byte) bool) error {
	var in lsm.Batch
	for k, v := range b.data {
		if inBounds(k, from, to) {
			in = append(in, lsm.Entry{Key: k, Value: v})
		}
	}
	lsm.SortBatch(in, nil)
	for _, e := range in {
		if !fn([]byte(e.Key), e.Value) {
			break
		}
	}
	return nil
}

func (b *memBackend) numKeys() (int64, error) { return int64(len(b.data)), nil }

// commit ignores the entries' existence memo: the map makes the check free.
func (b *memBackend) commit(version int64, batch lsm.Batch) error {
	path := filepath.Join(b.dir, fmt.Sprintf("%d.%s", version, kindDelta))
	if err := b.atomicWrite(path, lsm.EncodeBatch(nil, batch)); err != nil {
		return err
	}
	b.provider.deltasWritten.Add(1)
	b.apply(batch, true)
	b.deltasSinceSnap++
	interval := b.provider.SnapshotInterval
	if interval > 0 && b.deltasSinceSnap >= interval {
		if err := b.writeSnapshot(version); err != nil {
			return err
		}
		b.deltasSinceSnap = 0
	}
	return nil
}

func (b *memBackend) writeSnapshot(version int64) error {
	path := filepath.Join(b.dir, fmt.Sprintf("%d.%s", version, kindSnapshot))
	if err := b.atomicWrite(path, lsm.EncodeBatch(nil, lsm.BatchOf(b.data, nil))); err != nil {
		return err
	}
	b.provider.snapshotsWritten.Add(1)
	return nil
}

// atomicWrite seals body with a length+CRC32C footer (in place: EncodeBatch
// leaves room for it) and writes it via
// temp-file-plus-rename, so a crash can never leave a partially written
// record in place of a committed version — and if the disk lies (torn
// write, bit rot), the reader detects it instead of loading wrong state.
func (b *memBackend) atomicWrite(path string, body []byte) error {
	if err := fsx.WriteAtomic(b.provider.fs, path, fsx.Seal(body), 0o644); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	return nil
}

// load reconstructs the map as of the given version (-1 = empty).
func (b *memBackend) load(version int64) error {
	b.data = map[string][]byte{}
	b.deltasSinceSnap = 0
	if version < 0 {
		return nil
	}
	snap, haveSnap, err := latestSnapshotAtOrBelow(b.provider.fs, b.dir, version)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	from := int64(0)
	if haveSnap {
		if err := b.applyFile(filepath.Join(b.dir, fmt.Sprintf("%d.%s", snap, kindSnapshot))); err != nil {
			return err
		}
		from = snap + 1
	}
	for v := from; v <= version; v++ {
		path := filepath.Join(b.dir, fmt.Sprintf("%d.%s", v, kindDelta))
		if _, err := b.provider.fs.Stat(path); os.IsNotExist(err) {
			// Missing versions are legal: the engine commits state only on
			// epochs that touched this operator partition.
			continue
		}
		if err := b.applyFile(path); err != nil {
			return err
		}
		b.deltasSinceSnap++
	}
	return nil
}

func (b *memBackend) applyFile(path string) error {
	raw, err := b.provider.fs.ReadFile(path)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	data, err := fsx.Verify(path, raw)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	batch, err := lsm.DecodeBatch(data)
	if err != nil {
		return fmt.Errorf("state: %w: file %s: %v", fsx.ErrCorrupt, path, err)
	}
	b.apply(batch, false)
	return nil
}

// apply folds a committed or replayed batch into the map. A committed
// batch's key strings share chunks (storeBackend.commit), so a key new to
// the map is copied; a replayed batch's are its own (shared = false).
func (b *memBackend) apply(batch lsm.Batch, shared bool) {
	for _, e := range batch {
		if e.Tomb {
			delete(b.data, e.Key)
		} else if _, ok := b.data[e.Key]; ok || !shared {
			b.data[e.Key] = e.Value
		} else {
			b.data[strings.Clone(e.Key)] = e.Value
		}
	}
}

func (b *memBackend) close() {}
