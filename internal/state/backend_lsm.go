package state

import (
	"bytes"
	"errors"
	"fmt"

	"structream/internal/lsm"
)

// lsmBackend stores committed state in an embedded LSM tree: the working
// set that fits in the memtable and block cache stays in memory, the rest
// lives in bloom-filtered SSTables on disk. Every epoch commit writes the
// same per-version delta file the memory backend would (the memtable's
// write-ahead log), so Versions, retention, and the crash-recovery sweep
// see an identical file-per-version contract; snapshots are replaced by
// the tree's manifests, which make every committed version a cheap
// reference to immutable tables plus a delta-log suffix.
type lsmBackend struct {
	provider *Provider
	tree     *lsm.Tree
}

var errStopIterate = errors.New("state: stop iteration")

func (b *lsmBackend) get(key []byte) ([]byte, bool, error) {
	v, ok, err := b.tree.GetBytes(key)
	if err != nil {
		return nil, false, fmt.Errorf("state: %w", err)
	}
	return v, ok, nil
}

func (b *lsmBackend) getBatch(keys [][]byte) ([][]byte, []bool, error) {
	values := make([][]byte, len(keys))
	oks := make([]bool, len(keys))
	if err := b.tree.GetBatchBytes(keys, values, oks); err != nil {
		return nil, nil, fmt.Errorf("state: %w", err)
	}
	return values, oks, nil
}

func (b *lsmBackend) iterate(fn func(key, value []byte) bool) error {
	return b.scan(nil, nil, fn)
}

func (b *lsmBackend) scan(from, to []byte, fn func(key, value []byte) bool) error {
	// The tree's upper bound is inclusive; this contract's is not.
	err := b.tree.Range(string(from), string(to), func(key, value []byte) error {
		if (to != nil && bytes.Compare(key, to) >= 0) || !fn(key, value) {
			return errStopIterate
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopIterate) {
		return fmt.Errorf("state: %w", err)
	}
	return nil
}

func (b *lsmBackend) numKeys() (int64, error) { return b.tree.NumKeys(), nil }

func (b *lsmBackend) commit(version int64, batch lsm.Batch) error {
	if err := b.tree.CommitBatch(version, batch); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	b.provider.deltasWritten.Add(1)
	return nil
}

func (b *lsmBackend) load(version int64) error {
	if err := b.tree.Load(version); err != nil {
		return fmt.Errorf("state: %w", err)
	}
	return nil
}

func (b *lsmBackend) close() { b.tree.Close() }
