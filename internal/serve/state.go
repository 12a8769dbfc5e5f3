package serve

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"structream/internal/engine"
	"structream/internal/sql/codec"
	"structream/internal/state"
)

// StateEntry is one key/value pair of operator state. Keys are
// codec-encoded SQL values and decode losslessly; values are
// operator-private buffers (packed aggregation accumulators, dedup
// markers, ...) exposed as hex.
type StateEntry struct {
	KeyHex   string   `json:"keyHex"`
	Key      []string `json:"key,omitempty"` // best-effort decoded key columns
	ValueHex string   `json:"valueHex"`
}

// StatePartition is one partition's slice of a state snapshot.
type StatePartition struct {
	Partition int          `json:"partition"`
	NumKeys   int          `json:"numKeys"`
	Entries   []StateEntry `json:"entries,omitempty"`
	// Truncated marks a partition whose entry list hit the limit.
	Truncated bool `json:"truncated,omitempty"`
}

// StateResponse is a point-in-time view of a query's operator state. All
// partitions are read at the same committed version, so the snapshot is
// prefix-consistent: it reflects exactly the epochs ≤ Epoch, the same
// prefix a subscriber at cursor Epoch has observed.
type StateResponse struct {
	Query      string           `json:"query"`
	Operator   string           `json:"operator"`
	Epoch      int64            `json:"epoch"`
	Partitions []StatePartition `json:"partitions"`
}

// ServeState answers GET /queries/{name}/state: a prefix-consistent
// snapshot of the query's stateful-operator state at the last committed
// epoch. Parameters: partition=<n> restricts to one partition,
// limit=<n> bounds entries per partition (default 100, 0 = counts only),
// prefixHex=<hex> filters keys by encoded prefix, keyHex=<hex> looks up
// one key.
//
// The read opens a fresh read-only state provider at the committed
// version — it never touches the live query's stores. A read racing the
// owner's GC or compaction fails transiently with 503; clients retry.
func (h *Hub) ServeState(w http.ResponseWriter, r *http.Request) {
	q := h.Query()
	if q == nil {
		http.Error(w, "no query instance attached", http.StatusServiceUnavailable)
		return
	}
	sa, ok := q.StateAccess()
	if !ok {
		http.Error(w, "query has no stateful operator", http.StatusNotFound)
		return
	}
	params := r.URL.Query()
	limit := 100
	if s := params.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("invalid limit %q", s), http.StatusBadRequest)
			return
		}
		limit = n
	}
	partition := -1
	if s := params.Get("partition"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 || n >= sa.Partitions {
			http.Error(w, fmt.Sprintf("invalid partition %q (have %d)", s, sa.Partitions), http.StatusBadRequest)
			return
		}
		partition = n
	}
	var keyFilter, prefixFilter []byte
	if s := params.Get("keyHex"); s != "" {
		b, err := hex.DecodeString(s)
		if err != nil {
			http.Error(w, fmt.Sprintf("invalid keyHex %q", s), http.StatusBadRequest)
			return
		}
		keyFilter = b
	}
	if s := params.Get("prefixHex"); s != "" {
		b, err := hex.DecodeString(s)
		if err != nil {
			http.Error(w, fmt.Sprintf("invalid prefixHex %q", s), http.StatusBadRequest)
			return
		}
		prefixFilter = b
	}

	resp := StateResponse{
		Query:      h.name,
		Operator:   sa.Operator,
		Epoch:      sa.Version,
		Partitions: []StatePartition{},
	}
	if sa.Version >= 0 {
		prov := state.NewProviderFS(sa.FS, sa.Checkpoint)
		prov.ReadOnly = true
		prov.MemtableBytes = sa.MemtableBytes
		prov.BlockCacheBytes = sa.BlockCacheBytes
		defer prov.Close()
		for p := 0; p < sa.Partitions; p++ {
			if partition >= 0 && p != partition {
				continue
			}
			part, err := readPartition(prov, sa, p, limit, keyFilter, prefixFilter)
			if err != nil {
				// Racing the live query's GC/compaction: transient.
				http.Error(w, fmt.Sprintf("state snapshot read failed (retry): %v", err), http.StatusServiceUnavailable)
				return
			}
			resp.Partitions = append(resp.Partitions, part)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

func readPartition(prov *state.Provider, sa engine.StateAccess, p, limit int, keyFilter, prefixFilter []byte) (StatePartition, error) {
	store, err := prov.Open(state.ID{Operator: sa.Operator, Partition: p}, sa.Version)
	if err != nil {
		return StatePartition{}, err
	}
	part := StatePartition{Partition: p, NumKeys: store.NumKeys()}
	if err := store.Err(); err != nil {
		return StatePartition{}, err
	}
	switch {
	case keyFilter != nil:
		if v, ok := store.Get(keyFilter); ok {
			part.Entries = append(part.Entries, makeEntry(keyFilter, v))
		}
	case limit > 0:
		store.Iterate(func(k, v []byte) bool {
			if prefixFilter != nil && !strings.HasPrefix(string(k), string(prefixFilter)) {
				return true
			}
			if len(part.Entries) >= limit {
				part.Truncated = true
				return false
			}
			part.Entries = append(part.Entries, makeEntry(k, v))
			return true
		})
	}
	if err := store.Err(); err != nil {
		return StatePartition{}, err
	}
	return part, nil
}

func makeEntry(k, v []byte) StateEntry {
	e := StateEntry{KeyHex: hex.EncodeToString(k), ValueHex: hex.EncodeToString(v)}
	if vals, err := codec.DecodeValues(k); err == nil {
		for _, val := range vals {
			e.Key = append(e.Key, fmt.Sprint(val))
		}
	}
	return e
}
