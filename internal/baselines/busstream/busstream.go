// Package busstream implements a Kafka-Streams-style processing library:
// a per-record processor topology where repartitioning between stages and
// all state persistence go *through the message bus* — every keyed record
// is produced to a repartition topic and consumed back, and every state
// update appends to a changelog topic. This is the reproduction's stand-in
// for Kafka Streams 0.10.2 in the Yahoo! benchmark (Fig 6a): the paper
// attributes its 90× gap to exactly this "simple message-passing model
// through the Kafka message bus".
package busstream

import (
	"fmt"

	"structream/internal/msgbus"
	"structream/internal/sql"
	"structream/internal/sql/codec"
)

// Processor handles one record and may forward derived records.
type Processor interface {
	Process(row sql.Row, forward func(sql.Row)) error
}

// MapProcessor transforms records 1:0/1.
type MapProcessor struct {
	Fn func(sql.Row) sql.Row
}

// Process implements Processor.
func (p *MapProcessor) Process(row sql.Row, forward func(sql.Row)) error {
	if out := p.Fn(row); out != nil {
		forward(out)
	}
	return nil
}

// KTable is a keyed materialized view backed by a changelog topic: every
// update is synchronously appended to the changelog before the in-memory
// view changes, which is Kafka Streams' durability model.
type KTable struct {
	changelog *msgbus.Topic
	view      map[string]sql.Row
}

// NewKTable creates a table with a single-partition changelog topic on the
// broker.
func NewKTable(broker *msgbus.Broker, name string) (*KTable, error) {
	changelog, err := broker.CreateTopic(name+"-changelog", 1)
	if err != nil {
		return nil, err
	}
	return &KTable{changelog: changelog, view: map[string]sql.Row{}}, nil
}

// Get reads the current value for a key.
func (t *KTable) Get(key string) (sql.Row, bool) {
	row, ok := t.view[key]
	return row, ok
}

// Put updates a key, writing the changelog record first.
func (t *KTable) Put(key string, value sql.Row) error {
	if _, err := t.changelog.Append(0, msgbus.Record{
		Key:   []byte(key),
		Value: codec.EncodeRow(value),
	}); err != nil {
		return err
	}
	t.view[key] = value
	return nil
}

// View exposes the materialized map (for result draining).
func (t *KTable) View() map[string]sql.Row { return t.view }

// Topology is a two-stage keyed pipeline: a map stage, a repartition-by-key
// hop through the bus, and a keyed aggregation into a KTable. This is the
// canonical Kafka Streams shape (map → groupByKey → aggregate) and exactly
// the Yahoo benchmark's structure.
type Topology struct {
	mapStage    Processor
	repartition *msgbus.Topic // one partition
	keyFn       func(sql.Row) string
	aggFn       func(prev sql.Row, row sql.Row) sql.Row
	table       *KTable
}

// NewTopology builds the pipeline on a broker. name scopes the internal
// topics.
func NewTopology(broker *msgbus.Broker, name string,
	mapStage Processor, keyFn func(sql.Row) string,
	aggFn func(prev, row sql.Row) sql.Row) (*Topology, error) {
	repart, err := broker.CreateTopic(name+"-repartition", 1)
	if err != nil {
		return nil, err
	}
	table, err := NewKTable(broker, name+"-store")
	if err != nil {
		return nil, err
	}
	return &Topology{
		mapStage:    mapStage,
		repartition: repart,
		keyFn:       keyFn,
		aggFn:       aggFn,
		table:       table,
	}, nil
}

// Table exposes the result KTable.
func (t *Topology) Table() *KTable { return t.table }

// Run processes the input records through the full per-record path:
// map → produce to repartition topic → consume back → aggregate → write
// changelog. Every intermediate record makes two bus round trips, the
// defining cost of this execution model.
func (t *Topology) Run(input []sql.Row) error {
	offset := t.repartition.LatestOffsets()[0]
	for _, row := range input {
		// Stage 1: map, then produce each survivor to the repartition
		// topic keyed by the grouping key.
		var ferr error
		err := t.mapStage.Process(row, func(out sql.Row) {
			key := t.keyFn(out)
			if _, _, err := t.repartition.Produce([]byte(key), codec.EncodeRow(out), 0); err != nil {
				ferr = err
			}
		})
		if err != nil {
			return err
		}
		if ferr != nil {
			return ferr
		}
		// Stage 2: the downstream consumer polls the repartition topic and
		// aggregates — synchronously here, as both subtopologies share the
		// thread (Kafka Streams runs them in one StreamThread by default).
		if _, err := t.consume(&offset, 64); err != nil {
			return err
		}
	}
	// Drain any remaining repartition records.
	for {
		n, err := t.consume(&offset, 4096)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
	}
	if len(t.table.view) == 0 && len(input) > 0 {
		return fmt.Errorf("busstream: no output produced")
	}
	return nil
}

// consume polls up to max records of the repartition topic from *offset,
// reading them in place through the topic's run view as the engine's bus
// source does, folds each into the table, advances *offset past them and
// returns how many it read.
func (t *Topology) consume(offset *int64, max int) (int, error) {
	var buf [4]msgbus.Run
	runs, err := t.repartition.Runs(0, *offset, *offset+int64(max), buf[:0])
	if err != nil {
		return 0, err
	}
	n := 0
	for i := range runs {
		r := &runs[i]
		for k := range r.Times {
			keyed, err := codec.DecodeRow(r.Value(k))
			if err != nil {
				return 0, err
			}
			key := string(r.Key(k))
			prev, _ := t.table.Get(key)
			if err := t.table.Put(key, t.aggFn(prev, keyed)); err != nil {
				return 0, err
			}
		}
		n += r.Len()
	}
	*offset += int64(n)
	return n, nil
}
