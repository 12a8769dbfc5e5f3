package structream

import (
	"fmt"
	"strconv"

	"structream/internal/colfmt"
	"structream/internal/msgbus"
	"structream/internal/sources"
	"structream/internal/sql"
)

// DataStreamReader builds streaming DataFrames from input connectors,
// mirroring spark.readStream.
type DataStreamReader struct {
	s      *Session
	format string
	schema Schema
	opts   map[string]string
}

// ReadStream begins building a streaming DataFrame.
func (s *Session) ReadStream() *DataStreamReader {
	return &DataStreamReader{s: s, opts: map[string]string{}}
}

// Format selects the connector: "json" (directory of JSON-lines files),
// "bus" (message-bus topic) or "memory" (manually fed, via MemoryStream).
func (r *DataStreamReader) Format(format string) *DataStreamReader {
	r.format = format
	return r
}

// Schema declares the input schema (required for json and bus formats).
func (r *DataStreamReader) Schema(schema Schema) *DataStreamReader {
	r.schema = schema
	return r
}

// Option sets a connector option (e.g. "name", "partitions").
func (r *DataStreamReader) Option(key, value string) *DataStreamReader {
	r.opts[key] = value
	return r
}

// Load resolves the connector and returns the streaming DataFrame. For the
// json format, path is the input directory; for bus, path is the topic
// name.
func (r *DataStreamReader) Load(path string) (*DataFrame, error) {
	switch r.format {
	case "json":
		if r.schema.Len() == 0 {
			return nil, fmt.Errorf("structream: the json stream source requires a schema")
		}
		name := r.opts["name"]
		if name == "" {
			name = "files:" + path
		}
		return r.s.RegisterStream(name, sources.NewFileSource(name, path, r.schema)), nil
	case "bus":
		if r.schema.Len() == 0 {
			return nil, fmt.Errorf("structream: the bus stream source requires a schema")
		}
		topic, ok := r.s.Broker().Topic(path)
		if !ok {
			parts := 1
			if p, err := strconv.Atoi(r.opts["partitions"]); err == nil && p > 0 {
				parts = p
			}
			var err error
			topic, err = r.s.Broker().CreateTopic(path, parts)
			if err != nil {
				return nil, err
			}
		}
		return r.s.RegisterStream(path, sources.NewCodecBusSource(path, topic, r.schema)), nil
	case "memory":
		return nil, fmt.Errorf("structream: use Session.MemoryStream for the memory format")
	default:
		return nil, fmt.Errorf("structream: unknown stream format %q", r.format)
	}
}

// FormatJSON is shorthand for Format("json").Schema(schema).Load(dir).
func (r *DataStreamReader) FormatJSON(dir string, schema Schema) (*DataFrame, error) {
	return r.Format("json").Schema(schema).Load(dir)
}

// MemoryStream creates a manually fed stream for tests and interactive
// sessions: feed it with the returned handle's AddData.
func (s *Session) MemoryStream(name string, schema Schema) (*DataFrame, *MemoryStream) {
	src := sources.NewMemorySource(name, schema)
	df := s.RegisterStream(name, src)
	return df, &MemoryStream{src: src}
}

// MemoryStream feeds an in-memory stream.
type MemoryStream struct{ src *sources.MemorySource }

// AddData appends rows to the stream. Convenience Go values (int,
// time.Time, time.Duration) are normalized.
func (m *MemoryStream) AddData(rows ...Row) { m.src.AddData(rows...) }

// BusStream returns a streaming DataFrame over a broker topic (creating
// the topic with the given partition count if needed) plus the topic
// handle for producing records.
func (s *Session) BusStream(topicName string, partitions int, schema Schema) (*DataFrame, *msgbus.Topic, error) {
	topic, err := s.Broker().CreateTopic(topicName, partitions)
	if err != nil {
		return nil, nil, err
	}
	df := s.RegisterStream(topicName, sources.NewCodecBusSource(topicName, topic, schema))
	return df, topic, nil
}

// ---------------------------------------------------------------- batch read

// DataFrameReader loads static tables, mirroring spark.read.
type DataFrameReader struct {
	s      *Session
	format string
	schema Schema
}

// Read begins building a static DataFrame.
func (s *Session) Read() *DataFrameReader { return &DataFrameReader{s: s} }

// Format selects "columnar" (the engine's Parquet-like table format) or
// "json" (a directory of JSON-lines files read once).
func (r *DataFrameReader) Format(format string) *DataFrameReader {
	r.format = format
	return r
}

// Schema declares the expected schema (required for json).
func (r *DataFrameReader) Schema(schema Schema) *DataFrameReader {
	r.schema = schema
	return r
}

// Load reads the table at path and registers it under its path name.
func (r *DataFrameReader) Load(path string) (*DataFrame, error) {
	switch r.format {
	case "columnar":
		tbl, err := colfmt.OpenTable(path)
		if err != nil {
			return nil, err
		}
		rows, err := tbl.ReadAll()
		if err != nil {
			return nil, err
		}
		r.s.RegisterTable(path, tbl.Schema, rows)
		return r.s.Table(path)
	case "json":
		if r.schema.Len() == 0 {
			return nil, fmt.Errorf("structream: the json reader requires a schema")
		}
		src := sources.NewFileSource(path, path, r.schema)
		latest, err := src.Latest()
		if err != nil {
			return nil, err
		}
		var rows []sql.Row
		if latest[0] > 0 {
			rows, err = src.Read(0, 0, latest[0])
			if err != nil {
				return nil, err
			}
		}
		r.s.RegisterTable(path, r.schema, rows)
		return r.s.Table(path)
	default:
		return nil, fmt.Errorf("structream: unknown batch format %q", r.format)
	}
}
