package sources

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"structream/internal/sql"
)

// FileSource treats a directory of JSON-lines files as a stream, the way
// the paper's quickstart does (§4.1: "new JSON files are going to
// continually be uploaded to /in"). The offset space is the index into the
// lexicographically sorted list of files ever observed: files are
// discovered once, remembered in order, and a given offset range always
// re-reads the same files.
type FileSource struct {
	name   string
	dir    string
	schema sql.Schema

	mu    sync.Mutex
	files []string // discovery order; stable across Latest() calls
	known map[string]bool
}

// NewFileSource creates a JSON-lines directory source. The schema declares
// the expected fields; values are coerced to the declared types and missing
// fields read as NULL.
func NewFileSource(name, dir string, schema sql.Schema) *FileSource {
	return &FileSource{name: name, dir: dir, schema: schema, known: map[string]bool{}}
}

// Name implements Source.
func (s *FileSource) Name() string { return s.name }

// Schema implements Source.
func (s *FileSource) Schema() sql.Schema { return s.schema }

// Partitions implements Source. The file log is a single partition.
func (s *FileSource) Partitions() int { return 1 }

// Latest discovers new files and returns the new end offset.
func (s *FileSource) Latest() (Offsets, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return Offsets{int64(len(s.files))}, nil
		}
		return nil, fmt.Errorf("sources: %w", err)
	}
	var fresh []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") ||
			strings.HasSuffix(name, ".tmp") {
			continue
		}
		if !s.known[name] {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, f := range fresh {
		s.known[f] = true
		s.files = append(s.files, f)
	}
	return Offsets{int64(len(s.files))}, nil
}

// Earliest implements Source: files are never forgotten within a run.
func (s *FileSource) Earliest() (Offsets, error) { return Offsets{0}, nil }

// Read parses the files with indexes [from, to).
func (s *FileSource) Read(p int, from, to int64) ([]sql.Row, error) {
	if p != 0 {
		return nil, fmt.Errorf("sources: file source has a single partition")
	}
	s.mu.Lock()
	if to > int64(len(s.files)) || from < 0 || from > to {
		n := len(s.files)
		s.mu.Unlock()
		return nil, fmt.Errorf("sources: file range [%d,%d) out of bounds (have %d files)", from, to, n)
	}
	names := append([]string(nil), s.files[from:to]...)
	s.mu.Unlock()

	var out []sql.Row
	for _, name := range names {
		rows, err := s.readFile(filepath.Join(s.dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}

func (s *FileSource) readFile(path string) ([]sql.Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sources: %w", err)
	}
	defer f.Close()
	var out []sql.Row
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			// Mis-parsing input is the canonical §7.2 failure; surface the
			// file and line so administrators can find and fix it.
			return nil, fmt.Errorf("sources: %s:%d: bad JSON: %w", path, lineNo, err)
		}
		out = append(out, s.coerce(obj))
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("sources: %w", err)
	}
	return out, nil
}

// coerce maps a decoded JSON object onto the declared schema.
func (s *FileSource) coerce(obj map[string]any) sql.Row {
	row := make(sql.Row, s.schema.Len())
	for i, f := range s.schema.Fields {
		v, ok := obj[f.Name]
		if !ok || v == nil {
			continue
		}
		switch f.Type {
		case sql.TypeInt64:
			if n, isNum := v.(float64); isNum {
				row[i] = int64(n)
			} else {
				row[i] = sql.Cast(sql.Normalize(v), sql.TypeInt64)
			}
		case sql.TypeFloat64:
			row[i] = sql.Cast(sql.Normalize(v), sql.TypeFloat64)
		case sql.TypeString:
			if str, isStr := v.(string); isStr {
				row[i] = str
			} else {
				row[i] = sql.AsString(sql.Normalize(v))
			}
		case sql.TypeBool:
			row[i] = sql.Cast(sql.Normalize(v), sql.TypeBool)
		case sql.TypeTimestamp:
			switch x := v.(type) {
			case string:
				if us, err := sql.ParseTimestamp(x); err == nil {
					row[i] = us
				}
			case float64:
				row[i] = int64(x) // already µs
			}
		default:
			row[i] = sql.Normalize(v)
		}
	}
	return row
}
