package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// A Value is one cell of a row. The concrete dynamic types are:
//
//	nil          SQL NULL (any column type)
//	bool         TypeBool
//	int64        TypeInt64, TypeTimestamp (µs since epoch), TypeInterval (µs)
//	float64      TypeFloat64
//	string       TypeString
//	Window       TypeWindow
//	[]byte       TypeBinary
//
// Timestamps and intervals share int64 representation; the schema carries
// the distinction.
type Value = any

// Window is an event-time window [Start, End), in microseconds since the
// Unix epoch. It is the value produced by the window() function and is a
// valid grouping key.
type Window struct {
	Start int64 // inclusive, µs
	End   int64 // exclusive, µs
}

// String formats the window using RFC 3339 endpoints.
func (w Window) String() string {
	return fmt.Sprintf("[%s, %s)", FormatTimestamp(w.Start), FormatTimestamp(w.End))
}

// TimestampVal converts a time.Time to the engine's timestamp representation.
func TimestampVal(t time.Time) int64 { return t.UnixMicro() }

// FormatTimestamp renders a timestamp value as RFC 3339 with microseconds.
func FormatTimestamp(us int64) string {
	return time.UnixMicro(us).UTC().Format("2006-01-02T15:04:05.000000Z")
}

// ParseTimestamp parses the formats accepted for timestamp literals.
func ParseTimestamp(s string) (int64, error) {
	for _, layout := range []string{
		time.RFC3339Nano,
		"2006-01-02 15:04:05.999999999Z07:00",
		"2006-01-02 15:04:05.999999999",
		"2006-01-02 15:04:05",
		"2006-01-02",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UnixMicro(), nil
		}
	}
	return 0, fmt.Errorf("sql: cannot parse %q as timestamp", s)
}

// ParseInterval parses interval literals such as "10 seconds", "1 hour",
// "30 min", "1 day" or any Go duration string ("1h30m").
func ParseInterval(s string) (int64, error) {
	fields := strings.Fields(strings.ToLower(strings.TrimSpace(s)))
	if len(fields) == 2 {
		n, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("sql: bad interval %q: %v", s, err)
		}
		var unit time.Duration
		switch fields[1] {
		case "ms":
			return int64(n * float64(time.Millisecond.Microseconds())), nil
		case "us", "µs":
			return int64(n), nil
		case "s":
			return int64(n * float64(time.Second.Microseconds())), nil
		case "m":
			return int64(n * float64(time.Minute.Microseconds())), nil
		case "h":
			return int64(n * float64(time.Hour.Microseconds())), nil
		}
		switch strings.TrimSuffix(fields[1], "s") {
		case "microsecond", "us":
			unit = time.Microsecond
		case "millisecond", "ms":
			unit = time.Millisecond
		case "second", "sec":
			unit = time.Second
		case "minute", "min":
			unit = time.Minute
		case "hour", "hr":
			unit = time.Hour
		case "day":
			unit = 24 * time.Hour
		case "week":
			unit = 7 * 24 * time.Hour
		default:
			return 0, fmt.Errorf("sql: unknown interval unit %q", fields[1])
		}
		return int64(n * float64(unit.Microseconds())), nil
	}
	if d, err := time.ParseDuration(strings.ReplaceAll(s, " ", "")); err == nil {
		return d.Microseconds(), nil
	}
	return 0, fmt.Errorf("sql: cannot parse %q as interval", s)
}

// TypeOf reports the Type of a dynamic value. Int64 is reported for all
// int64 values; schema context distinguishes timestamps and intervals.
func TypeOf(v Value) Type {
	switch v.(type) {
	case nil:
		return TypeNull
	case bool:
		return TypeBool
	case int64:
		return TypeInt64
	case float64:
		return TypeFloat64
	case string:
		return TypeString
	case Window:
		return TypeWindow
	case []byte:
		return TypeBinary
	default:
		return TypeAny
	}
}

// Normalize converts convenient Go values (int, int32, time.Time,
// time.Duration, float32) to the engine's canonical representations.
func Normalize(v Value) Value {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case uint:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	case time.Time:
		return x.UnixMicro()
	case time.Duration:
		return x.Microseconds()
	default:
		return v
	}
}

// AsInt64 coerces a value to int64, truncating floats and parsing strings.
func AsInt64(v Value) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		return int64(x), true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case string:
		n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if ferr != nil {
				return 0, false
			}
			return int64(f), true
		}
		return n, true
	default:
		return 0, false
	}
}

// AsFloat64 coerces a value to float64.
func AsFloat64(v Value) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		return f, err == nil
	default:
		return 0, false
	}
}

// AsString renders a value in SQL display form; NULL renders as "NULL".
func AsString(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatFloat(x, 'f', 1, 64)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case Window:
		return x.String()
	case []byte:
		return fmt.Sprintf("0x%x", x)
	default:
		return fmt.Sprint(x)
	}
}

// AsBool coerces a value to bool.
func AsBool(v Value) (bool, bool) {
	switch x := v.(type) {
	case bool:
		return x, true
	case int64:
		return x != 0, true
	case string:
		b, err := strconv.ParseBool(strings.TrimSpace(x))
		return b, err == nil
	default:
		return false, false
	}
}

// Cast converts v to type t following SQL CAST semantics. NULL casts to NULL
// of any type. Failed string parses yield NULL (Spark behaviour) rather than
// an error.
func Cast(v Value, t Type) Value {
	if v == nil {
		return nil
	}
	switch t {
	case TypeBool:
		if b, ok := AsBool(v); ok {
			return b
		}
	case TypeInt64, TypeInterval:
		if n, ok := AsInt64(v); ok {
			return n
		}
	case TypeFloat64:
		if f, ok := AsFloat64(v); ok {
			return f
		}
	case TypeString:
		if ts, ok := v.(int64); ok && t == TypeString {
			return strconv.FormatInt(ts, 10)
		}
		return AsString(v)
	case TypeTimestamp:
		switch x := v.(type) {
		case int64:
			return x
		case float64:
			return int64(x * 1e6) // seconds → µs, matching Spark's cast(double as timestamp)
		case string:
			if us, err := ParseTimestamp(x); err == nil {
				return us
			}
		}
	case TypeBinary:
		switch x := v.(type) {
		case []byte:
			return x
		case string:
			return []byte(x)
		}
	case TypeAny:
		return v
	}
	return nil
}

// Compare orders two non-NULL values of a common type. The result is
// negative, zero, or positive. NULLs sort first and equal to each other,
// which matches the engine's ORDER BY and grouping semantics.
func Compare(a, b Value) int {
	if a == nil && b == nil {
		return 0
	}
	if a == nil {
		return -1
	}
	if b == nil {
		return 1
	}
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmpOrdered(x, y)
		case float64:
			return cmpOrdered(float64(x), y)
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return cmpOrdered(x, y)
		case int64:
			return cmpOrdered(x, float64(y))
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y)
		}
	case bool:
		if y, ok := b.(bool); ok {
			switch {
			case x == y:
				return 0
			case !x:
				return -1
			default:
				return 1
			}
		}
	case Window:
		if y, ok := b.(Window); ok {
			if c := cmpOrdered(x.Start, y.Start); c != 0 {
				return c
			}
			return cmpOrdered(x.End, y.End)
		}
	}
	// Incomparable dynamic types: fall back to string form so ordering is
	// still total and deterministic.
	return strings.Compare(AsString(a), AsString(b))
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
