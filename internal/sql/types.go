// Package sql implements the relational data model underlying structream:
// dynamically typed rows, schemas, SQL values with NULL semantics, scalar
// expressions, and aggregate functions. It is the Go analogue of the Spark
// SQL layer that the paper's Structured Streaming engine builds on.
package sql

import "fmt"

// Type identifies the SQL data type of a column or expression.
type Type int

// The supported SQL data types. TypeAny is used by a handful of functions
// (e.g. coalesce) whose result type depends on their arguments; the analyzer
// resolves it away before execution.
const (
	TypeNull Type = iota
	TypeBool
	TypeInt64
	TypeFloat64
	TypeString
	TypeTimestamp // microseconds since the Unix epoch, stored as int64
	TypeInterval  // microseconds of duration, stored as int64
	TypeWindow    // an event-time window: [Start, End) in microseconds
	TypeBinary    // opaque bytes, used by stateful-operator state columns
	TypeAny
)

// String returns the lower-case SQL-style name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "null"
	case TypeBool:
		return "boolean"
	case TypeInt64:
		return "bigint"
	case TypeFloat64:
		return "double"
	case TypeString:
		return "string"
	case TypeTimestamp:
		return "timestamp"
	case TypeInterval:
		return "interval"
	case TypeWindow:
		return "window"
	case TypeBinary:
		return "binary"
	case TypeAny:
		return "any"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// TypeByName resolves a SQL type name (as accepted by CAST) to a Type.
func TypeByName(name string) (Type, bool) {
	switch name {
	case "boolean", "bool":
		return TypeBool, true
	case "bigint", "int", "integer", "long", "smallint", "tinyint":
		return TypeInt64, true
	case "double", "float", "real", "decimal":
		return TypeFloat64, true
	case "string", "varchar", "text", "char":
		return TypeString, true
	case "timestamp":
		return TypeTimestamp, true
	case "interval":
		return TypeInterval, true
	case "binary":
		return TypeBinary, true
	default:
		return TypeNull, false
	}
}

// Numeric reports whether t is an arithmetic type.
func (t Type) Numeric() bool { return t == TypeInt64 || t == TypeFloat64 }

// CommonType returns the widest type two operands promote to for comparison
// or arithmetic, following the usual SQL numeric-promotion rules. It returns
// false when the types are incompatible.
func CommonType(a, b Type) (Type, bool) {
	if a == b {
		return a, true
	}
	if a == TypeNull {
		return b, true
	}
	if b == TypeNull {
		return a, true
	}
	if a == TypeAny {
		return b, true
	}
	if b == TypeAny {
		return a, true
	}
	if a.Numeric() && b.Numeric() {
		return TypeFloat64, true
	}
	// Timestamp arithmetic with intervals keeps the timestamp type.
	if (a == TypeTimestamp && b == TypeInterval) || (a == TypeInterval && b == TypeTimestamp) {
		return TypeTimestamp, true
	}
	// Timestamps and intervals share int64 representation; comparisons with
	// integer literals promote to the time type.
	if a == TypeTimestamp && b == TypeInt64 || a == TypeInt64 && b == TypeTimestamp {
		return TypeTimestamp, true
	}
	if a == TypeInterval && b == TypeInt64 || a == TypeInt64 && b == TypeInterval {
		return TypeInterval, true
	}
	return TypeNull, false
}
