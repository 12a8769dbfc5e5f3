package sql

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeNull: "null", TypeBool: "boolean", TypeInt64: "bigint",
		TypeFloat64: "double", TypeString: "string", TypeTimestamp: "timestamp",
		TypeInterval: "interval", TypeWindow: "window", TypeBinary: "binary",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestTypeByName(t *testing.T) {
	for name, want := range map[string]Type{
		"bigint": TypeInt64, "int": TypeInt64, "double": TypeFloat64,
		"string": TypeString, "timestamp": TypeTimestamp, "bool": TypeBool,
	} {
		got, ok := TypeByName(name)
		if !ok || got != want {
			t.Errorf("TypeByName(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	if _, ok := TypeByName("frobnicate"); ok {
		t.Error("TypeByName accepted unknown type")
	}
}

func TestCommonType(t *testing.T) {
	cases := []struct {
		a, b, want Type
		ok         bool
	}{
		{TypeInt64, TypeInt64, TypeInt64, true},
		{TypeInt64, TypeFloat64, TypeFloat64, true},
		{TypeNull, TypeString, TypeString, true},
		{TypeTimestamp, TypeInterval, TypeTimestamp, true},
		{TypeString, TypeInt64, TypeNull, false},
		{TypeBool, TypeWindow, TypeNull, false},
	}
	for _, c := range cases {
		got, ok := CommonType(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("CommonType(%s, %s) = %s, %v; want %s, %v", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}

func TestParseInterval(t *testing.T) {
	cases := map[string]time.Duration{
		"10 seconds":       10 * time.Second,
		"1 hour":           time.Hour,
		"5 min":            5 * time.Minute,
		"30 minutes":       30 * time.Minute,
		"1 day":            24 * time.Hour,
		"2 weeks":          14 * 24 * time.Hour,
		"1h30m":            90 * time.Minute,
		"250 ms":           250 * time.Millisecond,
		"1.5 seconds":      1500 * time.Millisecond,
		"100 microseconds": 100 * time.Microsecond,
	}
	for in, want := range cases {
		got, err := ParseInterval(in)
		if err != nil {
			t.Errorf("ParseInterval(%q): %v", in, err)
			continue
		}
		if got != want.Microseconds() {
			t.Errorf("ParseInterval(%q) = %d, want %d", in, got, want.Microseconds())
		}
	}
	for _, bad := range []string{"", "ten seconds", "10 fortnights"} {
		if _, err := ParseInterval(bad); err == nil {
			t.Errorf("ParseInterval(%q) succeeded, want error", bad)
		}
	}
}

func TestParseTimestampRoundTrip(t *testing.T) {
	us := time.Date(2018, 6, 10, 12, 30, 45, 123456000, time.UTC).UnixMicro()
	s := FormatTimestamp(us)
	got, err := ParseTimestamp(s)
	if err != nil {
		t.Fatalf("ParseTimestamp(%q): %v", s, err)
	}
	if got != us {
		t.Fatalf("round trip: got %d, want %d", got, us)
	}
	if _, err := ParseTimestamp("2018-06-10"); err != nil {
		t.Errorf("date-only timestamp rejected: %v", err)
	}
	if _, err := ParseTimestamp("not a time"); err == nil {
		t.Error("bad timestamp accepted")
	}
}

func TestCast(t *testing.T) {
	cases := []struct {
		in   Value
		to   Type
		want Value
	}{
		{int64(42), TypeString, "42"},
		{"42", TypeInt64, int64(42)},
		{"3.5", TypeFloat64, 3.5},
		{3.9, TypeInt64, int64(3)},
		{int64(1), TypeBool, true},
		{"true", TypeBool, true},
		{nil, TypeInt64, nil},
		{"garbage", TypeInt64, nil}, // failed parses yield NULL, like Spark
		{1.5, TypeTimestamp, int64(1_500_000)},
	}
	for _, c := range cases {
		if got := Cast(c.in, c.to); got != c.want {
			t.Errorf("Cast(%v, %s) = %v, want %v", c.in, c.to, got, c.want)
		}
	}
}

func TestCompareOrderingProperties(t *testing.T) {
	// Antisymmetry and consistency of Compare over random int/float pairs.
	f := func(a, b int64) bool {
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a int64, b float64) bool {
		c1 := Compare(a, b)
		c2 := Compare(b, a)
		return c1 == -c2
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareNulls(t *testing.T) {
	if Compare(nil, nil) != 0 {
		t.Error("NULLs should compare equal for ordering")
	}
	if Compare(nil, int64(1)) != -1 || Compare(int64(1), nil) != 1 {
		t.Error("NULL should sort first")
	}
}

func TestCompareMixedNumeric(t *testing.T) {
	if Compare(int64(2), 2.0) != 0 {
		t.Error("2 should equal 2.0")
	}
	if Compare(int64(2), 2.5) >= 0 {
		t.Error("2 < 2.5")
	}
	if Compare(Window{1, 2}, Window{1, 3}) >= 0 {
		t.Error("window ordering by (start, end)")
	}
}

func TestAsString(t *testing.T) {
	cases := []struct {
		in   Value
		want string
	}{
		{nil, "NULL"},
		{int64(7), "7"},
		{true, "true"},
		{2.0, "2.0"},
		{"x", "x"},
		{[]byte{0xab}, "0xab"},
	}
	for _, c := range cases {
		if got := AsString(c.in); got != c.want {
			t.Errorf("AsString(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	now := time.Now()
	if got := Normalize(now); got != now.UnixMicro() {
		t.Errorf("Normalize(time.Time) = %v", got)
	}
	if got := Normalize(5 * time.Second); got != int64(5_000_000) {
		t.Errorf("Normalize(duration) = %v", got)
	}
	if got := Normalize(int(3)); got != int64(3) {
		t.Errorf("Normalize(int) = %v", got)
	}
	if got := Normalize(float32(1.5)); got != float64(1.5) {
		t.Errorf("Normalize(float32) = %v", got)
	}
}

func TestAsFloatAndInt(t *testing.T) {
	if f, ok := AsFloat64(int64(3)); !ok || f != 3 {
		t.Error("AsFloat64(int64)")
	}
	if n, ok := AsInt64("12"); !ok || n != 12 {
		t.Error("AsInt64(string)")
	}
	if n, ok := AsInt64("3.7"); !ok || n != 3 {
		t.Error("AsInt64 truncates float strings")
	}
	if _, ok := AsInt64(Window{}); ok {
		t.Error("AsInt64(Window) should fail")
	}
	if math.IsNaN(0) { // silence unused-import lint style
		t.Fatal()
	}
}
