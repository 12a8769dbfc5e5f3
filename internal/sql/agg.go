package sql

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// AggKind identifies a built-in aggregate function.
type AggKind int

// Supported aggregate functions. All of them are mergeable (they implement
// partial aggregation), which the engine relies on twice: map-side partial
// aggregation before the shuffle, and merging each epoch's partials into
// the long-lived buffers held in the state store.
const (
	AggCount AggKind = iota
	AggCountAll
	AggSum
	AggAvg
	AggMin
	AggMax
	AggFirst
	AggLast
	AggCountDistinct
	AggApproxCountDistinct
	AggStddev
	AggVariance
)

var aggNames = map[AggKind]string{
	AggCount: "count", AggCountAll: "count(*)", AggSum: "sum", AggAvg: "avg",
	AggMin: "min", AggMax: "max", AggFirst: "first", AggLast: "last",
	AggCountDistinct: "count_distinct", AggApproxCountDistinct: "approx_count_distinct",
	AggStddev: "stddev", AggVariance: "variance",
}

// AggKindByName resolves an aggregate function name.
func AggKindByName(name string) (AggKind, bool) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg", "mean":
		return AggAvg, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "first":
		return AggFirst, true
	case "last":
		return AggLast, true
	case "count_distinct":
		return AggCountDistinct, true
	case "approx_count_distinct":
		return AggApproxCountDistinct, true
	case "stddev", "stddev_samp":
		return AggStddev, true
	case "variance", "var_samp":
		return AggVariance, true
	default:
		return 0, false
	}
}

// AggExpr is an aggregate function call over a child expression. For
// count(*) the child is nil.
type AggExpr struct {
	Kind  AggKind
	Child Expr
}

// NewAgg builds an aggregate expression.
func NewAgg(kind AggKind, child Expr) *AggExpr { return &AggExpr{Kind: kind, Child: child} }

// Count builds count(child); CountAll builds count(*).
func Count(child Expr) *AggExpr { return NewAgg(AggCount, child) }

// CountAll builds count(*).
func CountAll() *AggExpr { return NewAgg(AggCountAll, nil) }

// SumOf builds sum(child).
func SumOf(child Expr) *AggExpr { return NewAgg(AggSum, child) }

// AvgOf builds avg(child).
func AvgOf(child Expr) *AggExpr { return NewAgg(AggAvg, child) }

// MinOf builds min(child).
func MinOf(child Expr) *AggExpr { return NewAgg(AggMin, child) }

// MaxOf builds max(child).
func MaxOf(child Expr) *AggExpr { return NewAgg(AggMax, child) }

func (a *AggExpr) String() string {
	if a.Kind == AggCountAll {
		return "count(*)"
	}
	return fmt.Sprintf("%s(%s)", aggNames[a.Kind], a.Child)
}

func (a *AggExpr) Children() []Expr {
	if a.Child == nil {
		return nil
	}
	return []Expr{a.Child}
}

func (a *AggExpr) WithChildren(children []Expr) Expr {
	if len(children) == 0 {
		return a
	}
	return &AggExpr{Kind: a.Kind, Child: children[0]}
}

// Bind on an aggregate is an error in scalar context; aggregates are planned
// by the Aggregate logical operator, which calls BindAgg instead.
func (a *AggExpr) Bind(Schema) (BoundExpr, error) {
	return BoundExpr{}, fmt.Errorf("sql: aggregate %s used outside GROUP BY context", a)
}

// ContainsAgg reports whether e contains any aggregate function call.
func ContainsAgg(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if _, ok := x.(*AggExpr); ok {
			found = true
		}
	})
	return found
}

// BoundAgg is a resolved aggregate: the compiled input expression plus a
// buffer factory. The engine drives it via AggBuffer.
type BoundAgg struct {
	Kind       AggKind
	Input      func(Row) Value // nil for count(*)
	ResultType Type
}

// BindAgg resolves an aggregate expression against the input schema.
func (a *AggExpr) BindAgg(schema Schema) (BoundAgg, error) {
	out := BoundAgg{Kind: a.Kind}
	if a.Kind == AggCountAll {
		out.ResultType = TypeInt64
		return out, nil
	}
	child, err := a.Child.Bind(schema)
	if err != nil {
		return BoundAgg{}, err
	}
	out.Input = child.Eval
	switch a.Kind {
	case AggCount, AggCountDistinct, AggApproxCountDistinct:
		out.ResultType = TypeInt64
	case AggSum:
		if !child.Type.Numeric() && child.Type != TypeInterval && child.Type != TypeNull {
			return BoundAgg{}, fmt.Errorf("sql: sum over non-numeric type %s", child.Type)
		}
		out.ResultType = child.Type
		if child.Type == TypeNull {
			out.ResultType = TypeInt64
		}
	case AggAvg, AggStddev, AggVariance:
		if !child.Type.Numeric() && child.Type != TypeNull {
			return BoundAgg{}, fmt.Errorf("sql: %s over non-numeric type %s", aggNames[a.Kind], child.Type)
		}
		out.ResultType = TypeFloat64
	case AggMin, AggMax, AggFirst, AggLast:
		out.ResultType = child.Type
	}
	return out, nil
}

// NewBuffer allocates an empty aggregation buffer for this aggregate.
func (b BoundAgg) NewBuffer() AggBuffer {
	switch b.Kind {
	case AggCount, AggCountAll:
		return &countBuffer{}
	case AggSum:
		if b.ResultType == TypeInt64 || b.ResultType == TypeInterval {
			return &sumIntBuffer{}
		}
		return &sumFloatBuffer{}
	case AggAvg:
		return &avgBuffer{}
	case AggMin:
		return &minMaxBuffer{isMin: true}
	case AggMax:
		return &minMaxBuffer{isMin: false}
	case AggFirst:
		return &firstLastBuffer{isFirst: true}
	case AggLast:
		return &firstLastBuffer{isFirst: false}
	case AggCountDistinct:
		return &distinctBuffer{seen: map[string]bool{}}
	case AggApproxCountDistinct:
		return newHLLBuffer()
	case AggStddev:
		return &momentsBuffer{stddev: true}
	case AggVariance:
		return &momentsBuffer{stddev: false}
	default:
		panic(fmt.Sprintf("sql: unknown aggregate kind %d", b.Kind))
	}
}

// AggBuffer is the mutable accumulation state of one aggregate for one
// group. AppendState/LoadState round-trip the buffer through its state
// bytes — a fixed list of wire values (wire.go) — so it can cross the
// exchange as a map-side partial and live in the state store between epochs:
// a partial is a state value, and has this one representation from the map
// task to the store.
type AggBuffer interface {
	// Update folds one input value into the buffer.
	Update(v Value)
	// Merge folds another buffer of the same concrete type into this one.
	Merge(other AggBuffer)
	// Result produces the final aggregate value.
	Result() Value
	// AppendState appends the buffer's state bytes to dst.
	AppendState(dst []byte) []byte
	// LoadState overwrites the buffer with AppendState output. It accepts
	// exactly the value list its AppendState writes (anything else is
	// corrupt state, and an error) and keeps no reference into data.
	LoadState(data []byte) error
}

// Every buffer also keeps Serialize() []Value and Deserialize([]Value) error,
// the boxed rendering of the same value list. No engine path calls them: they
// are the reference the typed state bytes are tested and fuzzed against
// (FuzzAggState), which is why they share no code with AppendState/LoadState.
// Deserialize may keep the values but not the slice.

// errAggState reports state bytes LoadState refuses.
func errAggState(buffer string) error { return fmt.Errorf("sql: bad %s buffer state", buffer) }

// Bulk update interfaces let the columnar hash-aggregate fold a whole
// vector's worth of per-group input into a buffer with one call instead of
// one Update per row. The contract that keeps results bit-identical to the
// row path: the caller accumulates each group's lanes in row order into a
// scalar (int64 wrap-around add, or float64 add starting from +0 on a
// fresh buffer) and hands over the partial exactly once, so the addition
// sequence the buffer observes matches what repeated Update calls would
// have produced.

// BulkCounter is implemented by buffers that count rows (count/count(*)).
type BulkCounter interface {
	// AddCount adds n accepted rows in one step.
	AddCount(n int64)
}

// BulkInt64Summer is implemented by buffers that sum int64 inputs.
type BulkInt64Summer interface {
	// AddInt64Sum adds a partial sum over n accepted (non-NULL int64) rows.
	AddInt64Sum(sum int64, n int64)
}

// BulkFloat64Summer is implemented by buffers that sum float64-coercible
// inputs.
type BulkFloat64Summer interface {
	// AddFloat64Sum adds a partial sum over n accepted (non-NULL numeric)
	// rows.
	AddFloat64Sum(sum float64, n int64)
}

// canonNaN collapses any NaN to the canonical quiet NaN before
// serialization. The same mathematical sum can carry different NaN
// payloads depending on generated code (hardware NaN propagation picks
// the destination operand's payload, and operand placement differs
// between the row path's per-value Update and the columnar path's slab
// accumulation), so buffers canonicalize at the serialization boundary to
// keep shuffle rows and stored state byte-identical across paths.
func canonNaN(f float64) float64 {
	if math.IsNaN(f) {
		return math.NaN()
	}
	return f
}

// ---------------------------------------------------------------- count

type countBuffer struct{ n int64 }

func (b *countBuffer) Update(v Value)                { b.n++ }
func (b *countBuffer) AddCount(n int64)              { b.n += n }
func (b *countBuffer) Merge(other AggBuffer)         { b.n += other.(*countBuffer).n }
func (b *countBuffer) Result() Value                 { return b.n }
func (b *countBuffer) AppendState(dst []byte) []byte { return AppendInt64(dst, b.n) }
func (b *countBuffer) LoadState(data []byte) error {
	n, pos := ReadInt64(data, 0)
	if pos != len(data) {
		return errAggState("count")
	}
	b.n = n
	return nil
}
func (b *countBuffer) Serialize() []Value { return []Value{b.n} }
func (b *countBuffer) Deserialize(vals []Value) error {
	if len(vals) != 1 {
		return fmt.Errorf("sql: bad count buffer %v", vals)
	}
	n, ok := vals[0].(int64)
	if !ok {
		return fmt.Errorf("sql: bad count buffer %v", vals)
	}
	b.n = n
	return nil
}

// ---------------------------------------------------------------- sum

type sumIntBuffer struct {
	sum int64
	any bool
}

func (b *sumIntBuffer) Update(v Value) {
	if n, ok := v.(int64); ok {
		b.sum += n
		b.any = true
	}
}
func (b *sumIntBuffer) AddInt64Sum(sum int64, n int64) {
	if n > 0 {
		b.sum += sum
		b.any = true
	}
}
func (b *sumIntBuffer) Merge(other AggBuffer) {
	o := other.(*sumIntBuffer)
	b.sum += o.sum
	b.any = b.any || o.any
}
func (b *sumIntBuffer) Result() Value {
	if !b.any {
		return nil
	}
	return b.sum
}
func (b *sumIntBuffer) AppendState(dst []byte) []byte {
	return AppendBool(AppendInt64(dst, b.sum), b.any)
}
func (b *sumIntBuffer) LoadState(data []byte) error {
	sum, pos := ReadInt64(data, 0)
	if pos < 0 {
		return errAggState("sum")
	}
	anyv, pos := ReadBool(data, pos)
	if pos != len(data) {
		return errAggState("sum")
	}
	b.sum, b.any = sum, anyv
	return nil
}
func (b *sumIntBuffer) Serialize() []Value { return []Value{b.sum, b.any} }
func (b *sumIntBuffer) Deserialize(vals []Value) error {
	if len(vals) != 2 {
		return fmt.Errorf("sql: bad sum buffer %v", vals)
	}
	sum, ok1 := vals[0].(int64)
	anyv, ok2 := vals[1].(bool)
	if !ok1 || !ok2 {
		return fmt.Errorf("sql: bad sum buffer %v", vals)
	}
	b.sum, b.any = sum, anyv
	return nil
}

type sumFloatBuffer struct {
	sum float64
	any bool
}

func (b *sumFloatBuffer) Update(v Value) {
	if f, ok := AsFloat64(v); ok && v != nil {
		b.sum += f
		b.any = true
	}
}
func (b *sumFloatBuffer) AddFloat64Sum(sum float64, n int64) {
	if n > 0 {
		b.sum += sum
		b.any = true
	}
}
func (b *sumFloatBuffer) Merge(other AggBuffer) {
	o := other.(*sumFloatBuffer)
	b.sum += o.sum
	b.any = b.any || o.any
}
func (b *sumFloatBuffer) Result() Value {
	if !b.any {
		return nil
	}
	return b.sum
}
func (b *sumFloatBuffer) AppendState(dst []byte) []byte {
	return AppendBool(AppendFloat64(dst, canonNaN(b.sum)), b.any)
}
func (b *sumFloatBuffer) LoadState(data []byte) error {
	sum, pos := ReadFloat64(data, 0)
	if pos < 0 {
		return errAggState("sum")
	}
	anyv, pos := ReadBool(data, pos)
	if pos != len(data) {
		return errAggState("sum")
	}
	b.sum, b.any = sum, anyv
	return nil
}
func (b *sumFloatBuffer) Serialize() []Value { return []Value{canonNaN(b.sum), b.any} }
func (b *sumFloatBuffer) Deserialize(vals []Value) error {
	if len(vals) != 2 {
		return fmt.Errorf("sql: bad sum buffer %v", vals)
	}
	sum, ok1 := vals[0].(float64)
	anyv, ok2 := vals[1].(bool)
	if !ok1 || !ok2 {
		return fmt.Errorf("sql: bad sum buffer %v", vals)
	}
	b.sum, b.any = sum, anyv
	return nil
}

// ---------------------------------------------------------------- avg

type avgBuffer struct {
	sum float64
	n   int64
}

func (b *avgBuffer) Update(v Value) {
	if f, ok := AsFloat64(v); ok && v != nil {
		b.sum += f
		b.n++
	}
}
func (b *avgBuffer) AddFloat64Sum(sum float64, n int64) {
	if n > 0 {
		b.sum += sum
		b.n += n
	}
}
func (b *avgBuffer) Merge(other AggBuffer) {
	o := other.(*avgBuffer)
	b.sum += o.sum
	b.n += o.n
}
func (b *avgBuffer) Result() Value {
	if b.n == 0 {
		return nil
	}
	return b.sum / float64(b.n)
}
func (b *avgBuffer) AppendState(dst []byte) []byte {
	return AppendInt64(AppendFloat64(dst, canonNaN(b.sum)), b.n)
}
func (b *avgBuffer) LoadState(data []byte) error {
	sum, pos := ReadFloat64(data, 0)
	if pos < 0 {
		return errAggState("avg")
	}
	n, pos := ReadInt64(data, pos)
	if pos != len(data) {
		return errAggState("avg")
	}
	b.sum, b.n = sum, n
	return nil
}
func (b *avgBuffer) Serialize() []Value { return []Value{canonNaN(b.sum), b.n} }
func (b *avgBuffer) Deserialize(vals []Value) error {
	if len(vals) != 2 {
		return fmt.Errorf("sql: bad avg buffer %v", vals)
	}
	sum, ok1 := vals[0].(float64)
	n, ok2 := vals[1].(int64)
	if !ok1 || !ok2 {
		return fmt.Errorf("sql: bad avg buffer %v", vals)
	}
	b.sum, b.n = sum, n
	return nil
}

// ---------------------------------------------------------------- min/max

type minMaxBuffer struct {
	val   Value
	isMin bool
}

func (b *minMaxBuffer) Update(v Value) {
	if v == nil {
		return
	}
	if b.val == nil {
		b.val = v
		return
	}
	c := Compare(v, b.val)
	if b.isMin && c < 0 || !b.isMin && c > 0 {
		b.val = v
	}
}
func (b *minMaxBuffer) Merge(other AggBuffer) { b.Update(other.(*minMaxBuffer).val) }
func (b *minMaxBuffer) Result() Value         { return b.val }
func (b *minMaxBuffer) AppendState(dst []byte) []byte {
	return AppendBool(AppendValue(dst, b.val), b.isMin)
}
func (b *minMaxBuffer) LoadState(data []byte) error {
	val, pos := ReadValue(data, 0)
	if pos < 0 {
		return errAggState("min/max")
	}
	isMin, pos := ReadBool(data, pos)
	if pos != len(data) {
		return errAggState("min/max")
	}
	b.val, b.isMin = val, isMin
	return nil
}
func (b *minMaxBuffer) Serialize() []Value { return []Value{b.val, b.isMin} }
func (b *minMaxBuffer) Deserialize(vals []Value) error {
	if len(vals) != 2 {
		return fmt.Errorf("sql: bad min/max buffer %v", vals)
	}
	isMin, ok := vals[1].(bool)
	if !ok {
		return fmt.Errorf("sql: bad min/max buffer %v", vals)
	}
	b.val, b.isMin = vals[0], isMin
	return nil
}

// ---------------------------------------------------------------- first/last

type firstLastBuffer struct {
	val     Value
	set     bool
	isFirst bool
}

func (b *firstLastBuffer) Update(v Value) {
	if v == nil {
		return
	}
	if b.isFirst && b.set {
		return
	}
	b.val = v
	b.set = true
}
func (b *firstLastBuffer) Merge(other AggBuffer) {
	o := other.(*firstLastBuffer)
	if !o.set {
		return
	}
	if b.isFirst && b.set {
		return
	}
	b.val, b.set = o.val, true
}
func (b *firstLastBuffer) Result() Value { return b.val }
func (b *firstLastBuffer) AppendState(dst []byte) []byte {
	return AppendBool(AppendBool(AppendValue(dst, b.val), b.set), b.isFirst)
}
func (b *firstLastBuffer) LoadState(data []byte) error {
	val, pos := ReadValue(data, 0)
	if pos < 0 {
		return errAggState("first/last")
	}
	set, pos := ReadBool(data, pos)
	if pos < 0 {
		return errAggState("first/last")
	}
	isFirst, pos := ReadBool(data, pos)
	if pos != len(data) {
		return errAggState("first/last")
	}
	b.val, b.set, b.isFirst = val, set, isFirst
	return nil
}
func (b *firstLastBuffer) Serialize() []Value { return []Value{b.val, b.set, b.isFirst} }
func (b *firstLastBuffer) Deserialize(vals []Value) error {
	if len(vals) != 3 {
		return fmt.Errorf("sql: bad first/last buffer %v", vals)
	}
	set, ok1 := vals[1].(bool)
	isFirst, ok2 := vals[2].(bool)
	if !ok1 || !ok2 {
		return fmt.Errorf("sql: bad first/last buffer %v", vals)
	}
	b.val, b.set, b.isFirst = vals[0], set, isFirst
	return nil
}

// ---------------------------------------------------------------- distinct

type distinctBuffer struct{ seen map[string]bool }

func (b *distinctBuffer) Update(v Value) {
	if v == nil {
		return
	}
	b.seen[AsString(v)+"\x00"+TypeOf(v).String()] = true
}
func (b *distinctBuffer) Merge(other AggBuffer) {
	for k := range other.(*distinctBuffer).seen {
		b.seen[k] = true
	}
}
func (b *distinctBuffer) Result() Value { return int64(len(b.seen)) }

// sortedKeys is the set in the order its state lists it.
func (b *distinctBuffer) sortedKeys() []string {
	keys := make([]string, 0, len(b.seen))
	for k := range b.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
func (b *distinctBuffer) AppendState(dst []byte) []byte {
	for _, k := range b.sortedKeys() {
		dst = AppendString(dst, k)
	}
	return dst
}
func (b *distinctBuffer) LoadState(data []byte) error {
	seen := map[string]bool{}
	for pos := 0; pos < len(data); {
		var k []byte
		if k, pos = ReadBytes(data, pos, WireString); pos < 0 {
			return errAggState("distinct")
		}
		seen[string(k)] = true
	}
	b.seen = seen
	return nil
}
func (b *distinctBuffer) Serialize() []Value {
	keys := b.sortedKeys()
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = k
	}
	return out
}
func (b *distinctBuffer) Deserialize(vals []Value) error {
	b.seen = make(map[string]bool, len(vals))
	for _, v := range vals {
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("sql: bad distinct buffer element %v", v)
		}
		b.seen[s] = true
	}
	return nil
}

// ---------------------------------------------------------------- HLL

// hllBuffer implements approx_count_distinct with a HyperLogLog sketch
// (2^10 registers, ~3% standard error), the kind of sketch Spark uses.
type hllBuffer struct{ regs []byte }

const hllP = 10 // 1024 registers

func newHLLBuffer() *hllBuffer { return &hllBuffer{regs: make([]byte, 1<<hllP)} }

func (b *hllBuffer) Update(v Value) {
	if v == nil {
		return
	}
	h := fnvHash64(AsString(v))
	idx := h >> (64 - hllP)
	rest := h<<hllP | 1<<(hllP-1) // ensure termination
	rank := byte(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > b.regs[idx] {
		b.regs[idx] = rank
	}
}

func (b *hllBuffer) Merge(other AggBuffer) {
	o := other.(*hllBuffer)
	for i, r := range o.regs {
		if r > b.regs[i] {
			b.regs[i] = r
		}
	}
}

func (b *hllBuffer) Result() Value {
	m := float64(len(b.regs))
	var sum float64
	zeros := 0
	for _, r := range b.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros)) // small-range correction
	}
	return int64(est + 0.5)
}

func (b *hllBuffer) AppendState(dst []byte) []byte { return AppendBinary(dst, b.regs) }
func (b *hllBuffer) LoadState(data []byte) error {
	regs, pos := ReadBytes(data, 0, WireBinary)
	if pos != len(data) || len(regs) != 1<<hllP {
		return errAggState("hll")
	}
	b.regs = append(b.regs[:0], regs...)
	return nil
}
func (b *hllBuffer) Serialize() []Value { return []Value{append([]byte(nil), b.regs...)} }
func (b *hllBuffer) Deserialize(vals []Value) error {
	if len(vals) != 1 {
		return fmt.Errorf("sql: bad hll buffer")
	}
	regs, ok := vals[0].([]byte)
	if !ok || len(regs) != 1<<hllP {
		return fmt.Errorf("sql: bad hll buffer")
	}
	b.regs = append([]byte(nil), regs...)
	return nil
}

func fnvHash64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// ---------------------------------------------------------------- moments

// momentsBuffer computes sample variance/stddev with Welford/Chan's
// parallel-merge formulation, so partial buffers merge exactly.
type momentsBuffer struct {
	n      int64
	mean   float64
	m2     float64
	stddev bool
}

func (b *momentsBuffer) Update(v Value) {
	f, ok := AsFloat64(v)
	if !ok || v == nil {
		return
	}
	b.n++
	d := f - b.mean
	b.mean += d / float64(b.n)
	b.m2 += d * (f - b.mean)
}

func (b *momentsBuffer) Merge(other AggBuffer) {
	o := other.(*momentsBuffer)
	if o.n == 0 {
		return
	}
	if b.n == 0 {
		b.n, b.mean, b.m2 = o.n, o.mean, o.m2
		return
	}
	n := b.n + o.n
	d := o.mean - b.mean
	b.m2 += o.m2 + d*d*float64(b.n)*float64(o.n)/float64(n)
	b.mean += d * float64(o.n) / float64(n)
	b.n = n
}

func (b *momentsBuffer) Result() Value {
	if b.n < 2 {
		return nil
	}
	variance := b.m2 / float64(b.n-1)
	if b.stddev {
		return math.Sqrt(variance)
	}
	return variance
}

func (b *momentsBuffer) AppendState(dst []byte) []byte {
	return AppendBool(AppendFloat64(AppendFloat64(AppendInt64(dst, b.n), b.mean), b.m2), b.stddev)
}
func (b *momentsBuffer) LoadState(data []byte) error {
	n, pos := ReadInt64(data, 0)
	if pos < 0 {
		return errAggState("moments")
	}
	mean, pos := ReadFloat64(data, pos)
	if pos < 0 {
		return errAggState("moments")
	}
	m2, pos := ReadFloat64(data, pos)
	if pos < 0 {
		return errAggState("moments")
	}
	sd, pos := ReadBool(data, pos)
	if pos != len(data) {
		return errAggState("moments")
	}
	b.n, b.mean, b.m2, b.stddev = n, mean, m2, sd
	return nil
}
func (b *momentsBuffer) Serialize() []Value { return []Value{b.n, b.mean, b.m2, b.stddev} }
func (b *momentsBuffer) Deserialize(vals []Value) error {
	if len(vals) != 4 {
		return fmt.Errorf("sql: bad moments buffer %v", vals)
	}
	n, ok1 := vals[0].(int64)
	mean, ok2 := vals[1].(float64)
	m2, ok3 := vals[2].(float64)
	sd, ok4 := vals[3].(bool)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("sql: bad moments buffer %v", vals)
	}
	b.n, b.mean, b.m2, b.stddev = n, mean, m2, sd
	return nil
}
