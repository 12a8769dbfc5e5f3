package vec

import (
	"math/rand"
	"testing"
)

// BenchmarkEqStrConst times string = against a literal, the Yahoo!
// query's event_type = 'view' filter: one op compares 64 Ki lanes, drawn
// at random from three event types, with one literal. The view shape's
// literal is 4 bytes; the long shape's is 12, beyond a machine word. It
// fails unless the kernel's true verdicts are exactly the lanes that hold
// the literal.
func BenchmarkEqStrConst(b *testing.B) {
	const lanes = 64 << 10
	for _, shape := range []struct {
		name   string
		values []string
		lit    string
	}{
		{"view", []string{"view", "click", "purchase"}, "view"},
		{"long", []string{"impression:a", "impression:b", "click"}, "impression:a"},
	} {
		rng := rand.New(rand.NewSource(62))
		in := make([]string, lanes)
		want := 0
		for i := range in {
			in[i] = shape.values[rng.Intn(len(shape.values))]
			if in[i] == shape.lit {
				want++
			}
		}
		out := make([]bool, lanes)
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eqStrVC(in, shape.lit, false, out)
			}
			b.StopTimer()
			got := 0
			for _, v := range out {
				if v {
					got++
				}
			}
			if got != want {
				b.Fatalf("%d true verdicts, want %d", got, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*lanes), "ns/lane")
		})
	}
}
