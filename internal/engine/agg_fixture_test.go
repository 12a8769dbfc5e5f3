package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"structream/internal/sql/logical"
)

// TestAggBytesMatchParent: the grouped aggregate of agg_fixture_gen_test.go —
// window and string keys, count/sum/avg/min/max, NULL keys and inputs, late
// rows, a watermark that finalizes groups every epoch — leaves the state files
// and delivers the sink rows the parent commit did, byte for byte, in Update
// and Complete mode, over input decoded straight into columns ("vec=true")
// and read as boxed rows ("vec=false"), with one or two workers — and under either name
// Options.StateBackend accepts, "memory" as much as "lsm": both name the one
// engine. What the partial cell carries across the exchange is what
// Serialize + EncodeValues rendered, and what the typed loaders merge is what
// Deserialize read.
func TestAggBytesMatchParent(t *testing.T) {
	for _, mode := range []logical.OutputMode{logical.Update, logical.Complete} {
		name := aggFixtureName(mode)
		ref, err := os.ReadFile(filepath.Join("testdata", "parent-agg", name))
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Split(strings.TrimSuffix(string(ref), "\n"), "\n")
		var states, sinks int
		for _, line := range want {
			switch {
			case strings.HasPrefix(line, "state ") && strings.Contains(line, ".delta "):
				states++
			case strings.HasPrefix(line, "sink "):
				sinks++
			}
		}
		// The fixture has to hold deltas and rows, or the comparison below
		// says less than it seems to.
		if states < 2*aggFixtureEpochs || sinks < 10*aggFixtureEpochs {
			t.Fatalf("%s holds %d deltas and %d sink rows", name, states, sinks)
		}
		for _, backend := range []string{"memory", "lsm"} {
			for _, v := range aggFixtureVariants(backend) {
				t.Run(fmt.Sprintf("%s-%s/vec=%v/w%d", strings.ToLower(mode.String()), backend, v.columnar, v.opts.Workers), func(t *testing.T) {
					got := aggFixtureRun(t, mode, v)
					for i := 0; i < len(got) || i < len(want); i++ {
						switch {
						case i >= len(got):
							t.Fatalf("line %d: missing; the parent left %.60s…", i, want[i])
						case i >= len(want):
							t.Fatalf("line %d: %.60s… was not left by the parent", i, got[i])
						case got[i] != want[i]:
							t.Fatalf("line %d differs from the parent's:\n now    %s\n parent %s", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}
