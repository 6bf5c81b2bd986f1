//go:build !race

// The race detector drops sync.Pool items at random, so allocation pins
// that depend on pooled scratch only hold in ordinary builds.

package synth

import "testing"

// TestOracleAllocatesNothing pins the derived oracle's steady state:
// once warm, judging a clean corpus trace allocates nothing.
func TestOracleAllocatesNothing(t *testing.T) {
	traces := corpusTraces(t, 100, true)
	for _, c := range traces {
		if allocs := testing.AllocsPerRun(5, func() { c.oracle(c.tr) }); allocs != 0 {
			t.Errorf("%s: judging a clean trace allocates %v times, want 0", c.name, allocs)
		}
	}
	t.Logf("%d clean traces judged without allocating", len(traces))
}
