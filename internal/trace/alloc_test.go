//go:build !race

// The race detector drops sync.Pool items at random, so allocation pins
// that depend on pooled scratch only hold in ordinary builds.

package trace

import "testing"

func TestAppendIntervalsAllocatesNothing(t *testing.T) {
	tr := append(inflightTrace(t, 6), serialTrace(t, 4)...)
	for i := range tr[len(tr)-12:] {
		tr[len(tr)-12+i].ProcID = -3 // outside the dense id range
	}
	want, err := tr.Intervals()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Interval, 0, len(want))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tr.AppendIntervals(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendIntervals into a large enough buffer allocates %v times, want 0", allocs)
	}
}
