package eval

import (
	"testing"

	"repro/internal/explore"
)

// RunCrossCheck sets only T7's budgets: a reduction the caller asks for
// reaches every hunt, so DPOR's backtrack points show in the progress
// snapshots.
func TestCrossCheckHonorsDPOR(t *testing.T) {
	backtracks := 0
	rows, err := RunCrossCheck(explore.Options{DPOR: true, Progress: func(s explore.Stats) {
		backtracks = max(backtracks, s.BacktrackPoints)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no cross-check rows")
	}
	if backtracks == 0 {
		t.Fatal("no hunt reported a DPOR backtrack point: the DPOR option did not reach the hunts")
	}
}
