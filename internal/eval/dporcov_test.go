package eval

import "testing"

// TestRenderDPORCoverage pins T8's rendering of the three ways a search
// ends: stopped on a finding, exhausted, and out of budget with cut runs.
// A finding must show in its own column, so a search that stopped early
// does not read like a clean one that ran out of budget.
func TestRenderDPORCoverage(t *testing.T) {
	rows := []DPORCoverageRow{
		{Mechanism: "csp", Problem: "writers-priority", Runs: 340, CutRuns: 339, BacktrackPoints: 51, DPORBlocked: 812, Found: true},
		{Mechanism: "monitor", Problem: "one-slot-buffer", Runs: 24, Exhausted: true, BacktrackPoints: 9, DPORBlocked: 40},
		{Mechanism: "semaphore", Problem: "disk-scheduler", Runs: 400, CutRuns: 234, BacktrackPoints: 77, DPORBlocked: 1300},
	}
	want := `T8. Exhaustion under partial-order reduction
------------------------------------------------------------------------------
mechanism  problem            runs    cut   done  found  backtrk  blocked
csp        writers-priority    340    339           yes       51      812
monitor    one-slot-buffer      24      0    yes               9       40
semaphore  disk-scheduler      400    234                     77     1300

cut: runs with a decision point at or past depth 12 (or longer than the
race pass walks), whose continuations the search never branched on.
done: the frontier emptied and no run was cut, so every schedule the
reduced search tells apart was judged.
found: the search stopped on a violation or kernel error, so its runs
and cuts end there: the row is neither clean nor out of budget.
`
	if got := RenderDPORCoverage(rows); got != want {
		t.Errorf("T8 rendering:\n%s\nwant:\n%s", got, want)
	}
}
