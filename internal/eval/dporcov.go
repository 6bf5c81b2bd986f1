package eval

import (
	"fmt"
	"strings"

	"repro/internal/explore"
	"repro/internal/problems"
	"repro/internal/solutions"
)

// DPORCoverageRow is one scenario's search under partial-order
// reduction at T8's fixed budget: what the search ran, what the
// reduction did, how many runs the depth bound cut, and whether the
// search exhausted.
type DPORCoverageRow struct {
	Mechanism string
	Problem   string

	Runs            int  // schedules judged
	Exhausted       bool // frontier emptied and no run was cut
	CutRuns         int  // runs with a decision point the search could not branch on
	BacktrackPoints int  // persistent-set branches pushed
	DPORBlocked     int  // commuting siblings never scheduled
	Found           bool // a violation was found (expected for none)
}

// RunDPORCoverage explores every T4 mechanism × problem pairing with
// DPOR on top of opts and tabulates the deterministic search stats. The
// per-scenario budget is fixed — DFS only, 400 runs to depth 12: deep
// enough that the reduction has races to act on, small enough that the
// 36-cell sweep stays interactive — so rows are comparable across
// mechanisms. At that depth most runs are cut, so most rows cannot
// claim exhaustion.
func RunDPORCoverage(opts explore.Options) ([]DPORCoverageRow, error) {
	opts.RandomRuns, opts.DFSRuns, opts.DFSDepth = -1, 400, 12
	opts.DPOR = true
	var rows []DPORCoverageRow
	for _, suite := range solutions.All() {
		for _, problem := range problems.AllProblems() {
			strict := !(suite.Mechanism == "pathexpr" && problem == problems.NameReadersPriority)
			prog, check, err := solutions.StandardProgram(suite, problem, strict)
			if err != nil {
				return nil, fmt.Errorf("T8 %s/%s: %w", suite.Mechanism, problem, err)
			}
			res := explore.Run(explore.Program(prog), check, opts)
			rows = append(rows, DPORCoverageRow{
				Mechanism:       suite.Mechanism,
				Problem:         problem,
				Runs:            res.Runs,
				Exhausted:       res.Stats.Exhausted,
				CutRuns:         res.Stats.CutRuns,
				BacktrackPoints: res.Stats.BacktrackPoints,
				DPORBlocked:     res.Stats.DPORBlocked,
				Found:           res.Found,
			})
		}
	}
	return rows, nil
}

// RenderDPORCoverage renders the T8 table.
func RenderDPORCoverage(rows []DPORCoverageRow) string {
	var b strings.Builder
	b.WriteString("T8. Exhaustion under partial-order reduction\n")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	fmt.Fprintf(&b, "%-10s %-16s %6s %6s %6s %6s %8s %8s\n",
		"mechanism", "problem", "runs", "cut", "done", "found", "backtrk", "blocked")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-16s %6d %6d %6s %6s %8d %8d\n",
			r.Mechanism, r.Problem, r.Runs, r.CutRuns, yes(r.Exhausted), yes(r.Found), r.BacktrackPoints, r.DPORBlocked)
	}
	b.WriteString("\ncut: runs with a decision point at or past depth 12 (or longer than the\n")
	b.WriteString("race pass walks), whose continuations the search never branched on.\n")
	b.WriteString("done: the frontier emptied and no run was cut, so every schedule the\n")
	b.WriteString("reduced search tells apart was judged.\n")
	b.WriteString("found: the search stopped on a violation or kernel error, so its runs\n")
	b.WriteString("and cuts end there: the row is neither clean nor out of budget.\n")
	return b.String()
}

// yes renders a flag as "yes" or blank.
func yes(b bool) string {
	if b {
		return "yes"
	}
	return ""
}
