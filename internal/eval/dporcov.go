package eval

import (
	"fmt"
	"strings"

	"repro/internal/explore"
	"repro/internal/problems"
	"repro/internal/solutions"
)

// DPORCoverageRow is one scenario's schedule-space coverage under the
// partial-order-reduced search: how big the space is (analytically, from
// the baseline run's happens-before order), how much of it the budget
// covered, and what the reduction did.
type DPORCoverageRow struct {
	Mechanism string
	Problem   string

	Runs            int     // schedules judged
	Exhausted       bool    // frontier emptied before the budget
	BacktrackPoints int     // persistent-set branches pushed
	DPORBlocked     int     // commuting siblings never scheduled
	SpaceLog2       float64 // log2 of the scenario's interleaving count
	Exact           bool    // exact linear-extension count vs upper bound
	Explored        float64 // covered fraction of the space
	Found           bool    // a violation was found (expected for none)
}

// RunDPORCoverage measures schedule-space coverage for every T4
// mechanism × problem pairing: each standard scenario is explored with
// DPOR on top of opts and its deterministic coverage stats are
// tabulated. The per-scenario budget is fixed — DFS only, 400 runs to
// depth 12: deep enough that the reduction has races to act on, small
// enough that the 36-cell sweep stays interactive — so rows are
// comparable across mechanisms.
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
				BacktrackPoints: res.Stats.BacktrackPoints,
				DPORBlocked:     res.Stats.DPORBlocked,
				SpaceLog2:       res.Stats.ScheduleSpaceLog2,
				Exact:           res.Stats.ScheduleSpaceExact,
				Explored:        res.Stats.ExploredFraction,
				Found:           res.Found,
			})
		}
	}
	return rows, nil
}

// RenderDPORCoverage renders the T8 table.
func RenderDPORCoverage(rows []DPORCoverageRow) string {
	var b strings.Builder
	b.WriteString("T8. Schedule-space coverage under partial-order reduction\n")
	b.WriteString(strings.Repeat("-", 78) + "\n")
	fmt.Fprintf(&b, "%-10s %-16s %6s %6s %8s %8s %10s %9s\n",
		"mechanism", "problem", "runs", "done", "backtrk", "blocked", "space", "explored")
	for _, r := range rows {
		space := fmt.Sprintf("2^%.1f", r.SpaceLog2)
		if !r.Exact {
			space = "≤" + space
		}
		done := ""
		if r.Exhausted {
			done = "yes"
		}
		fmt.Fprintf(&b, "%-10s %-16s %6d %6s %8d %8d %10s %9.2g\n",
			r.Mechanism, r.Problem, r.Runs, done, r.BacktrackPoints, r.DPORBlocked,
			space, r.Explored)
	}
	b.WriteString("\nspace: interleaving count from the baseline run's happens-before order\n")
	b.WriteString("(exact linear-extension count unless ≤, the chain-multinomial bound);\n")
	b.WriteString("explored: judged fraction of that space, 1 when the frontier exhausted.\n")
	return b.String()
}
