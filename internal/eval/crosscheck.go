package eval

import (
	"fmt"
	"strings"

	"repro/internal/explore"
	"repro/internal/synclint/xcheck"
)

// CrossCheckRandomRuns and CrossCheckDFSRuns are the per-hunt
// exploration budgets of the T7 gate. They are fixed (rather than
// explore's defaults) so the table — including its run counts — is
// deterministic and can be pinned by the evalsync golden test: the
// seeded fixture confirms well inside this budget, and the budget is
// large enough that "unrealized" is meaningful evidence for a
// finding's allow reason, not an artifact of an undersized hunt.
const (
	CrossCheckRandomRuns = 60
	CrossCheckDFSRuns    = 200
)

// RunCrossCheck executes the T7 cross-validation gate: every
// lockorder/lostwakeup finding on the embedded solution sources (and
// the seeded cyclic-wait fixture) seeds a Prune+Shrink hunt that tries
// to realize the hazard on its standard workload. It sets T7's budgets on
// its copy of opts and keeps the rest (workers, DPOR, audit, progress);
// the results are identical for any worker count.
func RunCrossCheck(opts explore.Options) ([]xcheck.Row, error) {
	opts.RandomRuns, opts.DFSRuns = CrossCheckRandomRuns, CrossCheckDFSRuns
	return xcheck.Run(opts, "")
}

// RenderCrossCheck renders the T7 table.
func RenderCrossCheck(rows []xcheck.Row) string {
	var b strings.Builder
	b.WriteString("T7. Static deadlock findings cross-validated by schedule exploration\n\n")
	b.WriteString("  Every lockorder/lostwakeup finding on the embedded solutions — with allow\n")
	b.WriteString("  annotations deliberately ignored, so reasoned suppressions are re-litigated\n")
	b.WriteString("  rather than trusted — seeds a targeted exploration hunt that tries to realize\n")
	b.WriteString("  the hazard. \"confirmed\" seals a replayable schedule; \"unrealized\" after a\n")
	fmt.Fprintf(&b, "  %d-random + %d-DFS budget is evidence for the finding's allow reason.\n\n",
		CrossCheckRandomRuns, CrossCheckDFSRuns)
	fmt.Fprintf(&b, "  %-10s %-16s %-10s %-22s %-11s %s\n",
		"mechanism", "problem", "analyzer", "finding", "status", "runs")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %-16s %-10s %-22s %-11s %d\n",
			r.Mechanism, r.Problem, r.Finding.Analyzer,
			fmt.Sprintf("%s:%d", r.Finding.Pos.Filename, r.Finding.Pos.Line),
			r.Status, r.Runs)
	}
	confirmed, unrealized := 0, 0
	for _, r := range rows {
		switch r.Status {
		case "confirmed":
			confirmed++
		case "unrealized":
			unrealized++
		}
	}
	fmt.Fprintf(&b, "\n  %d finding(s): %d confirmed by exploration, %d unrealized under budget\n",
		len(rows), confirmed, unrealized)
	return b.String()
}
