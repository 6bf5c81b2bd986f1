package eval

import (
	"repro/internal/solutions"
	"repro/internal/synclint"
)

// StaticModularity is the synclint escape analyzer's mechanical verdict
// for one mechanism's solution package: how many solution types the
// mechanism itself binds to their resource state (structurally protected
// accesses), and any state accesses that escaped every bracket. It is
// the static evidence behind the hand-assessed Encapsulation column of
// the T3 table — the two are pinned together by
// TestModularityStaticAgreement.
type StaticModularity struct {
	Mechanism string
	Summary   synclint.EscapeSummary
	// Escapes are accesses outside any bracket — empty for every shipped
	// solution (synclint gates CI on that).
	Escapes []synclint.Finding
	Err     error
}

// Encapsulated is the static T3 verdict: a majority of the package's
// solution types are mechanism-bound.
func (s StaticModularity) Encapsulated() bool { return s.Summary.Encapsulated() }

// StaticModularityTable derives the Encapsulation column from source: it
// runs the escape analyzer over each embedded solution package (the same
// text the independence analysis reads), in ModularityTable order.
func StaticModularityTable() []StaticModularity {
	var out []StaticModularity
	for _, r := range ModularityTable() {
		sm := StaticModularity{Mechanism: r.Mechanism}
		pkg, err := synclint.LoadFS(solutions.Sources, solutions.SourceDirs[r.Mechanism])
		if err != nil {
			sm.Err = err
		} else {
			sm.Summary, sm.Escapes = synclint.AnalyzeEscape(pkg)
		}
		out = append(out, sm)
	}
	return out
}
