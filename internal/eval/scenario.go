package eval

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/explore"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/synclint/xcheck"
	"repro/internal/synclint/xcheck/cyclicfix"
	"repro/internal/synth"
	"repro/internal/trace"
)

// ScenarioProgram rebuilds the program and oracle that a sealed schedule
// artifact's (mechanism, problem, scenario) fields name. It is the one
// resolver for the four scenarios the repository seals:
//
//   - explore.ScenarioFigure: FigureScenario on any solution suite's
//     readers-priority or writers-priority store, judged by that
//     problem's priority oracle;
//   - explore.ScenarioStandard: solutions.StandardProgram, non-strict;
//   - explore.ScenarioSynth: problem "synth/<seed>" is
//     synth.Generate(seed) under the named synth adapter, the naive-gate
//     control included;
//   - explore.ScenarioXCheck: synclint's cyclic-wait fixture, whose only
//     finding is a kernel deadlock, so its oracle finds nothing.
//
// Any other scenario, mechanism, problem or seed is an error naming it.
func ScenarioProgram(mechanism, problem, scenario string) (explore.Program, explore.Oracle, error) {
	switch scenario {
	case explore.ScenarioFigure, explore.ScenarioStandard:
	case explore.ScenarioSynth:
		digits, ok := strings.CutPrefix(problem, "synth/")
		seed, err := strconv.ParseInt(digits, 10, 64)
		if !ok || err != nil {
			return nil, nil, fmt.Errorf("eval: synth scenario wants problem synth/<seed>, not %q", problem)
		}
		return synth.Program(synth.Generate(seed), mechanism)
	case explore.ScenarioXCheck:
		if mechanism != xcheck.FixtureMechanism || problem != xcheck.FixtureProblem {
			return nil, nil, fmt.Errorf("eval: xcheck scenario is %s/%s, not %s/%s",
				xcheck.FixtureMechanism, xcheck.FixtureProblem, mechanism, problem)
		}
		return cyclicfix.Program, func(trace.Trace) []problems.Violation { return nil }, nil
	default:
		return nil, nil, fmt.Errorf("eval: unknown scenario %q", scenario)
	}
	suite, ok := solutions.ByMechanism(mechanism)
	if !ok {
		return nil, nil, fmt.Errorf("eval: unknown mechanism %q", mechanism)
	}
	if scenario == explore.ScenarioStandard {
		return solutions.StandardProgram(suite, problem, false)
	}
	switch problem {
	case problems.NameReadersPriority:
		return figureProgram(suite.NewReadersPriority), problems.CheckReadersPriority, nil
	case problems.NameWritersPriority:
		return figureProgram(suite.NewWritersPriority), problems.CheckWritersPriority, nil
	}
	return nil, nil, fmt.Errorf("eval: figure scenario supports readers-priority and writers-priority, not %q", problem)
}
