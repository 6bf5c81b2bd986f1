package eval

import (
	"strings"
	"testing"

	"repro/internal/explore"
)

// A name the resolver does not know is an error that names it, never a
// panic.
func TestScenarioProgramRejects(t *testing.T) {
	for _, tc := range []struct{ mech, problem, scenario, bad string }{
		{"monitor", "readers-priority", "bogus", `"bogus"`},
		{"bogus", "readers-priority", explore.ScenarioFigure, `"bogus"`},
		{"naive-gate", "readers-priority", explore.ScenarioFigure, `"naive-gate"`},
		{"monitor", "fcfs", explore.ScenarioFigure, `"fcfs"`},
		{"bogus", "fcfs", explore.ScenarioStandard, `"bogus"`},
		{"monitor", "bogus", explore.ScenarioStandard, `"bogus"`},
		{"bogus", "synth/3", explore.ScenarioSynth, `"bogus"`},
		{"monitor", "synth/x3", explore.ScenarioSynth, `"synth/x3"`},
		{"monitor", "readers-priority", explore.ScenarioSynth, `"readers-priority"`},
		{"monitor", "cyclic-wait", explore.ScenarioXCheck, "monitor/cyclic-wait"},
	} {
		_, _, err := ScenarioProgram(tc.mech, tc.problem, tc.scenario)
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("ScenarioProgram(%q, %q, %q) = %v, want an error naming %s",
				tc.mech, tc.problem, tc.scenario, err, tc.bad)
		}
	}
}
