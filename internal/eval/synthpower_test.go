package eval

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/synth"
)

// One corpus seed with known discriminating power (the naive-gate
// control loses a race on it at the T9 budget) exercises the whole
// sweep: every adapter gets a row, the control fails, the correct
// mechanisms do not, and the rendering carries the verdict columns.
func TestSynthPowerSingleSeed(t *testing.T) {
	rows, err := RunSynthPower(1, 21, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(synth.Mechanisms()) {
		t.Fatalf("rows = %d, want one per mechanism (%d)", len(rows), len(synth.Mechanisms()))
	}
	for _, r := range rows {
		total := r.Pass + r.Fail + r.Deadlock + r.Error + r.Inexpressible
		if total != 1 {
			t.Errorf("%s: verdicts sum to %d, want 1", r.Mechanism, total)
		}
		if r.Mechanism == synth.NaiveGate && r.Fail != 1 {
			t.Errorf("naive-gate on seed 21: fail = %d, want 1 (corpus lost its teeth?)", r.Fail)
		}
		if r.Mechanism != synth.NaiveGate && r.Fail+r.Error > 0 {
			t.Errorf("%s: fail=%d error=%d on a set a correct mechanism must pass", r.Mechanism, r.Fail, r.Error)
		}
	}
	out := RenderSynthPower(rows, 1, 21)
	for _, want := range []string{"T9.", "naive-gate", "mechanism", "shape"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
