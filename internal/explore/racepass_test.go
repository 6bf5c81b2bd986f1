package explore_test

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/synth"
)

// The synth corpus cases of TestRacePassMatchesVectorClocks: runs of the
// generated problems of seeds 1–40 under every mechanism that supports
// each.
func TestRacePassMatchesVectorClocksSynth(t *testing.T) {
	children := 0
	for seed := int64(1); seed <= 40; seed++ {
		set := synth.Generate(seed)
		for _, mech := range synth.Mechanisms() {
			if synth.Supports(mech, set) != nil {
				continue
			}
			prog, _, err := synth.Program(set, mech)
			if err != nil {
				t.Fatal(err)
			}
			n, err := explore.CompareRacePasses(prog, 12)
			if err != nil {
				t.Fatalf("%s/%s: %v", set.Name, mech, err)
			}
			children += n
		}
	}
	if children == 0 {
		t.Fatal("no synth run proposed a backtrack point")
	}
}
