package synth

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// TestAdaptersRunSampledSetsCleanly drives sampled sets under every
// correct adapter on two schedules and requires an oracle-clean trace.
// An honest constraint-induced stall (the sampler's witness is a
// heuristic, and the serializer's head-only eligibility can wedge) is
// tolerated as ErrDeadlock but never an oracle violation; anything else
// is an adapter bug.
func TestAdaptersRunSampledSetsCleanly(t *testing.T) {
	policies := []struct {
		name string
		mk   func() kernel.Policy
	}{
		{"fifo", kernel.FIFO},
		{"rand7", func() kernel.Policy { return kernel.Random(7) }},
	}
	deadlocks, runs := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		set := Generate(seed)
		for _, mech := range Mechanisms() {
			if mech == NaiveGate {
				continue // broken by design, covered below
			}
			if err := Supports(mech, set); err != nil {
				continue // pathexpr refusing is a verdict, not a failure
			}
			prog, oracle, err := Program(set, mech)
			if err != nil {
				t.Fatalf("seed %d/%s: %v", seed, mech, err)
			}
			for _, pc := range policies {
				runs++
				k := kernel.NewSim(kernel.WithPolicy(pc.mk()))
				rec := trace.NewRecorder(k)
				prog(k, rec)
				if err := k.Run(); err != nil {
					if errors.Is(err, kernel.ErrDeadlock) {
						deadlocks++
						continue
					}
					t.Errorf("seed %d/%s/%s: kernel error: %v", seed, mech, pc.name, err)
					continue
				}
				if vs := oracle(rec.Events()); len(vs) > 0 {
					t.Errorf("seed %d/%s/%s: oracle violations on a correct adapter: %v",
						seed, mech, pc.name, vs)
				}
			}
		}
	}
	// A few honest stalls are expected; a wedge-dominated corpus is not.
	if deadlocks*5 > runs {
		t.Fatalf("%d of %d runs deadlocked — constraint filters or adapters are off", deadlocks, runs)
	}
}

// TestCanonicalSetsRunCleanly runs the canonical encodings' own
// workloads (not the handwritten solutions) under every adapter.
func TestCanonicalSetsRunCleanly(t *testing.T) {
	for _, problem := range canonicalProblems {
		set, _ := Canonical(problem)
		for _, mech := range Mechanisms() {
			if mech == NaiveGate {
				continue
			}
			if err := Supports(mech, set); err != nil {
				continue
			}
			prog, oracle, err := Program(set, mech)
			if err != nil {
				t.Fatalf("%s/%s: %v", problem, mech, err)
			}
			k := kernel.NewSim()
			rec := trace.NewRecorder(k)
			prog(k, rec)
			if err := k.Run(); err != nil {
				t.Errorf("%s/%s: kernel error: %v", problem, mech, err)
				continue
			}
			if vs := oracle(rec.Events()); len(vs) > 0 {
				t.Errorf("%s/%s: violations: %v", problem, mech, vs)
			}
		}
	}
}

// TestNaiveGateIsCaughtAndSealed is the teeth check: exploration must
// catch the broken control on the readers-priority encoding (it ignores
// priority rules), and the finding must survive the shrink/seal/verify
// pipeline as a replayable artifact.
func TestNaiveGateIsCaughtAndSealed(t *testing.T) {
	set, _ := Canonical(problems.NameReadersPriority)
	prog, oracle, err := Program(set, NaiveGate)
	if err != nil {
		t.Fatal(err)
	}
	res := explore.Run(prog, oracle, explore.Options{
		RandomRuns: 400,
		DFSRuns:    0,
		Workers:    1,
		Prune:      true,
		Shrink:     true,
	})
	if !res.Found {
		t.Fatalf("exploration did not catch the naive gate (%d runs)", res.Runs)
	}
	sched := res.MinSchedule
	if len(sched) == 0 {
		sched = res.Schedule
	}
	f := explore.NewSchedFile(NaiveGate, set.Name, explore.ScenarioSynth, sched)
	if err := f.Seal(prog, oracle); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, _, err := f.Verify(prog, oracle); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestSupportsVerdicts(t *testing.T) {
	rp, _ := Canonical(problems.NameReadersPriority)
	if err := Supports("pathexpr", rp); err == nil {
		t.Error("pathexpr should refuse the readers-priority encoding (priority rule)")
	} else if !strings.Contains(err.Error(), "priority") {
		t.Errorf("refusal should cite the priority rule: %v", err)
	}
	bb, _ := Canonical(problems.NameBoundedBuffer)
	if err := Supports("pathexpr", bb); err != nil {
		t.Errorf("pathexpr should accept the bounded-buffer encoding: %v", err)
	}
	if err := Supports("quantum", bb); err == nil {
		t.Error("unknown mechanism should be rejected")
	}
}
