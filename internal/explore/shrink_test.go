package explore

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// ruleSet collects the violation rules of a finding, the shrinker's
// preservation target.
func ruleSet(vs []problems.Violation) map[string]bool {
	set := make(map[string]bool, len(vs))
	for _, v := range vs {
		set[v.Rule] = true
	}
	return set
}

// hitsRule reports whether replaying schedule still triggers any of the
// target rules.
func hitsRule(t *testing.T, prog Program, schedule []kernel.Choice, rules map[string]bool, oracle Oracle) bool {
	t.Helper()
	tr, err := Replay(prog, schedule, 0)
	if err != nil {
		return false
	}
	for _, v := range oracle(tr) {
		if rules[v.Rule] {
			return true
		}
	}
	return false
}

// The shrinking property test: the minimized Figure-1 schedule still
// triggers the original violation rule, is drastically shorter than the
// finding (the acceptance bar is <= 25% of the original length), replays
// under strict ExactReplay (canonicalization), and is 1-minimal —
// removing any single choice no longer reproduces the violation.
func TestShrinkPreservesViolation(t *testing.T) {
	prog := figure1Program()
	oracle := Oracle(problems.CheckReadersPriority)
	res := Run(prog, oracle, Options{
		RandomRuns: 300, DFSRuns: 600, Shrink: true,
	})
	if !res.Found || res.Err != nil {
		t.Fatalf("no oracle finding: found=%v err=%v runs=%d", res.Found, res.Err, res.Runs)
	}
	if res.MinSchedule == nil {
		t.Fatalf("Shrink produced no MinSchedule (ShrinkRuns=%d)", res.ShrinkRuns)
	}
	if res.ShrinkRuns == 0 {
		t.Fatalf("ShrinkRuns = 0 with Shrink enabled")
	}
	rules := ruleSet(res.Violations)

	// Still the same violation.
	if !hitsRule(t, prog, res.MinSchedule, rules, oracle) {
		t.Fatalf("minimized schedule no longer triggers %v:\n%v", rules, res.MinSchedule)
	}

	// Much shorter than the finding.
	if len(res.MinSchedule)*4 > len(res.Schedule) {
		t.Fatalf("minimized schedule is %d choices, original %d (want <= 25%%)",
			len(res.MinSchedule), len(res.Schedule))
	}

	// Canonicalized: replays under strict ExactReplay, no drift.
	if _, _, _, divErr := exactReplay(prog, res.MinSchedule, 0); divErr != nil {
		t.Fatalf("MinSchedule is not canonical: %v", divErr)
	}

	// 1-minimal: dropping any single choice loses the violation.
	for i := range res.MinSchedule {
		cand := make([]kernel.Choice, 0, len(res.MinSchedule)-1)
		cand = append(cand, res.MinSchedule[:i]...)
		cand = append(cand, res.MinSchedule[i+1:]...)
		if hitsRule(t, prog, cand, rules, oracle) {
			t.Fatalf("not 1-minimal: removing choice %d of %v still violates", i, res.MinSchedule)
		}
	}
}

// Shrinking a kernel-error finding preserves the error class. A program
// that deadlocks under every schedule shrinks all the way to the empty
// schedule: plain FIFO already reproduces it.
func TestShrinkDeadlockFinding(t *testing.T) {
	prog := Program(func(k kernel.Kernel, r *trace.Recorder) {
		k.Spawn("stuck1", func(p *kernel.Proc) { p.Yield(); p.Park() })
		k.Spawn("stuck2", func(p *kernel.Proc) { p.Yield(); p.Park() })
	})
	res := Run(prog, func(trace.Trace) []problems.Violation { return nil },
		Options{RandomRuns: 3, DFSRuns: 0, Shrink: true})
	if !res.Found || !errors.Is(res.Err, kernel.ErrDeadlock) {
		t.Fatalf("res = %+v", res)
	}
	if len(res.MinSchedule) != 0 {
		t.Fatalf("MinSchedule = %v, want empty (FIFO deadlocks)", res.MinSchedule)
	}
	if _, err := Replay(prog, res.MinSchedule, 0); !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("replaying MinSchedule: err = %v, want deadlock", err)
	}
}

// The determinism contract extends to shrinking: with Shrink enabled the
// entire Result — MinSchedule, ShrinkRuns, Stats, everything — is
// byte-identical across Workers settings.
func TestShrinkWorkersDeterministic(t *testing.T) {
	oracle := Oracle(problems.CheckReadersPriority)
	cases := []struct {
		name string
		opts Options
	}{
		{"random-finding", Options{RandomRuns: 300, DFSRuns: 600, Shrink: true}},
		{"dfs-finding", Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24, Shrink: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqOpts := tc.opts
			seqOpts.Workers = 1
			parOpts := tc.opts
			parOpts.Workers = 8
			seq := Run(figure1Program(), oracle, seqOpts)
			par := Run(figure1Program(), oracle, parOpts)
			if !seq.Found {
				t.Fatalf("found nothing in %d runs", seq.Runs)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("Result depends on Workers with Shrink on:\n  w=1: %+v\n  w=8: %+v", seq, par)
			}
		})
	}
}

// Result.Stats carries only the deterministic counters, consistent with
// the rest of the Result; the wall-clock and pool fields are zeroed.
func TestResultStatsDeterministic(t *testing.T) {
	res := Run(figure1Program(), problems.CheckReadersPriority,
		Options{RandomRuns: 300, DFSRuns: 600, Shrink: true})
	want := StatsCore{
		Phase:      "done",
		Runs:       res.Runs,
		Pruned:     res.Pruned,
		ShrinkRuns: res.ShrinkRuns,
		ShrinkLen:  len(res.MinSchedule),
	}
	if res.Stats != want {
		t.Fatalf("Result.Stats = %+v, want %+v", res.Stats, want)
	}
}

// Progress snapshots arrive in phase order with monotonic counters, and
// observing them does not change the Result.
func TestProgressCallback(t *testing.T) {
	var snaps []Stats
	opts := Options{RandomRuns: 300, DFSRuns: 600, Shrink: true, Workers: 1}
	opts.Progress = func(s Stats) { snaps = append(snaps, s) }
	res := Run(figure1Program(), problems.CheckReadersPriority, opts)
	if !res.Found {
		t.Fatalf("found nothing in %d runs", res.Runs)
	}
	if len(snaps) == 0 {
		t.Fatal("Progress never called")
	}
	phaseRank := map[string]int{"baseline": 0, "random": 1, "dfs": 2, "shrink": 3, "done": 4}
	lastRank, lastRuns, lastShrink := -1, 0, 0
	sawShrink := false
	for i, s := range snaps {
		rank, ok := phaseRank[s.Phase]
		if !ok {
			t.Fatalf("snapshot %d: unknown phase %q", i, s.Phase)
		}
		if rank < lastRank {
			t.Fatalf("snapshot %d: phase %q after rank %d", i, s.Phase, lastRank)
		}
		if s.Runs < lastRuns || s.ShrinkRuns < lastShrink {
			t.Fatalf("snapshot %d: counters went backwards: %+v", i, s)
		}
		lastRank, lastRuns, lastShrink = rank, s.Runs, s.ShrinkRuns
		if s.Phase == "shrink" {
			sawShrink = true
		}
	}
	if !sawShrink {
		t.Fatal("no shrink-phase snapshot observed")
	}
	final := snaps[len(snaps)-1]
	if final.Phase != "done" || final.Runs != res.Runs || final.ShrinkRuns != res.ShrinkRuns {
		t.Fatalf("final snapshot %+v does not match Result (runs=%d shrinkRuns=%d)",
			final, res.Runs, res.ShrinkRuns)
	}
	// The same exploration without Progress returns the same Result.
	quiet := opts
	quiet.Progress = nil
	if again := Run(figure1Program(), problems.CheckReadersPriority, quiet); !reflect.DeepEqual(again, res) {
		t.Fatalf("Progress observation changed the Result:\n  with:    %+v\n  without: %+v", res, again)
	}
}
