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

// Progress snapshots arrive in phase order with monotonic counters, the
// final one equals the Result's Stats, and observing them does not change
// the Result. Above Workers 1 the DFS overlaps the random phase on a
// tracker of its own, and the driver adopts it with a "dfs" snapshot once
// the random phase ends clean: mid-DFS on the deep Figure-1 rows, whose
// five seeds end first, and after the DFS on the two-process row, whose
// DFS exhausts in a few runs while one helper samples 300 seeds.
func TestProgressCallback(t *testing.T) {
	twoProcs := Program(func(k kernel.Kernel, r *trace.Recorder) {
		k.Spawn("a", func(p *kernel.Proc) { p.Yield() })
		k.Spawn("b", func(p *kernel.Proc) { p.Yield() })
	})
	for _, tc := range []struct {
		name    string
		prog    Program
		opts    Options
		workers int
		found   bool
		wantDFS bool
	}{
		{"random-finding", figure1Program(), Options{RandomRuns: 300, DFSRuns: 600, Shrink: true}, 1, true, false},
		{"overlap-workers-2", deepFigure1Program(), overlapFinding, 2, true, true},
		{"overlap-workers-4", deepFigure1Program(), overlapFinding, 4, true, true},
		{"overlap-dfs-ends-first", twoProcs, Options{RandomRuns: 300, DFSRuns: 100}, 2, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var snaps []Stats
			opts := tc.opts
			opts.Workers = tc.workers
			opts.Progress = func(s Stats) { snaps = append(snaps, s) }
			res := Run(tc.prog, problems.CheckReadersPriority, opts)
			if res.Found != tc.found {
				t.Fatalf("found = %v after %d runs, want %v", res.Found, res.Runs, tc.found)
			}
			if len(snaps) == 0 {
				t.Fatal("Progress never called")
			}
			phaseRank := map[string]int{"baseline": 0, "random": 1, "dfs": 2, "shrink": 3, "done": 4}
			lastRank, lastRuns, lastShrink := -1, 0, 0
			sawDFS, sawShrink := false, false
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
				sawDFS = sawDFS || s.Phase == "dfs"
				sawShrink = sawShrink || s.Phase == "shrink"
			}
			if sawShrink != tc.found {
				t.Fatalf("shrink-phase snapshot observed: %v, want %v", sawShrink, tc.found)
			}
			if sawDFS != tc.wantDFS {
				t.Fatalf("dfs-phase snapshot observed: %v, want %v", sawDFS, tc.wantDFS)
			}
			if final := snaps[len(snaps)-1]; final.StatsCore != res.Stats || final.Runs != res.Runs {
				t.Fatalf("final snapshot %+v does not match Result (runs=%d stats=%+v)", final, res.Runs, res.Stats)
			}
			// The same exploration without Progress returns the same Result.
			quiet := opts
			quiet.Progress = nil
			if again := Run(tc.prog, problems.CheckReadersPriority, quiet); !reflect.DeepEqual(again, res) {
				t.Fatalf("Progress observation changed the Result:\n  with:    %+v\n  without: %+v", res, again)
			}
		})
	}
}
