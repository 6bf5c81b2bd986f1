package explore

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/solutions/monitorsol"
	"repro/internal/solutions/pathexprsol"
	"repro/internal/trace"
)

// The snapshot/restore equivalence suite: for every T4 mechanism×problem
// pairing, run a random schedule, checkpoint at a random visible step,
// restore, run to completion, and require the trace and run fingerprint
// byte-identical to the uncheckpointed run. This is the soundness
// argument for checkpointed DFS applied to the whole solution matrix.
func TestSnapshotRestoreTracesIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite sweep")
	}
	for _, suite := range solutions.All() {
		for _, problem := range problems.AllProblems() {
			prog, _, err := solutions.StandardProgram(suite, problem, false)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(suite.Mechanism) + 31*len(problem))))
			for _, seed := range []int64{1, 2, 7, 42} {
				base := kernel.NewSim(kernel.WithPolicy(kernel.Random(seed)), kernel.WithDepTrace())
				br := trace.NewRecorder(base)
				base.SetDecisionMark(br.LenCooperative)
				prog(base, br)
				baseErr := base.Run()
				schedule := base.Choices()
				visible := base.StepVisibility()

				// Checkpoint at a random visible step of the run.
				var candidates []int
				for i := 1; i < len(schedule); i++ {
					if i-1 < len(visible) && visible[i-1] {
						candidates = append(candidates, i)
					}
				}
				if len(candidates) == 0 {
					continue
				}
				depth := candidates[rng.Intn(len(candidates))]
				snap, err := base.SnapshotAt(depth)
				if err != nil {
					t.Fatalf("%s/%s seed %d: SnapshotAt(%d): %v",
						suite.Mechanism, problem, seed, depth, err)
				}
				baseTrace := br.Events()

				restored := kernel.NewSim(kernel.WithDepTrace())
				rr := trace.NewRecorder(restored)
				restored.SetDecisionMark(rr.LenCooperative)
				restored.Restore(snap, kernel.WithPolicy(kernel.Replay(schedule[depth:])))
				rr.ResumeFrom(baseTrace[:snap.Events])
				prog(restored, rr)
				restoredErr := restored.Run()

				if (baseErr == nil) != (restoredErr == nil) {
					t.Fatalf("%s/%s seed %d depth %d: base err %v, restored err %v",
						suite.Mechanism, problem, seed, depth, baseErr, restoredErr)
				}
				if got := rr.Events(); !reflect.DeepEqual(got, baseTrace) {
					t.Fatalf("%s/%s seed %d depth %d: restored trace diverged\nbase:\n%s\nrestored:\n%s",
						suite.Mechanism, problem, seed, depth, baseTrace, got)
				}
				if got, want := restored.RunFingerprint(), base.RunFingerprint(); got != want {
					t.Fatalf("%s/%s seed %d depth %d: run fingerprint %#x, want %#x",
						suite.Mechanism, problem, seed, depth, got, want)
				}
				// The dependency trace DPOR consumes must be equally
				// stable across snapshot/restore: prefix records served
				// from the snapshot, suffix re-recorded live, byte-equal
				// to the uncheckpointed run's.
				if got, want := restored.DepAccesses(), base.DepAccesses(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s seed %d depth %d: restored dependency trace diverged\nbase: %v\nrestored: %v",
						suite.Mechanism, problem, seed, depth, want, got)
				}
				if got, want := restored.ReadySetIDs(), base.ReadySetIDs(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s seed %d depth %d: restored ready-set ids diverged",
						suite.Mechanism, problem, seed, depth)
				}
				if got, want := restored.ReadyCauses(), base.ReadyCauses(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s seed %d depth %d: restored ready causes diverged",
						suite.Mechanism, problem, seed, depth)
				}
			}
		}
	}
}

// zeroCkptCounters clears the counters that legitimately differ between
// checkpointed DFS and replay from the root, leaving everything else for
// the byte-identity comparison.
func zeroCkptCounters(res Result) Result {
	res.Stats.CheckpointForks = 0
	res.Stats.SavedSteps = 0
	res.Stats.ReplayedSteps = 0
	return res
}

// The determinism contract of checkpointed DFS: apart from the three
// checkpoint counters, the Result is byte-identical to a search whose
// registry keeps no checkpoints, so every DFS run replays its prefix from
// the root, at Workers 1, 4, and max — across findings, clean
// exhaustion, pruning, partial-order reduction with and without pruning,
// streaming, shrinking, and a starved checkpoint budget.
func TestCheckpointMatchesReplay(t *testing.T) {
	figure1 := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(pathexprsol.NewReadersPriority())(k, r)
	})
	monitor := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitorsol.NewReadersPriority())(k, r)
	})
	inc, ok := problems.IncrementalOracleFor(problems.NameReadersPriority)
	if !ok {
		t.Fatal("no incremental oracle for readers-priority")
	}
	cases := []struct {
		name   string
		prog   Program
		oracle Oracle
		opts   Options
	}{
		{"dfs-finding", figure1, problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24}},
		{"clean-exhaustion", monitor, problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 400, DFSDepth: 24}},
		{"pruned-pooled", monitor, problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 400, DFSDepth: 24, Prune: true}},
		{"streamed-shrunk", figure1, problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24,
				Stream: inc.New, Shrink: true}},
		{"starved-budget", monitor, problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 400, DFSDepth: 24, ckptLimit: 2}},
		{"dpor", figure1, problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24, DPOR: true}},
		{"dpor-prune", figure1, problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24, DPOR: true, Prune: true}},
		{"dpor-clean", monitor, problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 400, DFSDepth: 24, DPOR: true}},
		{"dpor-prune-clean", monitor, problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 400, DFSDepth: 24, DPOR: true, Prune: true}},
	}
	workers := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			baseOpts := tc.opts
			baseOpts.Workers = 1
			baseOpts.ckptLimit = -1
			base := Run(tc.prog, tc.oracle, baseOpts)
			if base.Stats.CheckpointForks != 0 {
				t.Fatalf("reference forked %d runs from checkpoints, want none", base.Stats.CheckpointForks)
			}
			for _, w := range workers {
				ckptOpts := tc.opts
				ckptOpts.Workers = w
				ckpt := Run(tc.prog, tc.oracle, ckptOpts)
				if (base.Err == nil) != (ckpt.Err == nil) {
					t.Fatalf("workers=%d: err %v vs %v", w, base.Err, ckpt.Err)
				}
				bz, cz := zeroCkptCounters(base), zeroCkptCounters(ckpt)
				bz.Err, cz.Err = nil, nil
				if !reflect.DeepEqual(bz, cz) {
					t.Fatalf("workers=%d: checkpointed Result diverged from replay-from-root:\nbase: %+v\nckpt: %+v",
						w, bz, cz)
				}
			}
		})
	}
}

// Checkpointed DFS on a clean scenario must actually share prefixes:
// most runs fork (CheckpointForks), and the steps served from snapshots
// dominate the steps replayed through the full pipeline.
func TestCheckpointSavesSteps(t *testing.T) {
	prog := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitorsol.NewReadersPriority())(k, r)
	})
	res := Run(prog, problems.CheckReadersPriority,
		Options{RandomRuns: -1, DFSRuns: 400, DFSDepth: 24, Workers: 1})
	if res.Found {
		t.Fatalf("unexpected finding: %+v", res)
	}
	if res.Stats.CheckpointForks == 0 {
		t.Fatal("no DFS run forked from a checkpoint")
	}
	if res.Stats.SavedSteps <= res.Stats.ReplayedSteps {
		t.Fatalf("SavedSteps = %d not greater than ReplayedSteps = %d (forks = %d)",
			res.Stats.SavedSteps, res.Stats.ReplayedSteps, res.Stats.CheckpointForks)
	}
}

// Two identical hunts produce byte-identical Result.Stats — the pin for
// the deterministic-core/live-view split: no wall-clock or pool state
// can leak into a Result.
func TestResultStatsBytesIdentical(t *testing.T) {
	prog := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitorsol.NewReadersPriority())(k, r)
	})
	opts := Options{RandomRuns: 20, DFSRuns: 100, Prune: true, Shrink: true, DPOR: true}
	a := Run(prog, problems.CheckReadersPriority, opts)
	b := Run(prog, problems.CheckReadersPriority, opts)
	if a.Stats != b.Stats {
		t.Fatalf("Result.Stats differ between identical hunts:\n%+v\n%+v", a.Stats, b.Stats)
	}
	ab, err := json.Marshal(a.Stats)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("Result.Stats bytes differ:\n%s\n%s", ab, bb)
	}
}
