package explore

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/solutions/pathexprsol"
	"repro/internal/trace"
)

// figure1Program is the footnote-3 scenario over a fresh path-expression
// readers-priority instance per run — the exploration engine's canonical
// "there is a bug to find" workload.
func figure1Program() Program {
	return func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(pathexprsol.NewReadersPriority())(k, r)
	}
}

// Pruning must reach the first Figure-1 finding in at least 5x fewer
// schedules than plain DFS (the acceptance bar for this optimization),
// and both searches must find the anomaly at all.
func TestPruneReachesFindingFaster(t *testing.T) {
	opts := Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24}
	plain := Run(figure1Program(), problems.CheckReadersPriority, opts)
	if !plain.Found {
		t.Fatalf("plain DFS found nothing in %d runs", plain.Runs)
	}

	pruned := opts
	pruned.Prune = true
	fast := Run(figure1Program(), problems.CheckReadersPriority, pruned)
	if !fast.Found {
		t.Fatalf("pruned DFS found nothing in %d runs (pruned %d)", fast.Runs, fast.Pruned)
	}
	if fast.Err != nil {
		t.Fatalf("pruned DFS reported a kernel error: %v", fast.Err)
	}
	if fast.Runs*5 > plain.Runs {
		t.Fatalf("pruning saved too little: %d runs pruned vs %d plain (want >= 5x fewer)",
			fast.Runs, plain.Runs)
	}
	if fast.Pruned == 0 {
		t.Fatalf("pruned DFS reports Pruned = 0")
	}
	// The pruned finding must still replay to a real violation.
	tr, err := Replay(figure1Program(), fast.Schedule, 0)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if vs := problems.CheckReadersPriority(tr); len(vs) == 0 {
		t.Fatalf("pruned finding does not replay:\n%s", tr)
	}
}

// The prune audit cross-check must pass over the full T4 suite: for every
// mechanism x problem pairing, the unpruned DFS frontier surfaces no
// violation rule that the pruned search missed. Findings themselves are
// fine (a few pairings are known-imperfect; that is the paper's point) —
// only an audit failure is a bug in the pruning.
func TestPruneAuditT4Suite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite audit is slow")
	}
	for _, suite := range solutions.All() {
		for _, problem := range problems.AllProblems() {
			suite, problem := suite, problem
			t.Run(suite.Mechanism+"/"+problem, func(t *testing.T) {
				t.Parallel()
				strict := !(suite.Mechanism == "pathexpr" && problem == problems.NameReadersPriority)
				prog, check, err := solutions.StandardProgram(suite, problem, strict)
				if err != nil {
					t.Fatal(err)
				}
				res := Run(Program(prog), check, Options{
					RandomRuns: -1,
					DFSRuns:    150,
					DFSDepth:   16,
					Prune:      true,
					Audit:      true,
				})
				if errors.Is(res.Err, ErrAuditFailed) {
					t.Fatalf("prune audit failed: %v", res.Err)
				}
			})
		}
	}
}

// Stream judging reaches the batch oracle's finding. That pruned
// exploration is identical across worker counts is
// TestParallelMatchesSequential's job, and that recycled kernels match
// fresh ones TestResetReusedTracesIdentical's.
func TestPoolAndPruneDeterminism(t *testing.T) {
	base := Options{RandomRuns: 100, DFSRuns: 400, DFSDepth: 24}

	t.Run("stream-matches-batch-judging", func(t *testing.T) {
		inc, ok := problems.IncrementalOracleFor(problems.NameReadersPriority)
		if !ok {
			t.Fatal("no incremental oracle for readers-priority")
		}
		batch := Run(figure1Program(), inc.Check, base)
		streamed := base
		streamed.Stream = inc.New
		got := Run(figure1Program(), inc.Check, streamed)
		// A streaming checker agrees with the batch oracle on complete
		// traces, so the first violating run — and therefore Runs — is
		// pinned. The streamed run is cut short at the violation, so its
		// recorded Schedule is a prefix of the batch run's, and the trace
		// may omit violations past the first.
		if batch.Found != got.Found || batch.Runs != got.Runs {
			t.Fatalf("streamed result diverged:\n  batch:  found=%v runs=%d\n  stream: found=%v runs=%d",
				batch.Found, batch.Runs, got.Found, got.Runs)
		}
		if len(got.Schedule) > len(batch.Schedule) ||
			!reflect.DeepEqual(got.Schedule, batch.Schedule[:len(got.Schedule)]) {
			t.Fatalf("streamed Schedule is not a prefix of the batch one:\n  batch:  %v\n  stream: %v",
				batch.Schedule, got.Schedule)
		}
		if len(got.Violations) == 0 {
			t.Fatalf("streamed finding carries no violations")
		}
		// The cut-short schedule must still replay to a violating run.
		tr, err := Replay(figure1Program(), got.Schedule, 0)
		if err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		if vs := inc.Check(tr); len(vs) == 0 {
			t.Fatalf("streamed finding does not replay:\n%s", tr)
		}
	})
}

// The streaming overtaking checker must agree with the batch oracle on
// complete traces: same rule at the same sequence numbers, over hundreds
// of random schedules of both a buggy and a clean solution.
func TestStreamMatchesBatch(t *testing.T) {
	type vkey struct {
		rule string
		seq  int64
	}
	collect := func(vs []problems.Violation) []vkey {
		var out []vkey
		for _, v := range vs {
			out = append(out, vkey{v.Rule, v.Seq})
		}
		return out
	}
	for _, problem := range []string{problems.NameReadersPriority, problems.NameWritersPriority} {
		inc, ok := problems.IncrementalOracleFor(problem)
		if !ok {
			t.Fatalf("no incremental oracle for %s", problem)
		}
		checker := inc.New()
		for seed := int64(1); seed <= 300; seed++ {
			k := kernel.NewSim(kernel.WithPolicy(kernel.Random(seed)))
			r := trace.NewRecorder(k)
			figure1Program()(k, r)
			if err := k.Run(); err != nil {
				t.Fatalf("%s seed %d: %v", problem, seed, err)
			}
			tr := r.Events()

			checker.Reset()
			var streamed []problems.Violation
			for _, e := range tr {
				streamed = append(streamed, checker.Observe(e)...)
			}
			want := collect(inc.Check(tr))
			got := collect(streamed)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s seed %d: batch %v, stream %v\n%s", problem, seed, want, got, tr)
			}
		}
	}
}

// A Reset kernel and recorder must be indistinguishable from fresh ones:
// for every T4 mechanism x problem pairing and a table of seeds, a reused
// (Reset between runs) kernel — in both plain and WithRecycle modes —
// produces byte-identical traces to a fresh kernel per run.
func TestResetReusedTracesIdentical(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42}
	for _, mode := range []struct {
		name    string
		options []kernel.SimOption
	}{
		{"plain", nil},
		{"recycle", []kernel.SimOption{kernel.WithRecycle()}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			for _, suite := range solutions.All() {
				for _, problem := range problems.AllProblems() {
					prog, _, err := solutions.StandardProgram(suite, problem, false)
					if err != nil {
						t.Fatal(err)
					}
					reused := kernel.NewSim(mode.options...)
					rr := trace.NewRecorder(reused)
					for _, seed := range seeds {
						fresh := kernel.NewSim(kernel.WithPolicy(kernel.Random(seed)))
						fr := trace.NewRecorder(fresh)
						prog(fresh, fr)
						freshErr := fresh.Run()

						reused.Reset(kernel.WithPolicy(kernel.Random(seed)))
						rr.Reset()
						prog(reused, rr)
						reusedErr := reused.Run()

						if (freshErr == nil) != (reusedErr == nil) {
							t.Fatalf("%s/%s seed %d: fresh err %v, reused err %v",
								suite.Mechanism, problem, seed, freshErr, reusedErr)
						}
						want, got := fr.Events(), rr.Events()
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s/%s seed %d: reused trace diverged\nfresh:\n%s\nreused:\n%s",
								suite.Mechanism, problem, seed, want, got)
						}
					}
					reused.Close()
				}
			}
		})
	}
}
