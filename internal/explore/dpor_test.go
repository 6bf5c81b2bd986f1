package explore

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/trace"
)

// deepFigure1Program is the Figure-1 anomaly embedded in a scaled
// workload: the same path-expression readers-priority solution, driven
// by a readers–writers scenario wide and deep enough (long writes,
// arrival gaps) that the anomaly hides in a ~2^36 schedule space instead
// of the footnote's 3-process sketch. This is the deep hunt partial-order
// reduction exists for.
func deepFigure1Program() Program {
	suite, _ := solutions.ByMechanism("pathexpr")
	cfg := problems.RWConfig{Readers: 3, Writers: 2, Rounds: 1,
		WriteYields: 6, ReadYields: 1, GapYields: 1}
	return func(k kernel.Kernel, r *trace.Recorder) {
		_ = problems.SpawnRW(k, suite.NewReadersPriority(k), r, cfg)
	}
}

// DPOR must reach the Figure-1 finding in at least 5x fewer schedules
// than fingerprint pruning alone on the deep scenario (the acceptance
// bar for this optimization), and the reduced finding must still replay.
func TestDPORReachesFindingFaster(t *testing.T) {
	opts := Options{RandomRuns: -1, DFSRuns: 200000, DFSDepth: 48, Prune: true}
	pruneOnly := Run(deepFigure1Program(), problems.CheckReadersPriority, opts)
	if !pruneOnly.Found {
		t.Fatalf("pruned DFS found nothing in %d runs", pruneOnly.Runs)
	}

	reduced := opts
	reduced.DPOR = true
	fast := Run(deepFigure1Program(), problems.CheckReadersPriority, reduced)
	if !fast.Found {
		t.Fatalf("DPOR found nothing in %d runs (backtracks %d, blocked %d)",
			fast.Runs, fast.Stats.BacktrackPoints, fast.Stats.DPORBlocked)
	}
	if fast.Err != nil {
		t.Fatalf("DPOR reported a kernel error: %v", fast.Err)
	}
	if fast.Runs*5 > pruneOnly.Runs {
		t.Fatalf("reduction saved too little: %d runs with DPOR vs %d with prune alone (want >= 5x fewer)",
			fast.Runs, pruneOnly.Runs)
	}
	if fast.Stats.BacktrackPoints == 0 || fast.Stats.DPORBlocked == 0 {
		t.Fatalf("reduction counters empty: %+v", fast.Stats)
	}
	// The reduced finding must still replay to a real violation.
	tr, err := Replay(deepFigure1Program(), fast.Schedule, 0)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if vs := problems.CheckReadersPriority(tr); len(vs) == 0 {
		t.Fatalf("reduced finding does not replay:\n%s", tr)
	}
	t.Logf("schedules to finding: %d with prune, %d with DPOR (%.1fx)",
		pruneOnly.Runs, fast.Runs, float64(pruneOnly.Runs)/float64(fast.Runs))
}

// TestDPORMatchesFull is the reduction's correctness contract over the
// full T4 suite: at Workers 1, 4, and max, the audited reduced search
// misses no violation rule the unreduced frontier surfaces, never runs
// more schedules than the unreduced engine, runs strictly fewer in
// aggregate, claims Exhausted only with no cut run, and returns
// byte-identical Results (CutRuns included) at every worker count.
func TestDPORMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite audit is slow")
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
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
				base := Options{
					RandomRuns: -1,
					DFSRuns:    400,
					DFSDepth:   12,
					DPOR:       true,
					Prune:      true,
					Audit:      true,
				}
				var ref Result
				for i, w := range workerCounts {
					opts := base
					opts.Workers = w
					res := Run(Program(prog), check, opts)
					if errors.Is(res.Err, ErrAuditFailed) {
						t.Fatalf("workers=%d: %v", w, res.Err)
					}
					if res.Stats.Exhausted && res.Stats.CutRuns != 0 {
						t.Fatalf("workers=%d: Exhausted with %d cut runs", w, res.Stats.CutRuns)
					}
					if i == 0 {
						ref = res
						continue
					}
					if res.Found != ref.Found || res.Runs != ref.Runs || res.Stats != ref.Stats {
						t.Fatalf("workers=%d diverged from workers=%d:\n%+v\n%+v",
							w, workerCounts[0], res.Stats, ref.Stats)
					}
				}

				// The unreduced engine at the same budget: the reduced
				// tree is a subtree of the full one, so reduced never
				// needs more runs.
				plain := base
				plain.Audit, plain.DPOR, plain.Prune = false, false, false
				plain.Workers = 1
				pres := Run(Program(prog), check, plain)
				if ref.Runs > pres.Runs {
					t.Fatalf("reduced search ran more schedules than unreduced: %d vs %d",
						ref.Runs, pres.Runs)
				}
				if pres.Found && !ref.Found {
					t.Fatalf("reduced search missed the unreduced finding (%d vs %d runs)",
						ref.Runs, pres.Runs)
				}
				if ref.Runs == pres.Runs && ref.Stats.Exhausted && !pres.Stats.Exhausted {
					t.Fatalf("reduced search exhausted at the full budget while unreduced did not")
				}
				if ref.Runs < pres.Runs {
					t.Logf("runs: %d reduced vs %d unreduced", ref.Runs, pres.Runs)
				}
			})
		}
	}
}

// On scenarios of truly independent processes the reduced search
// collapses to a handful of runs, far fewer than plain exhaustion
// enumerates on the small case. The other cases are 40 one-step
// processes, and a 4202-step run past DPOR's analysis window, whose late
// races the reduction never sees: every DFS run there is cut, so the
// search does not claim Exhausted.
func TestDPORIndependentProcessesCollapse(t *testing.T) {
	for _, c := range []struct {
		name   string
		yields []int // per process; a process runs yields+1 steps
		plain  bool  // small enough for plain DFS to enumerate
		cut    bool  // every DFS run is longer than dporAnalysisCap
	}{
		{"2x3", []int{2, 2}, true, false},
		{"40x1", make([]int, 40), false, false},
		{"4201+1", []int{4200, 0}, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := Program(func(k kernel.Kernel, r *trace.Recorder) {
				for _, n := range c.yields {
					k.Spawn("p", func(p *kernel.Proc) {
						for i := 0; i < n; i++ {
							p.Yield()
						}
					})
				}
			})
			noOracle := func(trace.Trace) []problems.Violation { return nil }
			exhaust := Options{RandomRuns: -1, DFSRuns: 1 << 20, DFSDepth: 64, DPOR: true}
			fast := Run(prog, noOracle, exhaust)
			if fast.Err != nil {
				t.Fatalf("reduced DFS: %v", fast.Err)
			}
			if c.cut {
				// The baseline is judged outside the DFS; every DFS run is cut.
				if fast.Stats.Exhausted || fast.Stats.CutRuns != fast.Runs-1 {
					t.Fatalf("exhausted %v with %d of %d DFS runs cut, want every run cut",
						fast.Stats.Exhausted, fast.Stats.CutRuns, fast.Runs-1)
				}
				return
			}
			if !fast.Stats.Exhausted || fast.Stats.CutRuns != 0 {
				t.Fatalf("reduced DFS did not exhaust (%d runs, %d cut)", fast.Runs, fast.Stats.CutRuns)
			}
			if !c.plain {
				return
			}
			plainOpts := exhaust
			plainOpts.DPOR = false
			plain := Run(prog, noOracle, plainOpts)
			if !plain.Stats.Exhausted {
				t.Fatalf("plain DFS did not exhaust (%d runs)", plain.Runs)
			}
			// Independent steps all commute: one schedule per equivalence class.
			if fast.Runs*4 > plain.Runs {
				t.Fatalf("independent processes barely reduced: %d vs %d runs", fast.Runs, plain.Runs)
			}
		})
	}
}

// A spawn touches its child's cell before the child appears in any ready
// set, and a run cut short by Stop or the step limit can end right there,
// so a run's dependency objects can reach past every id in its ready
// sets. expand sizes its per-object table from the accesses; here the
// children's cells (2 and 3) are never in a ready set, and the one race
// is the two trace accesses.
func TestDPORExpandSpawnAtCutoff(t *testing.T) {
	out := runOut{
		// p0 records; p1 records, spawns p2 and p3, and the run stops.
		schedule: []kernel.Choice{{Ready: 2, Picked: 0}, {Ready: 2, Picked: 0}},
		visible:  []bool{true, true},
		fps:      []uint64{1, 2},
		deps: []kernel.DepAccess{
			{Step: -1, Obj: 0}, {Step: -1, Obj: 1},
			{Step: 0, Obj: kernel.DepObjTrace},
			{Step: 1, Obj: kernel.DepObjTrace}, {Step: 1, Obj: 2}, {Step: 1, Obj: 3},
		},
		readyIDs: []int32{0, 1, 1, 0},
		causes:   []int32{-1, -1},
	}
	pruned := 0
	children, blocked := newDPORState().expand(nil, out, 64, nil, &pruned)
	// The race puts p1 first at decision 0; decision 1's alternative (p0
	// before p1's step) commutes and stays blocked.
	want := [][]kernel.Choice{{{Ready: 2, Picked: 1}}}
	if !reflect.DeepEqual(children, want) || blocked != 1 || pruned != 0 {
		t.Fatalf("expand = %v, blocked %d, pruned %d; want %v, blocked 1, pruned 0",
			children, blocked, pruned, want)
	}
}

// DPOR is rejected nowhere but composes everywhere: spot-check that the
// audit passes with the whole option surface enabled at once.
func TestDPORAuditFullComposition(t *testing.T) {
	inc, ok := problems.IncrementalOracleFor(problems.NameReadersPriority)
	if !ok {
		t.Fatal("no incremental oracle for readers-priority")
	}
	opts := Options{
		RandomRuns: 20,
		DFSRuns:    200,
		DFSDepth:   16,
		DPOR:       true,
		Audit:      true,
		Prune:      true,
		Stream:     inc.New,
		Shrink:     true,
	}
	res := Run(figure1Program(), problems.CheckReadersPriority, opts)
	if errors.Is(res.Err, ErrAuditFailed) {
		t.Fatalf("audit failed under full composition: %v", res.Err)
	}
	if !res.Found {
		t.Fatalf("figure-1 anomaly not found under full composition (%d runs)", res.Runs)
	}
}
