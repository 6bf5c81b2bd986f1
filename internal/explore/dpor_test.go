package explore

import (
	"math"
	"runtime"
	"strings"
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
	opts := Options{RandomRuns: -1, DFSRuns: 200000, DFSDepth: 48, Prune: true, Pool: true}
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
	if fast.Stats.ScheduleSpaceLog2 <= 0 {
		t.Fatalf("schedule space not measured: %+v", fast.Stats)
	}
	// The reduced finding must still replay to a real violation.
	tr, err := Replay(deepFigure1Program(), fast.Schedule, 0)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if vs := problems.CheckReadersPriority(tr); len(vs) == 0 {
		t.Fatalf("reduced finding does not replay:\n%s", tr)
	}
	t.Logf("schedules to finding: %d with prune, %d with DPOR (%.1fx); space 2^%.1f, explored %.2g",
		pruneOnly.Runs, fast.Runs, float64(pruneOnly.Runs)/float64(fast.Runs),
		fast.Stats.ScheduleSpaceLog2, fast.Stats.ExploredFraction)
}

// TestDPORMatchesFull is the reduction's correctness contract over the
// full T4 suite: at Workers 1, 4, and max, the audited reduced search
// misses no violation rule the unreduced frontier surfaces, never runs
// more schedules than the unreduced engine, runs strictly fewer in
// aggregate, reports ExploredFraction, and returns byte-identical
// Results at every worker count.
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
					DPORAudit:  true,
					Prune:      true,
					Pool:       true,
				}
				var ref Result
				for i, w := range workerCounts {
					opts := base
					opts.Workers = w
					res := Run(Program(prog), check, opts)
					if res.Err != nil && strings.Contains(res.Err.Error(), "dpor audit") {
						t.Fatalf("workers=%d: %v", w, res.Err)
					}
					if res.Stats.ExploredFraction <= 0 || res.Stats.ExploredFraction > 1 {
						t.Fatalf("workers=%d: ExploredFraction %v out of range", w, res.Stats.ExploredFraction)
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
				plain.DPORAudit, plain.DPOR, plain.Prune = false, false, false
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
// collapses to a handful of runs, and the analytic count is exact: the
// multinomial S! / Π n_p!, which on the small case is what plain
// exhaustion enumerates. The other cases are past the whole-order DP's
// state cap (40 one-step processes) and past DPOR's analysis window (a
// 4202-step run, counted whole).
func TestDPORIndependentProcessesCollapse(t *testing.T) {
	for _, c := range []struct {
		name   string
		yields []int // per process; a process runs yields+1 steps
		want   float64
		plain  bool // small enough for plain DFS to enumerate
	}{
		{"2x3", []int{2, 2}, math.Log2(20), true},
		{"40x1", make([]int, 40), math.Log2(factorial(40)), false},
		{"4201+1", []int{4200, 0}, math.Log2(4202), false},
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
			if !fast.Stats.Exhausted || fast.Err != nil {
				t.Fatalf("reduced DFS did not exhaust (%d runs, err %v)", fast.Runs, fast.Err)
			}
			if fast.Stats.ExploredFraction != 1 {
				t.Fatalf("exhausted search reports fraction %v", fast.Stats.ExploredFraction)
			}
			got := fast.Stats.ScheduleSpaceLog2
			if !fast.Stats.ScheduleSpaceExact || math.Abs(got-c.want) > 1e-12*c.want {
				t.Fatalf("schedule space 2^%v (exact %v), want exactly 2^%v",
					got, fast.Stats.ScheduleSpaceExact, c.want)
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
			// The analytic count equals what plain exhaustion actually
			// enumerated: Runs minus one because the FIFO baseline is
			// judged once on its own and again as the DFS root.
			if n := math.Round(math.Exp2(got)); int(n) != plain.Runs-1 {
				t.Fatalf("analytic count %v != %d enumerated schedules", n, plain.Runs-1)
			}
		})
	}
}

// exploredFraction is a pure function; pin its edge cases.
func TestExploredFraction(t *testing.T) {
	cases := []struct {
		runs      int
		exhausted bool
		log2      float64
		want      float64
	}{
		{0, false, 10, 0},           // nothing run yet
		{0, true, 10, 1},            // exhaustion wins regardless
		{1024, false, 10, 1},        // exactly the space
		{2048, false, 10, 1},        // clamped
		{512, false, 10, 0.5},       // half the space
		{1, false, 0, 1},            // single-schedule space
		{16, false, math.Inf(1), 0}, // unbounded space
	}
	for _, c := range cases {
		if got := exploredFraction(c.runs, c.exhausted, c.log2); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("exploredFraction(%d, %v, %v) = %v, want %v",
				c.runs, c.exhausted, c.log2, got, c.want)
		}
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
		DPORAudit:  true,
		Prune:      true,
		Pool:       true,
		Checkpoint: true,
		Stream:     inc.New,
		Shrink:     true,
	}
	res := Run(figure1Program(), problems.CheckReadersPriority, opts)
	if res.Err != nil && strings.Contains(res.Err.Error(), "dpor audit") {
		t.Fatalf("audit failed under full composition: %v", res.Err)
	}
	if !res.Found {
		t.Fatalf("figure-1 anomaly not found under full composition (%d runs)", res.Runs)
	}
	if res.Stats.ScheduleSpaceLog2 <= 0 {
		t.Fatalf("schedule space not measured: %+v", res.Stats)
	}
}
