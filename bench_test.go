// The experiment bench harness: one benchmark per reproduced table or
// figure (see DESIGN.md §3), plus the B1 mechanism-cost ablation the paper
// could not run in 1979. Regenerate everything with
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/trace"
)

// ---- F1 / F2: the paper's figures ----

// BenchmarkF1PathExprReadersPriority measures one run of the footnote-3
// scenario against the Figure-1 solution on the deterministic kernel.
func BenchmarkF1PathExprReadersPriority(b *testing.B) {
	suite, _ := solutions.ByMechanism("pathexpr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := kernel.NewSim()
		r := trace.NewRecorder(k)
		eval.FigureScenario(suite.NewReadersPriority(k))(k, r)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF1AnomalySearch measures the schedule exploration that
// rediscovers the footnote-3 anomaly.
func BenchmarkF1AnomalySearch(b *testing.B) {
	suite, _ := solutions.ByMechanism("pathexpr")
	for i := 0; i < b.N; i++ {
		prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
			eval.FigureScenario(suite.NewReadersPriority(k))(k, r)
		})
		res := explore.Run(prog, problems.CheckReadersPriority,
			explore.Options{RandomRuns: 300, DFSRuns: 600})
		if !res.Found {
			b.Fatal("anomaly not found")
		}
	}
}

// BenchmarkF2PathExprWritersPriority measures the Figure-2 counterpart.
func BenchmarkF2PathExprWritersPriority(b *testing.B) {
	suite, _ := solutions.ByMechanism("pathexpr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := kernel.NewSim()
		r := trace.NewRecorder(k)
		eval.FigureScenario(suite.NewWritersPriority(k))(k, r)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E1: exploration throughput (ours; what makes deep searches affordable) ----

// benchExploreThroughput measures schedules/sec through explore.Run on a
// clean workload (the monitor readers-priority solution), so every run
// exhausts its budget and executes a known number of schedules.
func benchExploreThroughput(b *testing.B, opts explore.Options) {
	suite, _ := solutions.ByMechanism("monitor")
	prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
		eval.FigureScenario(suite.NewReadersPriority(k))(k, r)
	})
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res := explore.Run(prog, problems.CheckReadersPriority, opts)
		if res.Found {
			b.Fatal("unexpected finding")
		}
		total += res.Runs
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "schedules/sec")
}

// BenchmarkE1ExploreThroughput tracks the exploration engine's speed for
// the random and DFS phases separately and together, at the default
// Workers (which follows GOMAXPROCS, so `-cpu 1,2,4` sweeps the scaling
// curve) and with Workers pinned to 1 (the -seq rows). The random+dfs
// rows have the shape syncfuzz explores, a random phase and then a DFS;
// above Workers 1 the driver runs the DFS while helpers sample the seeds.
// Results are identical across worker counts by construction; only
// throughput moves.
func BenchmarkE1ExploreThroughput(b *testing.B) {
	const budget = 64
	b.Run("random", func(b *testing.B) {
		benchExploreThroughput(b, explore.Options{RandomRuns: budget, DFSRuns: 0})
	})
	b.Run("random-seq", func(b *testing.B) {
		benchExploreThroughput(b, explore.Options{RandomRuns: budget, DFSRuns: 0, Workers: 1})
	})
	b.Run("dfs", func(b *testing.B) {
		benchExploreThroughput(b, explore.Options{RandomRuns: -1, DFSRuns: budget})
	})
	b.Run("dfs-seq", func(b *testing.B) {
		benchExploreThroughput(b, explore.Options{RandomRuns: -1, DFSRuns: budget, Workers: 1})
	})
	b.Run("random+dfs", func(b *testing.B) {
		benchExploreThroughput(b, explore.Options{RandomRuns: budget, DFSRuns: budget})
	})
	b.Run("random+dfs-seq", func(b *testing.B) {
		benchExploreThroughput(b, explore.Options{RandomRuns: budget, DFSRuns: budget, Workers: 1})
	})
	// Fingerprint pruning (Options.Prune) collapses the DFS frontier;
	// schedules/sec also reflects that fewer (deduped) schedules need
	// executing at all to cover the same space.
	b.Run("dfs-seq-prune", func(b *testing.B) {
		benchExploreThroughput(b, explore.Options{RandomRuns: -1, DFSRuns: budget, Workers: 1, Prune: true})
	})
}

// benchDeepDFS measures schedules/sec on a deep clean scenario — a
// scaled-up readers–writers workload on the monitor solution (20 procs,
// 80 intervals, no artificial yields), whose runs produce long traces
// relative to their scheduling steps. That trace density is what deep
// hunts look like: the per-run cost is dominated by recording and
// judging the operation history. Every DFS run replays its prefix from
// the root.
func benchDeepDFS(b *testing.B, opts explore.Options) {
	suite, _ := solutions.ByMechanism("monitor")
	cfg := problems.RWConfig{Readers: 12, Writers: 8, Rounds: 4}
	prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
		_ = problems.SpawnRW(k, suite.NewReadersPriority(k), r, cfg)
	})
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		res := explore.Run(prog, problems.CheckReadersPriority, opts)
		if res.Found {
			b.Fatal("unexpected finding")
		}
		total += res.Runs
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "schedules/sec")
}

// BenchmarkE1DeepDFS runs DFS on the deep clean scenario with the batch
// oracle (`batch`) and with incremental judging (`stream`). Both execute
// the same schedule budget and return the same Result.
func BenchmarkE1DeepDFS(b *testing.B) {
	const budget = 64
	inc, ok := problems.IncrementalOracleFor(problems.NameReadersPriority)
	if !ok {
		b.Fatal("no incremental oracle for readers-priority")
	}
	base := explore.Options{RandomRuns: -1, DFSRuns: budget, DFSDepth: 48, Workers: 1}
	b.Run("batch", func(b *testing.B) {
		benchDeepDFS(b, base)
	})
	b.Run("stream", func(b *testing.B) {
		opts := base
		opts.Stream = inc.New
		benchDeepDFS(b, opts)
	})
}

// benchSchedulesToFinding hunts the Figure-1 anomaly in a scaled
// workload — the path-expression readers-priority solution under a
// readers–writers scenario deep enough (long writes, arrival gaps)
// that the anomaly hides in a ~2^36 schedule space — and reports how
// many schedules the search judged before finding it. Unlike the
// throughput benches above, fewer is better here: this is the metric
// partial-order reduction exists to shrink.
func benchSchedulesToFinding(b *testing.B, opts explore.Options) {
	suite, _ := solutions.ByMechanism("pathexpr")
	cfg := problems.RWConfig{Readers: 3, Writers: 2, Rounds: 1,
		WriteYields: 6, ReadYields: 1, GapYields: 1}
	prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
		_ = problems.SpawnRW(k, suite.NewReadersPriority(k), r, cfg)
	})
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	var last explore.Result
	for i := 0; i < b.N; i++ {
		res := explore.Run(prog, problems.CheckReadersPriority, opts)
		if !res.Found {
			b.Fatalf("anomaly not found in %d runs", res.Runs)
		}
		total += res.Runs
		last = res
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "schedules/sec")
	b.ReportMetric(float64(last.Runs), "schedules-to-finding")
}

// benchSchedulesToExhaustion explores the clean footnote-3 scenario (the
// monitor readers-priority solution, which has no anomaly) until the DFS
// frontier empties, and reports how many schedules that took. This is
// the repo's first schedules-to-exhaustion number: before DPOR the
// search had no way to know it was done with the space, only with its
// budget. A run fails unless the search is Exhausted, which proves full
// coverage: the frontier emptied and no run was cut.
func benchSchedulesToExhaustion(b *testing.B, opts explore.Options) {
	suite, _ := solutions.ByMechanism("monitor")
	prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
		eval.FigureScenario(suite.NewReadersPriority(k))(k, r)
	})
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	var last explore.Result
	for i := 0; i < b.N; i++ {
		res := explore.Run(prog, problems.CheckReadersPriority, opts)
		if res.Found {
			b.Fatal("unexpected finding")
		}
		if !res.Stats.Exhausted {
			b.Fatalf("not exhausted after %d runs (budget %d, %d runs cut)", res.Runs, opts.DFSRuns, res.Stats.CutRuns)
		}
		total += res.Runs
		last = res
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "schedules/sec")
	b.ReportMetric(float64(last.Runs), "schedules-to-exhaustion")
}

// BenchmarkE1SchedulesToFinding compares how many schedules fingerprint
// pruning, dynamic partial-order reduction, and both together need to
// reach the deep Figure-1 finding, and — on the clean scenario — to
// prove the whole schedule space covered (the searches are
// deterministic, so the counts are exact, not sampled). The committed
// baseline archives all six lines; `make bench-check` gates
// schedules-to-finding and schedules-to-exhaustion downward.
func BenchmarkE1SchedulesToFinding(b *testing.B) {
	base := explore.Options{RandomRuns: -1, DFSRuns: 200000, DFSDepth: 48, Workers: 1}
	exhaust := explore.Options{RandomRuns: -1, DFSRuns: 500000, Workers: 1}
	for _, r := range []struct {
		name        string
		prune, dpor bool
	}{
		{"prune", true, false},
		{"dpor", false, true},
		{"dpor-prune", true, true},
	} {
		b.Run(r.name, func(b *testing.B) {
			opts := base
			opts.Prune, opts.DPOR = r.prune, r.dpor
			benchSchedulesToFinding(b, opts)
		})
	}
	for _, r := range []struct {
		name        string
		prune, dpor bool
	}{
		{"exhaust-prune", true, false},
		{"exhaust-dpor", false, true},
		{"exhaust-dpor-prune", true, true},
	} {
		b.Run(r.name, func(b *testing.B) {
			opts := exhaust
			opts.Prune, opts.DPOR = r.prune, r.dpor
			benchSchedulesToExhaustion(b, opts)
		})
	}
}

// ---- T1: expressive-power matrix ----

// BenchmarkT1PowerVerification measures the full matrix verification
// (36 cells, each a conformance run plus structural witnesses).
func BenchmarkT1PowerVerification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, v := range eval.VerifyPower() {
			if !v.OK() {
				b.Fatalf("inconsistent cell: %+v", v)
			}
		}
	}
}

// ---- T2: constraint-independence analysis ----

// BenchmarkT2StructuralDiff measures the go/parser-based similarity
// analysis across all mechanisms and variant pairs.
func BenchmarkT2StructuralDiff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := eval.IndependenceTable()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// ---- T3: modularity experiments ----

// BenchmarkT3NestedMonitor measures the nested-monitor-call experiment
// (one deadlocking and one structured run).
func BenchmarkT3NestedMonitor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := eval.RunNestedMonitorExperiment()
		if !out.NaiveDeadlocks || !out.StructuredCompletes {
			b.Fatalf("unexpected outcome: %+v", out)
		}
	}
}

// ---- T5: the monitor queue-conflict workload ----

// BenchmarkT5TwoStageQueue measures the monitor FCFS readers–writers
// solution (two-stage queueing) under the standard workload.
func BenchmarkT5TwoStageQueue(b *testing.B) {
	suite, _ := solutions.ByMechanism("monitor")
	for i := 0; i < b.N; i++ {
		k := kernel.NewSim()
		_, vs, err := solutions.RunStandard(k, suite, problems.NameFCFSRW, true)
		if err != nil || len(vs) > 0 {
			b.Fatalf("err=%v violations=%v", err, vs)
		}
	}
}

// ---- T4 / T6: suite-wide conformance ----

// BenchmarkT4SuiteConformance measures one full pass of every mechanism
// over the footnote-2 problem set on the deterministic kernel.
func BenchmarkT4SuiteConformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, suite := range solutions.All() {
			for _, problem := range problems.AllProblems() {
				k := kernel.NewSim()
				strict := !(suite.Mechanism == "pathexpr" && problem == problems.NameReadersPriority)
				_, vs, err := solutions.RunStandard(k, suite, problem, strict)
				if err != nil {
					b.Fatalf("%s/%s: %v", suite.Mechanism, problem, err)
				}
				if len(vs) > 0 {
					b.Fatalf("%s/%s: %v", suite.Mechanism, problem, vs)
				}
			}
		}
	}
}

// ---- B1: mechanism-cost ablation (ours; the paper is qualitative) ----

// benchProblemReal runs one mechanism's solution to one problem under the
// real kernel, reporting operations/sec through the standard workload.
func benchProblemReal(b *testing.B, mechanism, problem string) {
	suite, ok := solutions.ByMechanism(mechanism)
	if !ok {
		b.Fatalf("no suite %s", mechanism)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := kernel.NewReal(kernel.WithWatchdog(60 * time.Second))
		_, vs, err := solutions.RunStandard(k, suite, problem, false)
		if err != nil {
			b.Fatalf("%v", err)
		}
		if len(vs) > 0 {
			b.Fatalf("violations: %v", vs)
		}
	}
}

func BenchmarkB1BoundedBuffer(b *testing.B) {
	for _, mech := range []string{"semaphore", "ccr", "pathexpr", "monitor", "serializer", "csp"} {
		b.Run(mech, func(b *testing.B) { benchProblemReal(b, mech, problems.NameBoundedBuffer) })
	}
}

func BenchmarkB1ReadersWriters(b *testing.B) {
	for _, mech := range []string{"semaphore", "ccr", "pathexpr", "monitor", "serializer", "csp"} {
		b.Run(mech, func(b *testing.B) { benchProblemReal(b, mech, problems.NameReadersPriority) })
	}
}

func BenchmarkB1DiskScheduler(b *testing.B) {
	for _, mech := range []string{"semaphore", "ccr", "pathexpr", "monitor", "serializer", "csp"} {
		b.Run(mech, func(b *testing.B) { benchProblemReal(b, mech, problems.NameDisk) })
	}
}

// BenchmarkB1KernelAblation compares the two kernel substrates on the
// same workload (DESIGN.md §6.1): the deterministic kernel pays one
// coroutine round trip per step; the real kernel pays goroutine wakeups.
func BenchmarkB1KernelAblation(b *testing.B) {
	suite, _ := solutions.ByMechanism("monitor")
	b.Run("sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := kernel.NewSim()
			if _, _, err := solutions.RunStandard(k, suite, problems.NameBoundedBuffer, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("real", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := kernel.NewReal(kernel.WithWatchdog(60 * time.Second))
			if _, _, err := solutions.RunStandard(k, suite, problems.NameBoundedBuffer, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestBenchHarnessSmoke keeps the bench harness itself correct under
// plain `go test`: every benchmark body must run once without failing.
func TestBenchHarnessSmoke(t *testing.T) {
	suite, _ := solutions.ByMechanism("monitor")
	k := kernel.NewSim()
	if _, vs, err := solutions.RunStandard(k, suite, problems.NameBoundedBuffer, true); err != nil || len(vs) > 0 {
		t.Fatalf("err=%v vs=%v", err, vs)
	}
	rows, err := eval.IndependenceTable()
	if err != nil || len(rows) != 6 {
		t.Fatalf("independence table: %v (%d rows)", err, len(rows))
	}
	out := eval.RunNestedMonitorExperiment()
	if !out.NaiveDeadlocks || !out.StructuredCompletes {
		t.Fatalf("nested monitor experiment: %+v", out)
	}
	res := eval.RunFigure1(explore.Options{})
	if !res.AnomalyFound {
		t.Fatalf("figure-1 anomaly not reproduced (%d runs)", res.Runs)
	}
	fmt.Fprintln(testingDiscard{}, eval.RenderFigure1(res)) // exercise rendering
}

type testingDiscard struct{}

func (testingDiscard) Write(p []byte) (int, error) { return len(p), nil }
