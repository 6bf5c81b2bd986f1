package explore

import (
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/solutions/monitorsol"
	"repro/internal/solutions/pathexprsol"
	"repro/internal/trace"
)

// rwScenario builds the footnote-3 arrival pattern: one writer gets in,
// then a reader and a second writer arrive while the write is in
// progress.
func rwScenario(db problems.RWStore) Program {
	return func(k kernel.Kernel, r *trace.Recorder) {
		k.Spawn("writer1", func(p *kernel.Proc) {
			r.Request(p, problems.OpWrite, trace.NoArg)
			db.Write(p, func() {
				r.Enter(p, problems.OpWrite, trace.NoArg)
				for i := 0; i < 6; i++ {
					p.Yield() // long write: others arrive meanwhile
				}
				r.Exit(p, problems.OpWrite, trace.NoArg)
			})
		})
		k.Spawn("reader", func(p *kernel.Proc) {
			p.Yield() // arrive during the write
			r.Request(p, problems.OpRead, trace.NoArg)
			db.Read(p, func() {
				r.Enter(p, problems.OpRead, trace.NoArg)
				p.Yield()
				r.Exit(p, problems.OpRead, trace.NoArg)
			})
		})
		k.Spawn("writer2", func(p *kernel.Proc) {
			p.Yield()
			p.Yield()
			r.Request(p, problems.OpWrite, trace.NoArg)
			db.Write(p, func() {
				r.Enter(p, problems.OpWrite, trace.NoArg)
				p.Yield()
				r.Exit(p, problems.OpWrite, trace.NoArg)
			})
		})
	}
}

// The paper's central claim, mechanized: exploring schedules of the
// Figure-1 path-expression solution finds a readers-priority violation
// (footnote 3).
func TestFigure1AnomalyFound(t *testing.T) {
	// The constructor runs inside the Program so each schedule gets a
	// fresh solution instance.
	perRun := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(pathexprsol.NewReadersPriority())(k, r)
	})
	res := Run(perRun, problems.CheckReadersPriority, Options{RandomRuns: 300, DFSRuns: 500})
	if !res.Found {
		t.Fatalf("anomaly not found in %d runs", res.Runs)
	}
	if res.Err != nil {
		t.Fatalf("found a kernel error (%v), want a priority violation", res.Err)
	}
	// The finding must be replayable.
	tr, err := Replay(Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(pathexprsol.NewReadersPriority())(k, r)
	}), res.Schedule, 0)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if vs := problems.CheckReadersPriority(tr); len(vs) == 0 {
		t.Fatalf("replayed schedule shows no violation:\n%s", tr)
	}
}

// The monitor readers-priority solution survives the same exploration.
func TestMonitorReadersPriorityClean(t *testing.T) {
	perRun := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitorsol.NewReadersPriority())(k, r)
	})
	res := Run(perRun, problems.CheckReadersPriority, Options{RandomRuns: 150, DFSRuns: 300})
	if res.Found {
		t.Fatalf("unexpected finding after %d runs: %v err=%v\n%s",
			res.Runs, res.Violations, res.Err, res.Trace)
	}
	if res.Runs < 150 {
		t.Fatalf("only %d runs executed", res.Runs)
	}
}

// Exploration reports deadlocks as findings.
func TestDeadlockIsAFinding(t *testing.T) {
	perRun := Program(func(k kernel.Kernel, r *trace.Recorder) {
		k.Spawn("stuck", func(p *kernel.Proc) { p.Park() })
	})
	res := Run(perRun, func(trace.Trace) []problems.Violation { return nil },
		Options{RandomRuns: 1, DFSRuns: 0})
	if !res.Found || !errors.Is(res.Err, kernel.ErrDeadlock) {
		t.Fatalf("res = %+v", res)
	}
}

// A trivially clean program exhausts its budget without findings, and the
// run counter accounts for FIFO + random + DFS phases.
func TestCleanProgramExhaustsBudget(t *testing.T) {
	perRun := Program(func(k kernel.Kernel, r *trace.Recorder) {
		k.Spawn("a", func(p *kernel.Proc) { p.Yield() })
		k.Spawn("b", func(p *kernel.Proc) { p.Yield() })
	})
	res := Run(perRun, func(trace.Trace) []problems.Violation { return nil },
		Options{RandomRuns: 10, DFSRuns: 25})
	if res.Found {
		t.Fatalf("unexpected finding: %+v", res)
	}
	if res.Runs < 11 {
		t.Fatalf("runs = %d, want at least FIFO + 10 random", res.Runs)
	}
}

// Exhausted is a proof: it holds only when the frontier emptied and no
// run was cut, and the deprecated ExploredFraction is 1 exactly then. At
// T8's budget (DPOR, 400 DFS runs to depth 12) every DFS run of the
// semaphore disk scheduler has a decision point past depth 12, and 67 of
// the one-slot buffer's do. With no depth bound the one-slot buffer
// exhausts, by plain DFS and by DPOR with Prune. The footnote-3 monitor
// exhausts at the options of the paper's hunt (Prune, DPOR, streamed
// oracle, depth 40).
func TestExhaustedIsAProof(t *testing.T) {
	standard := func(mech, problem string) (Program, Oracle) {
		suite, _ := solutions.ByMechanism(mech)
		prog, check, err := solutions.StandardProgram(suite, problem, true)
		if err != nil {
			t.Fatal(err)
		}
		return Program(prog), check
	}
	monitor, _ := solutions.ByMechanism("monitor")
	footnote3 := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitor.NewReadersPriority(k))(k, r)
	})
	inc, ok := problems.IncrementalOracleFor(problems.NameReadersPriority)
	if !ok {
		t.Fatal("no incremental oracle for readers-priority")
	}
	t8 := Options{RandomRuns: -1, DFSRuns: 400, DFSDepth: 12, DPOR: true}
	unbounded := Options{RandomRuns: -1, DFSRuns: 1 << 20, DFSDepth: 1 << 20}
	reduced := unbounded
	reduced.DPOR, reduced.Prune = true, true
	hunt := Options{RandomRuns: -1, DFSRuns: 600, Prune: true, DPOR: true, Shrink: true, Stream: inc.New}

	diskProg, diskCheck := standard("semaphore", problems.NameDisk)
	slotProg, slotCheck := standard("semaphore", problems.NameOneSlot)
	for _, c := range []struct {
		name      string
		prog      Program
		oracle    Oracle
		opts      Options
		runs, cut int
		exhausted bool
	}{
		{"t8/semaphore/disk-scheduler", diskProg, diskCheck, t8, 235, 234, false},
		{"t8/semaphore/one-slot-buffer", slotProg, slotCheck, t8, 401, 67, false},
		{"unbounded/semaphore/one-slot-buffer", slotProg, slotCheck, unbounded, 2293, 0, true},
		{"unbounded-dpor-prune/semaphore/one-slot-buffer", slotProg, slotCheck, reduced, 380, 0, true},
		{"hunt/footnote3/monitor", footnote3, inc.Check, hunt, 149, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := Run(c.prog, c.oracle, c.opts)
			st := res.Stats
			if res.Found {
				t.Fatalf("unexpected finding after %d runs: %v %v", res.Runs, res.Violations, res.Err)
			}
			if res.Runs != c.runs || st.CutRuns != c.cut || st.Exhausted != c.exhausted {
				t.Fatalf("runs %d, cut %d, exhausted %v; want %d, %d, %v",
					res.Runs, st.CutRuns, st.Exhausted, c.runs, c.cut, c.exhausted)
			}
			wantFrac := 0.0
			if c.exhausted {
				wantFrac = 1
			}
			if st.ExploredFraction != wantFrac || st.ScheduleSpaceExact {
				t.Fatalf("deprecated fields: ExploredFraction %v, ScheduleSpaceExact %v; want %v, false",
					st.ExploredFraction, st.ScheduleSpaceExact, wantFrac)
			}
		})
	}
}

func BenchmarkExplorationRun(b *testing.B) {
	perRun := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitorsol.NewReadersPriority())(k, r)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(perRun, problems.CheckReadersPriority, Options{RandomRuns: 5, DFSRuns: 0})
		if res.Found {
			b.Fatal("unexpected finding")
		}
	}
}

// Systematic DFS alone (no random sampling) also finds the footnote-3
// anomaly: the interleaving space of the scenario is small enough for
// bounded enumeration, which is the stronger guarantee — the bug cannot
// hide from the search.
func TestFigure1AnomalyFoundByDFSAlone(t *testing.T) {
	perRun := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(pathexprsol.NewReadersPriority())(k, r)
	})
	res := Run(perRun, problems.CheckReadersPriority,
		Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24})
	if !res.Found {
		t.Fatalf("anomaly not found by DFS in %d runs", res.Runs)
	}
}

// Regression for the DFS budget: the DFS phase must execute exactly
// DFSRuns schedules (not fewer) when the frontier is rich enough, with the
// run counter accounting FIFO + random + DFS exactly. The old budget
// expression derived the DFS count from the total run counter and the
// random budget, which miscounts if the phases ever execute a different
// number of runs than their nominal budgets.
func TestDFSBudgetExact(t *testing.T) {
	perRun := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitorsol.NewReadersPriority())(k, r)
	})
	opts := Options{RandomRuns: 10, DFSRuns: 50}
	res := Run(perRun, func(trace.Trace) []problems.Violation { return nil }, opts)
	if res.Found {
		t.Fatalf("unexpected finding: %+v", res)
	}
	if want := 1 + opts.RandomRuns + opts.DFSRuns; res.Runs != want {
		t.Fatalf("runs = %d, want exactly %d (1 FIFO + %d random + %d DFS)",
			res.Runs, want, opts.RandomRuns, opts.DFSRuns)
	}
}

// overlapFinding explores the deep Figure-1 scenario (deepFigure1Program)
// behind a random phase of five clean seeds, so above Workers 1 the DFS
// that finds the anomaly, at run 118, overlaps the random phase.
var overlapFinding = Options{RandomRuns: 5, DFSRuns: 2000, Prune: true, DPOR: true, Shrink: true}

// The determinism contract: Run returns the same Result — every field,
// Stats and MinSchedule included — at Workers 2, 4, 8 and GOMAXPROCS as
// at Workers 1. The rows cover
// findings in the random phase, findings deep in the DFS phase, budget
// exhaustion without findings, a clean solution, DFS-only searches plain,
// pruned, DPOR-reduced and both, each on a finding and on a clean
// solution, a stream-judged and shrunk DFS-only finding, and the
// syncfuzz option set (stream-judged, pruned, DPOR-reduced, shrunk) on a
// program that finds in the random phase and on a clean one. Above
// Workers 1 the DFS overlaps the random phase; two rows make its Result
// count: a DFS finding after a clean random phase (the deep Figure-1
// scenario, found at run 118) and an audited clean search that exhausts
// at run 179.
func TestParallelMatchesSequential(t *testing.T) {
	figure1 := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(pathexprsol.NewReadersPriority())(k, r)
	})
	monitor := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitorsol.NewReadersPriority())(k, r)
	})
	never := func(trace.Trace) []problems.Violation { return nil }
	inc, ok := problems.IncrementalOracleFor(problems.NameReadersPriority)
	if !ok {
		t.Fatal("no incremental oracle for readers-priority")
	}
	syncfuzz := Options{RandomRuns: 150, DFSRuns: 100, Prune: true, DPOR: true,
		Stream: inc.New, Shrink: true}
	dfsFinding := Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24}
	dfsClean := Options{RandomRuns: -1, DFSRuns: 400, DFSDepth: 24}
	prune := func(o Options) Options { o.Prune = true; return o }
	dpor := func(o Options) Options { o.DPOR = true; return o }
	cases := []struct {
		name   string
		prog   Program
		oracle Oracle
		opts   Options
		phase  string // where the finding must land; "" for none
	}{
		{"random-phase-finding", figure1, problems.CheckReadersPriority,
			Options{RandomRuns: 300, DFSRuns: 600}, "random"},
		{"prune-random-finding", figure1, problems.CheckReadersPriority,
			Options{RandomRuns: 100, DFSRuns: 400, DFSDepth: 24, Prune: true}, "random"},
		{"dfs-only-finding", figure1, problems.CheckReadersPriority, dfsFinding, "dfs"},
		{"dfs-clean", monitor, problems.CheckReadersPriority, dfsClean, ""},
		{"dfs-prune-finding", figure1, problems.CheckReadersPriority, prune(dfsFinding), "dfs"},
		{"dfs-prune-clean", monitor, problems.CheckReadersPriority, prune(dfsClean), ""},
		{"dfs-dpor-finding", figure1, problems.CheckReadersPriority, dpor(dfsFinding), "dfs"},
		{"dfs-dpor-clean", monitor, problems.CheckReadersPriority, dpor(dfsClean), ""},
		{"dfs-dpor-prune-finding", figure1, problems.CheckReadersPriority, dpor(prune(dfsFinding)), "dfs"},
		{"dfs-dpor-prune-clean", monitor, problems.CheckReadersPriority, dpor(prune(dfsClean)), ""},
		{"dfs-streamed-shrunk", figure1, problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24, Stream: inc.New, Shrink: true}, "dfs"},
		{"writers-oracle", figure1, problems.CheckWritersPriority,
			Options{RandomRuns: 50, DFSRuns: 100}, ""},
		{"budget-exhausted", figure1, never,
			Options{RandomRuns: 20, DFSRuns: 60}, ""},
		{"clean-solution", monitor, problems.CheckReadersPriority,
			Options{RandomRuns: 30, DFSRuns: 60}, ""},
		{"syncfuzz-random-finding", figure1, problems.CheckReadersPriority, syncfuzz, "random"},
		{"syncfuzz-clean", monitor, problems.CheckReadersPriority, syncfuzz, ""},
		{"random-clean-dfs-finding", deepFigure1Program(), problems.CheckReadersPriority, overlapFinding, "dfs"},
		{"random-audit-clean", monitor, problems.CheckReadersPriority,
			Options{RandomRuns: 30, DFSRuns: 400, DFSDepth: 24, Prune: true, DPOR: true, Audit: true}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var phase string
			opts := tc.opts
			opts.Workers = 1
			opts.Progress = func(s Stats) {
				if s.Phase != "shrink" && s.Phase != "done" {
					phase = s.Phase
				}
			}
			seq := Run(tc.prog, tc.oracle, opts)
			if tc.phase != "" && (!seq.Found || phase != tc.phase) {
				t.Fatalf("want a finding in the %s phase, got found=%v in the %s phase", tc.phase, seq.Found, phase)
			}
			for _, w := range []int{2, 4, 8, runtime.GOMAXPROCS(0)} {
				opts := tc.opts
				opts.Workers = w
				if par := Run(tc.prog, tc.oracle, opts); !reflect.DeepEqual(seq, par) {
					t.Fatalf("Result depends on Workers:\n  workers=1: %+v\n  workers=%d: %+v", seq, w, par)
				}
			}
		})
	}
}

// Pool and Checkpoint are deprecated and read nowhere: all four
// combinations return the same Result, Stats included, on a finding the
// DFS phase reaches and on a clean scenario it explores to its budget.
func TestRetiredKnobsChangeNothing(t *testing.T) {
	figure1 := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(pathexprsol.NewReadersPriority())(k, r)
	})
	monitor := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitorsol.NewReadersPriority())(k, r)
	})
	for _, tc := range []struct {
		name string
		prog Program
		opts Options
	}{
		{"finding", figure1, Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24, Shrink: true, Workers: 1}},
		{"clean", monitor, Options{RandomRuns: -1, DFSRuns: 400, DFSDepth: 24, Workers: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := Run(tc.prog, problems.CheckReadersPriority, tc.opts)
			for _, pool := range []bool{false, true} {
				for _, ckpt := range []bool{false, true} {
					opts := tc.opts
					opts.Pool, opts.Checkpoint = pool, ckpt
					if got := Run(tc.prog, problems.CheckReadersPriority, opts); !reflect.DeepEqual(ref, got) {
						t.Fatalf("Pool=%v Checkpoint=%v changed the Result:\n  ref: %+v\n  got: %+v",
							pool, ckpt, ref.Stats, got.Stats)
					}
				}
			}
		})
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

// The audit must be able to fail. The program's processes change shared
// Go state in steps that record no trace event, which the pruner's
// invisible-step rule treats as commuting. Only the unreduced pass
// reaches the order the oracle rejects, so Audit reports ErrAuditFailed.
func TestAuditCatchesPruneMiss(t *testing.T) {
	prog := Program(func(k kernel.Kernel, r *trace.Recorder) {
		last := ""
		for _, name := range []string{"a", "b"} {
			k.Spawn(name, func(p *kernel.Proc) {
				last = name
				p.Yield()
			})
		}
		k.Spawn("observer", func(p *kernel.Proc) {
			p.Yield()
			p.Yield()
			r.Request(p, last, trace.NoArg)
		})
	})
	lastIsA := func(tr trace.Trace) []problems.Violation {
		for _, ev := range tr {
			if ev.Op == "a" {
				return []problems.Violation{{Rule: "last-writer-a"}}
			}
		}
		return nil
	}
	opts := Options{RandomRuns: -1, DFSRuns: 1000, DFSDepth: 24, Workers: 1}
	if res := Run(prog, lastIsA, opts); !res.Found || res.Err != nil {
		t.Fatalf("unreduced DFS: found=%v err=%v, want the violation", res.Found, res.Err)
	}
	opts.Prune = true
	if res := Run(prog, lastIsA, opts); res.Found {
		t.Fatalf("pruned DFS found the violation (%v); the scenario no longer exercises a miss", res.Violations)
	}
	opts.Audit = true
	if res := Run(prog, lastIsA, opts); !errors.Is(res.Err, ErrAuditFailed) {
		t.Fatalf("audited pruned DFS: err = %v, want ErrAuditFailed", res.Err)
	}
}

// A clean random phase holds at most one pooled slot per worker. Each
// worker judges the seed it ran and releases a clean run's slot at once;
// only a finding keeps its slot until the driver takes it. A slow batch
// oracle keeps the workers judging while others claim: a phase that
// pinned each slot until the driver judged it in seed order would hold
// up to randomLead×Workers. The DFS that overlaps the phase holds the
// driver's one slot, so the search stays within Workers slots.
func TestRandomPhasePoolBounded(t *testing.T) {
	monitor := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitorsol.NewReadersPriority())(k, r)
	})
	slow := func(tr trace.Trace) []problems.Violation {
		for start := time.Now(); time.Since(start) < 300*time.Microsecond; {
		}
		return problems.CheckReadersPriority(tr)
	}
	for _, workers := range []int{2, 4} {
		peak := 0
		res := Run(monitor, slow, Options{RandomRuns: 200, DFSRuns: 50, Prune: true, DPOR: true, Workers: workers,
			Progress: func(s Stats) { peak = max(peak, s.PoolSlots) }})
		if res.Found {
			t.Fatalf("workers=%d: unexpected finding: %v err=%v", workers, res.Violations, res.Err)
		}
		if peak > workers {
			t.Fatalf("workers=%d: search created %d pooled slots for %d runs, want at most Workers",
				workers, peak, res.Runs)
		}
	}
}

// A thousand deadlocking explorations must not strand goroutines: the
// kernel's shutdown path unwinds processes abandoned on deadlock, the
// exploration engine waits for its helpers before returning, and Run
// releases the coroutines its recycled kernels keep between runs
// (executor.close -> SimKernel.Close). The second program deadlocks only
// when b runs first: its FIFO baseline is clean, a random seed finds the
// deadlock, and the DFS overlapping the random phase, which flips the
// first choice last, is cut short by that finding.
func TestExplorationNoGoroutineLeak(t *testing.T) {
	stuck := Program(func(k kernel.Kernel, r *trace.Recorder) {
		k.Spawn("stuck1", func(p *kernel.Proc) { p.Park() })
		k.Spawn("stuck2", func(p *kernel.Proc) { p.Yield(); p.Park() })
	})
	bFirst := Program(func(k kernel.Kernel, r *trace.Recorder) {
		first := ""
		k.Spawn("a", func(p *kernel.Proc) {
			if first == "" {
				first = "a"
			}
			for range 16 {
				p.Yield()
			}
		})
		k.Spawn("b", func(p *kernel.Proc) {
			if first == "" {
				first = "b"
			}
			if first == "b" {
				p.Park()
			}
		})
	})
	never := func(trace.Trace) []problems.Violation { return nil }
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		res := Run(stuck, never, Options{RandomRuns: 2, DFSRuns: 2, Workers: 4})
		if !res.Found || !errors.Is(res.Err, kernel.ErrDeadlock) {
			t.Fatalf("run %d: res = %+v", i, res)
		}
		opts := Options{RandomRuns: 4, DFSRuns: 1000, Workers: 4}
		res = Run(bFirst, never, opts)
		if !res.Found || !errors.Is(res.Err, kernel.ErrDeadlock) || res.Runs > 1+opts.RandomRuns {
			t.Fatalf("overlapped run %d: res = %+v, want a random-phase deadlock", i, res)
		}
	}
	// Unwinding is asynchronous: give stragglers a moment to exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: started with %d, still %d after 1000 deadlocking runs",
				base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The binary dedup key must be injective: distinct choice sequences map to
// distinct keys (uvarint pairs are self-delimiting).
func TestScheduleKeyInjective(t *testing.T) {
	seqs := [][]kernel.Choice{
		nil,
		{{Ready: 1, Picked: 0}},
		{{Ready: 2, Picked: 0}},
		{{Ready: 2, Picked: 1}},
		{{Ready: 2, Picked: 1}, {Ready: 3, Picked: 2}},
		{{Ready: 2, Picked: 1}, {Ready: 3, Picked: 0}},
		{{Ready: 300, Picked: 299}},
		{{Ready: 300, Picked: 2}, {Ready: 1, Picked: 0}},
	}
	keys := map[string]int{}
	for i, s := range seqs {
		k := string(appendScheduleKey(nil, s))
		if j, dup := keys[k]; dup {
			t.Fatalf("sequences %d and %d share key %q", i, j, k)
		}
		keys[k] = i
	}
}
