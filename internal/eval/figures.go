package eval

import (
	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions/pathexprsol"
	"repro/internal/trace"
)

// Experiment F1: the paper's Figure 1 — the published path-expression
// readers-priority solution — and its footnote-3 anomaly: "If a write is
// in progress, and another WRITE starts, the second writer can start
// writeattempt and requestwrite, and become blocked at the third path. If
// a reader enters before the end of the first write, it will be blocked
// at entry to the second path by the requestwrite in progress. The second
// writer will therefore gain access to the resource before the reader,
// though readers should have priority."
//
// Experiment F2: Figure 2, the writers-priority counterpart, which under
// the same arrival pattern must admit the second writer before the reader
// — the behavior that is *wrong* for F1 is *required* for F2.
//
// Every search in this package takes the caller's explore.Options (the
// evalsync flags: workers, reductions, audit, shrinking, progress) and
// sets its own budgets on the copy, plus the reductions T8 and T9 are
// defined by. Workers never changes a result; the reductions change run
// counts, so the default report keeps them off.

// FigureScenario spawns the footnote-3 arrival pattern against db: a
// first writer holds the resource while one reader and then a second
// writer arrive.
func FigureScenario(db problems.RWStore) explore.Program {
	return func(k kernel.Kernel, r *trace.Recorder) {
		k.Spawn("writer1", func(p *kernel.Proc) {
			r.Request(p, problems.OpWrite, trace.NoArg)
			db.Write(p, func() {
				r.Enter(p, problems.OpWrite, trace.NoArg)
				for i := 0; i < 6; i++ {
					p.Yield()
				}
				r.Exit(p, problems.OpWrite, trace.NoArg)
			})
		})
		k.Spawn("reader", func(p *kernel.Proc) {
			p.Yield()
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

// figureProgram runs FigureScenario on a fresh store from newDB each run.
func figureProgram(newDB func(kernel.Kernel) problems.RWStore) explore.Program {
	return func(k kernel.Kernel, r *trace.Recorder) { FigureScenario(newDB(k))(k, r) }
}

// Figure1Result is the F1 experiment outcome.
type Figure1Result struct {
	// AnomalyFound: schedule exploration exhibited a readers-priority
	// violation in the Figure-1 solution, confirming footnote 3.
	AnomalyFound bool
	// Schedule replays the anomaly.
	Schedule []kernel.Choice
	// Trace is the violating history.
	Trace trace.Trace
	// Violations are the oracle findings.
	Violations []problems.Violation
	Runs       int
	// MinSchedule is the shrunk anomaly schedule (Options.Shrink); nil
	// when shrinking was off.
	MinSchedule []kernel.Choice
	// ShrinkRuns counts the shrinker's replays (not included in Runs).
	ShrinkRuns int
}

// RunFigure1 searches for the footnote-3 anomaly in the Figure-1
// solution.
func RunFigure1(opts explore.Options) Figure1Result {
	prog := figureProgram(func(kernel.Kernel) problems.RWStore { return pathexprsol.NewReadersPriority() })
	opts.RandomRuns, opts.DFSRuns = 300, 600
	res := explore.Run(prog, problems.CheckReadersPriority, opts)
	return Figure1Result{
		AnomalyFound: res.Found && res.Err == nil,
		Schedule:     res.Schedule,
		Trace:        res.Trace,
		Violations:   res.Violations,
		Runs:         res.Runs,
		MinSchedule:  res.MinSchedule,
		ShrinkRuns:   res.ShrinkRuns,
	}
}

// Figure2Result is the F2 experiment outcome.
type Figure2Result struct {
	// WritersPriorityHolds: exploration found no writers-priority
	// violation in the Figure-2 solution.
	WritersPriorityHolds bool
	// ReadersPriorityViolated: the same solution violates the
	// readers-priority oracle (it implements the opposite constraint) —
	// evidence the two figures genuinely differ in their priority
	// constraint while sharing the exclusion constraint.
	ReadersPriorityViolated bool
	Runs                    int
}

// RunFigure2 checks the Figure-2 solution both ways.
func RunFigure2(opts explore.Options) Figure2Result {
	prog := figureProgram(func(kernel.Kernel) problems.RWStore { return pathexprsol.NewWritersPriority() })
	opts.RandomRuns, opts.DFSRuns = 200, 400
	hold := explore.Run(prog, problems.CheckWritersPriority, opts)
	inverse := explore.Run(prog, problems.CheckReadersPriority, opts)
	return Figure2Result{
		WritersPriorityHolds:    !hold.Found,
		ReadersPriorityViolated: inverse.Found && inverse.Err == nil,
		Runs:                    hold.Runs + inverse.Runs,
	}
}
