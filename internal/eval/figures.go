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

// ExploreWorkers is the worker count handed to every anomaly search in
// this package (explore.Options.Workers): 0 uses all cores. Exploration
// results are identical for every value — workers only run random-phase
// seeds the driver judges in seed order — so this is purely a throughput
// knob, settable from the evalsync -workers flag.
var ExploreWorkers int

// ExplorePool recycles kernels and recorders across exploration runs
// (explore.Options.Pool). Like ExploreWorkers it is a pure throughput
// knob — results are identical either way — settable from the evalsync
// -pool flag.
var ExplorePool bool

// ExplorePrune enables fingerprint pruning in every anomaly search
// (explore.Options.Prune), settable from the evalsync -prune flag.
// Pruning reaches findings in fewer runs, so reported run counts shrink;
// the default report (and its golden pin) keeps it off.
var ExplorePrune bool

// ExploreShrink minimizes every finding's schedule by delta debugging
// (explore.Options.Shrink), settable from the evalsync -shrink flag.
// Shrinking changes nothing about how findings are reached — only
// MinSchedule/ShrinkRuns are added to the outcome.
var ExploreShrink bool

// ExploreCheckpoint enables checkpointed DFS in every anomaly search
// (explore.Options.Checkpoint): sibling schedules fork from kernel
// snapshots at their branch point instead of replaying the shared
// prefix from the root. Settable from the evalsync -checkpoint flag.
// Results are byte-identical either way, apart from the checkpoint
// counters in Result.Stats.
var ExploreCheckpoint bool

// ExploreDPOR enables dynamic partial-order reduction in every anomaly
// search (explore.Options.DPOR): the DFS backtracks only where the
// happens-before analysis of completed runs demands it, and Result.Stats
// gains the schedule-space coverage fields. Settable from the evalsync
// -dpor flag. Like pruning it changes reported run counts, so the
// default report keeps it off.
var ExploreDPOR bool

// ExploreDPORAudit runs every anomaly search twice — reduced and fully
// unreduced at the same budget — and fails the search if the reduction
// missed any violation rule (explore.Options.DPORAudit; implies
// ExploreDPOR). Settable from the evalsync -dpor-audit flag.
var ExploreDPORAudit bool

// ExploreProgress, when non-nil, receives live progress snapshots from
// every anomaly search (explore.Options.Progress), settable from the
// evalsync -progress flag. Observes only; results are unchanged.
var ExploreProgress func(explore.Stats)

// exploreOpts applies the package-level exploration knobs to base.
func exploreOpts(base explore.Options) explore.Options {
	base.Workers = ExploreWorkers
	base.Pool = ExplorePool
	base.Prune = ExplorePrune
	base.Shrink = ExploreShrink
	base.Checkpoint = ExploreCheckpoint
	base.DPOR = ExploreDPOR
	base.DPORAudit = ExploreDPORAudit
	base.Progress = ExploreProgress
	return base
}

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
	// MinSchedule is the shrunk anomaly schedule (ExploreShrink); nil when
	// shrinking was off.
	MinSchedule []kernel.Choice
	// ShrinkRuns counts the shrinker's replays (not included in Runs).
	ShrinkRuns int
}

// RunFigure1 searches for the footnote-3 anomaly in the Figure-1
// solution.
func RunFigure1() Figure1Result {
	prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
		FigureScenario(pathexprsol.NewReadersPriority())(k, r)
	})
	res := explore.Run(prog, problems.CheckReadersPriority,
		exploreOpts(explore.Options{RandomRuns: 300, DFSRuns: 600}))
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

// SaveFigure1Sched seals the F1 finding as a replayable schedule artifact
// and writes it to path. The shrunk schedule is preferred when available.
func SaveFigure1Sched(res Figure1Result, path string) error {
	schedule := res.Schedule
	if res.MinSchedule != nil {
		schedule = res.MinSchedule
	}
	prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
		FigureScenario(pathexprsol.NewReadersPriority())(k, r)
	})
	f := explore.NewSchedFile("pathexpr", problems.NameReadersPriority, "figure", schedule)
	f.Note = "footnote-3 readers-priority anomaly found by evalsync F1"
	if err := f.Seal(prog, problems.CheckReadersPriority); err != nil {
		return err
	}
	return f.WriteFile(path)
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
func RunFigure2() Figure2Result {
	prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
		FigureScenario(pathexprsol.NewWritersPriority())(k, r)
	})
	hold := explore.Run(prog, problems.CheckWritersPriority,
		exploreOpts(explore.Options{RandomRuns: 200, DFSRuns: 400}))
	inverse := explore.Run(prog, problems.CheckReadersPriority,
		exploreOpts(explore.Options{RandomRuns: 200, DFSRuns: 400}))
	return Figure2Result{
		WritersPriorityHolds:    !hold.Found,
		ReadersPriorityViolated: inverse.Found && inverse.Err == nil,
		Runs:                    hold.Runs + inverse.Runs,
	}
}

// MechanismFigureCheck runs the F1 scenario against another mechanism's
// readers-priority solution and reports whether the anomaly exists there
// (for the paper's monitor/serializer contrast, it must not).
func MechanismFigureCheck(db func() problems.RWStore) (anomaly bool, runs int) {
	prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
		FigureScenario(db())(k, r)
	})
	res := explore.Run(prog, problems.CheckReadersPriority,
		exploreOpts(explore.Options{RandomRuns: 200, DFSRuns: 400}))
	return res.Found, res.Runs
}
