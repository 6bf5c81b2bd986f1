// Package explore hunts for oracle violations by exploring schedules of a
// simulated program.
//
// The paper's footnote 3 identifies a specific interleaving under which
// the Figure-1 path-expression solution misbehaves; Bloom constructed it
// by hand. This package mechanizes the construction: a program is run
// under many schedules — seeded random sampling and bounded systematic
// enumeration over the SimKernel's recorded choice sequences — until some
// run's trace fails its oracle. The offending schedule is returned as a
// replayable choice sequence, making the anomaly a reproducible artifact
// rather than an argument.
//
// Exploration is stateless-model-checking shaped: programs under test are
// small scenario constructors, so bounded DFS over scheduling choices is
// enough to reach the anomalies. Options.DPOR adds dynamic partial-order
// reduction (dpor.go): the DFS branches only where two conflicting steps
// are not ordered by happens-before, and coverage.go reports how much of
// the schedule space the reduced search provably covered.
//
// # Parallelism and determinism
//
// Run judges every outcome on one driver goroutine, in the canonical
// order: ascending seed for the random phase, LIFO frontier order for DFS.
// Every run is deterministic given its policy, so the Result — Schedule,
// Runs, Stats and the rest — is the same for every Options.Workers value.
// Only the random phase runs schedules in parallel: its seeds are known up
// front, so Workers goroutines, the driver included, claim them from one
// cursor, and the driver runs the next unclaimed seed itself whenever the
// one it must judge next is still running elsewhere. The DFS phase runs on
// the driver alone, since each run's children come from the run before.
// Workers: 1 runs the same random-phase loop with no helper goroutines.
package explore

import (
	"runtime"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// Program builds one run of the system under test on a fresh kernel and
// recorder. It must spawn all processes (it is called before Run) and be
// deterministic apart from scheduling: exploration assumes two runs with
// the same schedule produce the same trace. Programs must also be safe to
// run on several kernels concurrently (each invocation gets its own kernel
// and recorder; sharing mutable state between invocations would break
// determinism anyway).
type Program func(k kernel.Kernel, r *trace.Recorder)

// Oracle judges a completed run's trace.
type Oracle func(tr trace.Trace) []problems.Violation

// Result describes one exploration outcome.
type Result struct {
	// Found reports whether a violating schedule was discovered.
	Found bool
	// Schedule is the replayable choice sequence of the violating run.
	Schedule []kernel.Choice
	// Trace is the violating run's trace. When a streaming checker cut
	// the run short (Options.Stream) it is the partial history up to the
	// violation.
	Trace trace.Trace
	// Violations are the oracle findings for that run.
	Violations []problems.Violation
	// Runs is the number of schedules judged, counting the violating one.
	// Random-phase runs that other workers executed past the finding are
	// not counted, so Runs is identical for every Workers setting.
	Runs int
	// Pruned counts sibling schedules the DFS phase skipped via
	// fingerprint pruning; always 0 unless Options.Prune. Like Runs it is
	// driver-side bookkeeping, identical for every Workers setting.
	Pruned int
	// MinSchedule is the 1-minimal violating schedule the shrinker
	// produced (Options.Shrink): it still triggers the same violation, and
	// removing any single choice from it no longer does. Nil when
	// shrinking was off or the finding was not shrinkable. MinSchedule is
	// canonicalized — every Choice records the actual ready count observed
	// at its decision point, so it replays under kernel.ExactReplay.
	MinSchedule []kernel.Choice
	// ShrinkRuns is the number of replays the shrinker executed. Shrink
	// replays are not counted in Runs, so enabling Shrink changes neither
	// Runs nor anything else about how the finding was reached.
	ShrinkRuns int
	// Stats is the deterministic counter core of the final progress
	// snapshot, byte-identical across Workers settings like the rest of
	// the Result. The live observability fields (wall clock, throughput,
	// pool occupancy) exist only in the Stats snapshots delivered to
	// Options.Progress. With Options.Checkpoint the CheckpointForks,
	// SavedSteps, and ReplayedSteps counters quantify prefix sharing;
	// they are the one part of a Result that legitimately differs
	// between the checkpointed and replay-from-root engines.
	Stats StatsCore
	// Err is set when the finding is a kernel error (deadlock, livelock)
	// rather than an oracle violation, or when a PruneAudit cross-check
	// failed.
	Err error
}

// Options bounds the exploration.
type Options struct {
	// RandomRuns is the number of seeded-random schedules to sample
	// (seeds 1..RandomRuns). Default 200; negative disables the random
	// phase entirely (DFS-only exploration).
	RandomRuns int
	// DFSRuns bounds the number of systematic runs (0 disables DFS).
	DFSRuns int
	// DFSDepth bounds the length of the choice prefix the DFS branches
	// on; beyond it, runs continue FIFO. Default 40.
	DFSDepth int
	// MaxSteps is the per-run kernel step bound. Default 100000.
	MaxSteps int64
	// IgnoreKernelErrors skips runs that deadlock or hit the step limit
	// instead of counting them as findings. By default a kernel error is
	// a finding (with Violations nil and Err set).
	IgnoreKernelErrors bool
	// Workers is the number of goroutines executing random-phase
	// schedules, the driver included; the DFS phase always runs on the
	// driver alone. 0 means runtime.GOMAXPROCS(0). The Result is the same
	// for every value (see the package comment).
	Workers int
	// Prune enables schedule-space pruning in the DFS phase: decision
	// points whose kernel-state fingerprint was already branched from are
	// not branched again, and alternatives at invisible (pure-yield) steps
	// are skipped. Pruning typically reaches the first violation in far
	// fewer runs; it is heuristic (the fingerprint cannot see user data
	// state), so PruneAudit exists as a cross-check.
	Prune bool
	// PruneAudit runs the DFS budget twice — pruned and unpruned, both to
	// completion — and reports an error finding if the unpruned frontier
	// surfaced any violation rule the pruned search missed. It implies
	// Prune for the reported Result. Meant for test suites, not hunting.
	PruneAudit bool
	// Pool recycles kernels, recorders, and their internal buffers across
	// runs (kernel.SimKernel.Reset) instead of allocating fresh ones, and
	// hands findings out as copies. Purely a throughput knob: the Result
	// is identical with and without it.
	Pool bool
	// Stream, when non-nil, constructs a per-run streaming checker
	// mirroring the batch oracle (problems.IncrementalOracleFor). Runs
	// are judged by the stream — violating runs are cut short at the
	// first violation via kernel.SimKernel.Stop, and completed runs skip
	// the batch oracle entirely. The checker must agree with the oracle
	// on complete traces.
	Stream func() problems.StreamChecker
	// DPOR enables dynamic partial-order reduction in the DFS phase: the
	// kernel records which shared objects every scheduling step accessed
	// (kernel.WithDepTrace), and instead of branching at every visible
	// decision point the driver walks each completed run's dependency
	// trace, detects pairs of conflicting steps not ordered by
	// happens-before, and pushes a backtrack point at the earlier step's
	// branch group only (persistent sets). A sleep-set memory suppresses
	// re-proposing a process already scheduled from the same branch
	// group. The reduction composes with Prune (proposal points are
	// fingerprint-deduped), Pool, Stream, Shrink, and Checkpoint
	// (backtrack points register against checkpoint branch groups), and
	// all decisions are made on the driver in canonical order, so the
	// Result stays byte-identical at every Workers count. Like Prune the
	// dependency relation is a conservative heuristic; DPORAudit is the
	// cross-check. Result.Stats reports BacktrackPoints, DPORBlocked,
	// and the analytic ExploredFraction (see coverage.go).
	DPOR bool
	// DPORAudit runs the DFS budget twice — reduced and fully unreduced,
	// both to completion — and reports an error finding if the unreduced
	// frontier surfaced any violation rule the reduced search missed. It
	// implies DPOR for the reported Result. Meant for test suites and CI,
	// not hunting.
	DPORAudit bool
	// Checkpoint enables prefix-sharing DFS: after each clean run the
	// engine captures a kernel snapshot at every decision point it
	// branched from (kernel.SnapshotAt), and sibling schedules fork from
	// the checkpoint (kernel.WithRestore) instead of replaying their
	// whole prefix from the root — the re-driven prefix skips the
	// scheduler's per-step pipeline and the recorder serves prefix
	// events from the snapshot. Composes with Prune, Pool, Stream, and
	// Shrink. The Result is byte-identical to the replay-from-root
	// engine at every Workers count, apart from the
	// CheckpointForks/SavedSteps/ReplayedSteps counters in Result.Stats
	// that quantify the sharing.
	Checkpoint bool
	// CheckpointBudget bounds the number of live checkpoints (each holds
	// copies of its prefix's schedule, per-step artifacts, and trace
	// events). Over budget, the least valuable checkpoint is evicted:
	// fewest pending sibling schedules first — LRU weighted by remaining
	// subtree size — with ties broken least-recently-forked. Default 256.
	CheckpointBudget int
	// Shrink minimizes the finding's schedule by delta debugging before
	// Run returns: chunks of choices are removed and remaining choices
	// substituted with the FIFO default, re-running each candidate under
	// replay and re-judging it with the same oracle, until the schedule is
	// 1-minimal. The result lands in Result.MinSchedule; the replays are
	// counted in Result.ShrinkRuns, not Runs. Shrinking runs on the driver
	// and reuses the executor's (possibly pooled) kernels, so it is cheap
	// and Workers-independent.
	Shrink bool
	// Progress, when non-nil, receives Stats snapshots from the driver as
	// the search advances — per phase transition and per judged run.
	// Called on the driver goroutine; keep it cheap (renderers should
	// throttle themselves). Progress observes the search but must not
	// influence it.
	Progress func(Stats)
}

func (o Options) withDefaults() Options {
	if o.RandomRuns == 0 {
		o.RandomRuns = 200
	}
	if o.RandomRuns < 0 {
		o.RandomRuns = 0
	}
	if o.DFSDepth == 0 {
		o.DFSDepth = 40
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 100000
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.PruneAudit {
		o.Prune = true
	}
	if o.DPORAudit {
		o.DPOR = true
	}
	if o.CheckpointBudget == 0 {
		o.CheckpointBudget = 256
	}
	return o
}

// judge converts one run into a Result if it is a finding. Findings are
// handed out as copies: runOut's slices are views into (possibly pooled)
// executor state, and a Result outlives the run that produced it.
func judge(out runOut, oracle Oracle, opts Options, runs int) (Result, bool) {
	if out.err != nil {
		if opts.IgnoreKernelErrors {
			return Result{}, false
		}
		return finding(out, nil, out.err, runs), true
	}
	if out.streamed {
		// The streaming checker judged this run event by event; a
		// completed run with no stream findings is clean, so the batch
		// oracle is skipped entirely.
		if len(out.streamVs) > 0 {
			return finding(out, append([]problems.Violation(nil), out.streamVs...), nil, runs), true
		}
		return Result{}, false
	}
	if vs := oracle(out.tr); len(vs) > 0 {
		return finding(out, vs, nil, runs), true
	}
	return Result{}, false
}

func finding(out runOut, vs []problems.Violation, err error, runs int) Result {
	return Result{
		Found:      true,
		Schedule:   append([]kernel.Choice(nil), out.schedule...),
		Trace:      append(trace.Trace(nil), out.tr...),
		Violations: vs,
		Err:        err,
		Runs:       runs,
	}
}

// Run explores schedules of prog until the oracle rejects one or the
// budget is exhausted. The result does not depend on Options.Workers.
func Run(prog Program, oracle Oracle, opts Options) Result {
	opts = opts.withDefaults()
	e := newExecutor(opts)
	defer e.close()
	t := newTracker(e, opts)

	res := runPhases(e, prog, oracle, opts, t)
	if opts.Shrink && res.Found {
		t.phase("shrink")
		shrinkResult(e, prog, oracle, opts, &res, t)
	}
	res.Stats = t.deterministic(&res)
	t.st.StatsCore = res.Stats
	t.emit()
	return res
}

// runPhases is the search itself: FIFO baseline, seeded random sampling,
// bounded DFS.
func runPhases(e *executor, prog Program, oracle Oracle, opts Options, t *tracker) Result {
	// Phase 0: the deterministic FIFO baseline.
	t.phase("baseline")
	out := e.run(prog, kernel.FIFO())
	if opts.DPOR {
		// The baseline run's happens-before order is the analytic
		// denominator: its linear-extension count is the scenario's total
		// interleaving count (see coverage.go).
		log2, exact := coverageOf(out)
		t.noteCoverage(log2, exact)
	}
	t.ran()
	if res, found := judge(out, oracle, opts, t.st.Runs); found {
		return res
	}
	e.release(out)

	// Phase 1: seeded random sampling.
	if res, found := randomPhase(e, prog, oracle, opts, t); found {
		return res
	}

	// Phase 2: bounded DFS over choice prefixes. Running Replay(prefix)
	// extends the prefix FIFO, and the recorded choices tell us where
	// alternatives exist.
	return dfsPhase(e, prog, oracle, opts, t)
}

// Replay re-executes prog under the given schedule and returns its trace
// and kernel error — used to double-check and to render findings.
func Replay(prog Program, schedule []kernel.Choice, maxSteps int64) (trace.Trace, error) {
	if maxSteps == 0 {
		maxSteps = 100000
	}
	e := newExecutor(Options{MaxSteps: maxSteps})
	out := e.run(prog, kernel.Replay(schedule))
	return append(trace.Trace(nil), out.tr...), out.err
}
