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
// are not ordered by happens-before.
//
// A search that ends without a finding claims coverage only as a proof.
// Result.Stats.Exhausted holds when the DFS frontier emptied and no run
// was cut, that is, no run reached a decision point the search could not
// branch on (one at or past Options.DFSDepth, or past the 4096 steps the
// DPOR race pass walks); StatsCore.CutRuns counts the runs that did.
//
// There is one engine. Every run executes on a recycled kernel slot, and
// every DFS run forks from a checkpoint of the run that pushed it when
// one is live (checkpoint.go) instead of replaying its prefix from the
// root. Neither changes what is judged, only what it costs. The
// reductions (Prune, DPOR) do change which schedules run; Options.Audit
// checks them against the unreduced search.
//
// # Parallelism and determinism
//
// Run takes every verdict on one driver goroutine, in the canonical
// order: ascending seed for the random phase, LIFO frontier order for DFS.
// Every run is deterministic given its policy, so the Result — Schedule,
// Runs, Stats and the rest — is the same for every Options.Workers value.
// Only the random phase runs schedules in parallel: its seeds are known up
// front, so Workers goroutines, the driver included, claim them from one
// cursor and judge each where it ran, and the driver runs the next
// unclaimed seed itself whenever the verdict it must take next is still
// being made elsewhere. The DFS phase runs on the driver alone, since each
// run's children come from the run before. Workers: 1 runs the same
// random-phase loop with no helper goroutines.
package explore

import (
	"errors"
	"runtime"
	"slices"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// Program builds one run of the system under test on a reset kernel and
// recorder. It must spawn all processes (it is called before Run) and be
// deterministic apart from scheduling: exploration assumes two runs with
// the same schedule produce the same trace. Programs must also be safe to
// run on several kernels concurrently (each invocation gets its own kernel
// and recorder; sharing mutable state between invocations would break
// determinism anyway).
//
// The engine runs a program on recycled kernel slots, so a program may
// keep state with its slot instead of rebuilding it every run: on a
// *kernel.SimKernel it can store objects under a key of its own
// (SimKernel.Local/SetLocal) and reuse them on the slot's later runs. It
// must then reset that state at the start of every run, since the run
// before may have been cut short (deadlock, step limit, a streaming
// oracle's Stop) with processes mid-operation; a run on a recycled slot
// must be indistinguishable from one on a fresh kernel.
type Program func(k kernel.Kernel, r *trace.Recorder)

// Oracle judges a completed run's trace. The random phase calls it from
// every worker goroutine at once, so it must be safe for concurrent use;
// a pure function of the trace is.
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
	// Options.Progress. The CheckpointForks, SavedSteps, and
	// ReplayedSteps counters measure how much prefix work the DFS phase's
	// checkpoints saved (checkpoint.go).
	Stats StatsCore
	// Err is set when the finding is a kernel error (deadlock, livelock)
	// rather than an oracle violation, or when the Options.Audit
	// cross-check failed; errors.Is(Err, ErrAuditFailed) tells the two
	// apart.
	Err error
}

// ErrAuditFailed marks a Result.Err from Options.Audit: the unreduced DFS
// pass surfaced a violation rule or kernel-error class the reduced pass
// missed.
var ErrAuditFailed = errors.New("explore: audit failed")

// defaultMaxSteps is the per-run kernel step bound when Options.MaxSteps,
// Replay's maxSteps or SchedFile.MaxSteps is not positive.
const defaultMaxSteps = 100000

// Options bounds the exploration.
type Options struct {
	// RandomRuns is the number of seeded-random schedules to sample
	// (seeds 1..RandomRuns). Default 200; negative disables the random
	// phase entirely (DFS-only exploration).
	RandomRuns int
	// DFSRuns bounds the number of systematic runs (0 disables DFS).
	DFSRuns int
	// DFSDepth bounds the length of the choice prefix the DFS branches
	// on; beyond it, runs continue FIFO, and a run with a decision point
	// there counts in StatsCore.CutRuns. Default 40.
	DFSDepth int
	// MaxSteps is the per-run kernel step bound. Zero or negative means
	// the default, 100000. A run that exceeds it ends with a kernel error,
	// which is a finding (Violations nil, Err set).
	MaxSteps int64
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
	// state), so Audit exists as a cross-check.
	Prune bool
	// DPOR enables dynamic partial-order reduction in the DFS phase: the
	// kernel records which shared objects every scheduling step accessed
	// (kernel.WithDepTrace), and instead of branching at every visible
	// decision point the driver walks each completed run's dependency
	// trace, detects pairs of conflicting steps not ordered by
	// happens-before, and pushes a backtrack point at the earlier step's
	// branch group only (persistent sets). A sleep-set memory suppresses
	// re-proposing a process already scheduled from the same branch
	// group. The reduction composes with Prune (proposal points are
	// fingerprint-deduped), Stream, Shrink, and checkpointing (backtrack
	// points register against checkpoint branch groups), and all
	// decisions are made on the driver in canonical order, so the Result
	// stays byte-identical at every Workers count. Like Prune the
	// dependency relation is a conservative heuristic; Audit is the
	// cross-check. Result.Stats reports BacktrackPoints and DPORBlocked.
	// A reduced search that exhausts has judged one schedule of every
	// class the dependency relation tells apart, so its Exhausted is as
	// sound as that relation. The race pass walks at most the first 4096
	// steps of a run; a longer run counts as cut.
	DPOR bool
	// Audit cross-checks the reductions. It runs the DFS budget twice,
	// both passes to completion: once with the reductions turned on
	// (Prune, DPOR or both), once with none. If the unreduced pass
	// surfaced a violation rule or kernel-error class the reduced pass
	// missed, Result.Err wraps ErrAuditFailed. Otherwise the Result is
	// exactly what the reduced search alone reports. Audit turns no
	// reduction on by itself; with neither on it does nothing. Meant for
	// test suites and CI, not hunting.
	Audit bool
	// Stream, when non-nil, constructs a per-run streaming checker
	// mirroring the batch oracle (problems.IncrementalOracleFor). Runs
	// are judged by the stream — violating runs are cut short at the
	// first violation via kernel.SimKernel.Stop, and completed runs skip
	// the batch oracle entirely. The checker must agree with the oracle
	// on complete traces.
	Stream func() problems.StreamChecker
	// Shrink minimizes the finding's schedule by delta debugging before
	// Run returns: chunks of choices are removed and remaining choices
	// substituted with the FIFO default, re-running each candidate under
	// replay and re-judging it with the same oracle, until the schedule is
	// 1-minimal. The result lands in Result.MinSchedule; the replays are
	// counted in Result.ShrinkRuns, not Runs. Shrinking runs on the driver
	// and reuses the executor's recycled kernels, so it is cheap and
	// Workers-independent.
	Shrink bool
	// Progress, when non-nil, receives Stats snapshots from the driver as
	// the search advances — per phase transition and per judged run.
	// Called on the driver goroutine; keep it cheap (renderers should
	// throttle themselves, as ProgressLine does). Progress observes the
	// search but must not influence it.
	Progress func(Stats)

	// Deprecated: every run recycles its kernel slot; Pool is read
	// nowhere and will be removed.
	Pool bool
	// Deprecated: the DFS phase always forks from checkpoints; Checkpoint
	// is read nowhere and will be removed.
	Checkpoint bool

	// ckptLimit overrides the checkpoint budget (ckptBudget) for tests:
	// 0 keeps it, a small value starves the registry, and a negative
	// value keeps no checkpoints, so every DFS run replays its prefix
	// from the root.
	ckptLimit int
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
	if o.MaxSteps <= 0 {
		o.MaxSteps = defaultMaxSteps
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.ckptLimit == 0 {
		o.ckptLimit = ckptBudget
	}
	return o
}

// verdict judges one run: it is a finding if it ended in a kernel error
// (the oracle is not consulted then) or if its violations are not empty.
// Like the run's other views, a streamed verdict is valid only until the
// slot is released.
func verdict(out runOut, oracle Oracle) ([]problems.Violation, bool) {
	if out.err != nil {
		return nil, true
	}
	vs := out.violations(oracle)
	return vs, len(vs) > 0
}

// judge converts one run into a Result if it is a finding.
func judge(out runOut, oracle Oracle, runs int) (Result, bool) {
	vs, found := verdict(out, oracle)
	if !found {
		return Result{}, false
	}
	return finding(out, vs, runs), true
}

// finding is the Result of a run verdict found to be a finding. It holds
// copies: runOut's slices are views into recycled executor state, and a
// Result outlives the run that produced it.
func finding(out runOut, vs []problems.Violation, runs int) Result {
	return Result{
		Found:      true,
		Schedule:   append([]kernel.Choice(nil), out.schedule...),
		Trace:      append(trace.Trace(nil), out.tr...),
		Violations: slices.Clone(vs),
		Err:        out.err,
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
		shrinkResult(e, prog, oracle, &res, t)
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
	t.ran()
	if res, found := judge(out, oracle, t.st.Runs); found {
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
// and kernel error — used to double-check and to render findings. It runs
// one fresh kernel, which keeps no coroutines once Run returns; maxSteps
// not positive means the default bound.
func Replay(prog Program, schedule []kernel.Choice, maxSteps int64) (trace.Trace, error) {
	if maxSteps <= 0 {
		maxSteps = defaultMaxSteps
	}
	k := kernel.NewSim(kernel.WithMaxSteps(maxSteps), kernel.WithPolicy(kernel.Replay(schedule)))
	r := trace.NewRecorder(k)
	prog(k, r)
	err := k.Run()
	return r.Events(), err
}
