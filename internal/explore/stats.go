package explore

import "time"

// StatsCore is the deterministic core of the exploration engine's
// progress: driver-side counters that are byte-identical for every
// Options.Workers setting, like everything else in a Result. It is what
// Run stamps into Result.Stats — the wall-clock and pool observability
// fields live in Stats, the live view delivered to Options.Progress, and
// never reach a Result.
type StatsCore struct {
	// Phase is the engine's current phase: "baseline", "random", "dfs",
	// "shrink", or "done".
	Phase string
	// Runs is the number of schedules judged so far (shrink replays are
	// counted separately in ShrinkRuns).
	Runs int
	// Pruned counts sibling schedules skipped by fingerprint pruning.
	Pruned int
	// Frontier is the current DFS frontier depth (unexplored prefixes on
	// the stack); 0 outside the DFS phase.
	Frontier int
	// ShrinkRuns is the number of replays the shrinker has executed.
	ShrinkRuns int
	// ShrinkLen is the length of the best minimized schedule so far; 0
	// until the shrink phase starts.
	ShrinkLen int
	// CheckpointForks is the number of DFS runs that forked from a
	// checkpoint instead of replaying their prefix from the root
	// (Options.Checkpoint). The driver runs every DFS schedule itself, so
	// it is Workers-independent.
	CheckpointForks int
	// SavedSteps counts prefix steps served from a checkpoint across all
	// forked runs: steps the scheduler re-drove with the per-step
	// pipeline — policy consultation, choice/fingerprint/visibility/mark
	// recording, trace appends — skipped.
	SavedSteps int64
	// ReplayedSteps counts prefix steps executed through the full
	// pipeline: the whole prefix of DFS runs that found no usable
	// checkpoint, plus the post-checkpoint suffix of the prefix of
	// forked runs. Dense checkpoint hits show up as SavedSteps >>
	// ReplayedSteps. Zero (like CheckpointForks and SavedSteps) unless
	// Options.Checkpoint.
	ReplayedSteps int64
	// BacktrackPoints counts the backtrack nodes partial-order reduction
	// pushed onto the DFS frontier: the persistent-set branches the
	// happens-before analysis demanded. Zero unless Options.DPOR.
	BacktrackPoints int
	// DPORBlocked counts sibling alternatives that plain DFS branching
	// would have pushed and partial-order reduction did not — the
	// schedules proven commuting with an explored one. Zero unless
	// Options.DPOR.
	DPORBlocked int
	// Exhausted reports that the DFS frontier emptied before the run
	// budget did: every schedule the (possibly reduced) search considers
	// distinct has been judged.
	Exhausted bool
	// ScheduleSpaceLog2 is log2 of the total number of interleavings of
	// the scenario, computed from the baseline run's happens-before order
	// by linear-extension counting. Zero unless Options.DPOR.
	ScheduleSpaceLog2 float64
	// ScheduleSpaceExact reports whether ScheduleSpaceLog2 is an exact
	// linear-extension count or an upper bound. The count is the shuffle
	// multinomial across the order's independent components times each
	// component's own count: 1 for a single process, dynamic programming
	// over down-sets for interacting processes. A component whose DP
	// does not fit the shared state budget is bounded by its own chain
	// multinomial (its edges dropped), and then the count is inexact.
	ScheduleSpaceExact bool
	// ExploredFraction is the judged fraction of the schedule space:
	// Runs / 2^ScheduleSpaceLog2, clamped to 1, and exactly 1 when
	// Exhausted (the reduced search covers every equivalence class even
	// though it ran far fewer schedules). Zero unless Options.DPOR.
	ExploredFraction float64
}

// Stats is a snapshot of the exploration engine's progress, delivered to
// Options.Progress as the driver judges runs. It embeds the
// deterministic StatsCore and adds observability fields — wall clock,
// throughput, pool occupancy — that depend on the machine and worker
// count; only the StatsCore part is stamped into Result.Stats, so
// results stay reproducible.
type Stats struct {
	StatsCore

	// Elapsed is the wall-clock time since Run started. Observability
	// only: never part of Result.Stats.
	Elapsed time.Duration
	// RunsPerSec is the judged-run throughput (including shrink replays).
	// Observability only: never part of Result.Stats.
	RunsPerSec float64
	// PoolSlots is the number of kernel slots the executor has created;
	// PoolReuses the number of runs served by a recycled slot. Both are
	// worker-dependent; observability only, never part of Result.Stats.
	PoolSlots  int
	PoolReuses int
}

// tracker owns the engine's Stats and feeds Options.Progress. It lives on
// the driver: every mutation happens on the single goroutine that judges
// runs, so no locking is needed, and the counter stream is identical for
// every worker count.
type tracker struct {
	e        *executor
	progress func(Stats)
	start    time.Time
	st       Stats

	// Schedule-space coverage, noted once from the baseline run when
	// Options.DPOR is on (see coverage.go).
	covered  bool
	covLog2  float64
	covExact bool
}

func newTracker(e *executor, opts Options) *tracker {
	return &tracker{e: e, progress: opts.Progress, start: time.Now()}
}

// silent returns a tracker sharing e but emitting no progress — for
// reference passes (PruneAudit) whose runs are not part of the canonical
// counter stream.
func (t *tracker) silent() *tracker {
	return &tracker{e: t.e, st: t.st}
}

// phase marks a phase transition.
func (t *tracker) phase(name string) {
	t.st.Phase = name
	t.emit()
}

// ran records one judged run.
func (t *tracker) ran() {
	t.st.Runs++
	t.emit()
}

// shrank records one shrinker replay and the current best length.
func (t *tracker) shrank(bestLen int) {
	t.st.ShrinkRuns++
	t.st.ShrinkLen = bestLen
	t.emit()
}

// forked records one DFS run that forked from a checkpoint: saved prefix
// steps were served from the snapshot, replayed steps ran the full
// pipeline.
func (t *tracker) forked(saved, replayed int) {
	t.st.CheckpointForks++
	t.st.SavedSteps += int64(saved)
	t.st.ReplayedSteps += int64(replayed)
}

// replayed records one DFS run that replayed its whole prefix from the
// root (no usable checkpoint).
func (t *tracker) replayed(prefix int) {
	t.st.ReplayedSteps += int64(prefix)
}

// noteCoverage records the scenario's schedule-space size, measured once
// from the baseline run's happens-before order.
func (t *tracker) noteCoverage(log2 float64, exact bool) {
	t.covered = true
	t.covLog2 = log2
	t.covExact = exact
	t.st.ScheduleSpaceLog2 = log2
	t.st.ScheduleSpaceExact = exact
}

func (t *tracker) emit() {
	if t.progress == nil {
		return
	}
	s := t.st
	s.Elapsed = time.Since(t.start)
	if secs := s.Elapsed.Seconds(); secs > 0 {
		s.RunsPerSec = float64(s.Runs+s.ShrinkRuns) / secs
	}
	s.PoolSlots, s.PoolReuses = t.e.poolStats()
	t.progress(s)
}

// deterministic returns the final StatsCore for a Result: the driver's
// canonical counters, with the live-only fields left behind in Stats.
func (t *tracker) deterministic(res *Result) StatsCore {
	st := StatsCore{
		Phase:           "done",
		Runs:            res.Runs,
		Pruned:          res.Pruned,
		ShrinkRuns:      res.ShrinkRuns,
		ShrinkLen:       len(res.MinSchedule),
		CheckpointForks: t.st.CheckpointForks,
		SavedSteps:      t.st.SavedSteps,
		ReplayedSteps:   t.st.ReplayedSteps,
		BacktrackPoints: t.st.BacktrackPoints,
		DPORBlocked:     t.st.DPORBlocked,
		Exhausted:       t.st.Exhausted,
	}
	if t.covered {
		st.ScheduleSpaceLog2 = t.covLog2
		st.ScheduleSpaceExact = t.covExact
		st.ExploredFraction = exploredFraction(res.Runs, t.st.Exhausted, t.covLog2)
	}
	return st
}
