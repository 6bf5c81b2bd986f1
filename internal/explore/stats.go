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
	// (checkpoint.go). The driver runs every DFS schedule itself, so it is
	// Workers-independent.
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
	// ReplayedSteps.
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
	// CutRuns counts the DFS runs the search could not branch on at
	// every decision point: a run with a decision point (two or more
	// ready processes) at or past Options.DFSDepth, which the DFS runs
	// FIFO, or, with Options.DPOR, a run longer than the 4096 steps the
	// race pass walks, whose late races are never proposed. A cut run's
	// unexplored continuations are schedules the search never judged.
	CutRuns int
	// Exhausted reports that the search is a proof: the DFS frontier
	// emptied before the run budget did and no run was cut, so every
	// schedule the (possibly reduced) search considers distinct has been
	// judged. The reductions' own soundness is what Options.Audit checks.
	Exhausted bool
	// Deprecated: the schedule-space counter is gone; ScheduleSpaceExact
	// is always false and will be removed.
	ScheduleSpaceExact bool
	// Deprecated: ExploredFraction is 1 when Exhausted and 0 otherwise;
	// read Exhausted instead. It will be removed.
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
}

func newTracker(e *executor, opts Options) *tracker {
	return &tracker{e: e, progress: opts.Progress, start: time.Now()}
}

// silent returns a tracker sharing e but emitting no progress — for
// reference passes (Audit) whose runs are not part of the canonical
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
		CutRuns:         t.st.CutRuns,
		Exhausted:       t.st.Exhausted,
	}
	if st.Exhausted {
		st.ExploredFraction = 1
	}
	return st
}
