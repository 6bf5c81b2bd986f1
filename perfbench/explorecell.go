package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// A cell is one explore.Run of the fuzz or hunt workload: a program, its
// oracle and the options it is explored with. layer names the module the
// program comes from ("synth" or "solutions").
type cell struct {
	name   string
	layer  string
	prog   explore.Program
	oracle explore.Oracle
	stream func() problems.StreamChecker
	opts   explore.Options
}

// exploreAcc accumulates what the cells of a run report: deterministic
// counters from Result.Stats, live pool counters, and traced-only figures.
type exploreAcc struct {
	cells, findings, exhausted, exact   int
	runs, shrinkRuns, pruned, minLenSum int
	forks, backtracks, blocked          int
	saved, replayed                     int64
	poolSlots, poolReuses               int
	allocBytes                          uint64
	events                              int64
	sealMs                              []float64
}

// runCell explores c with the given worker count (0: the engine default).
// With a tracer it brackets explore.Run, each phase (seen through
// Options.Progress), each Program call and each batch-oracle call in spans,
// and times every streaming Observe into a busy counter.
func runCell(c cell, workers int, tr *tracer, acc *exploreAcc) (explore.Result, float64) {
	opts := c.opts
	opts.Workers = workers
	opts.Stream = c.stream
	prog, oracle := c.prog, c.oracle

	var runID int
	var phaseID atomic.Int64
	var phaseName string
	var last explore.Stats
	var ms0 runtime.MemStats
	if tr != nil {
		runID = tr.begin("explore.run", 0)
		phaseID.Store(int64(runID))
		prog = func(k kernel.Kernel, r *trace.Recorder) {
			id := tr.begin(c.layer+".program", int(phaseID.Load()))
			c.prog(k, r)
			tr.end(id)
		}
		oracle = func(t trace.Trace) []problems.Violation {
			id := tr.begin("problems.oracle", int(phaseID.Load()))
			vs := c.oracle(t)
			tr.end(id)
			atomic.AddInt64(&acc.events, int64(len(t)))
			return vs
		}
		if c.stream != nil {
			opts.Stream = func() problems.StreamChecker {
				return &timedStream{inner: c.stream(), tr: tr, events: &acc.events}
			}
		}
		opts.Progress = func(s explore.Stats) {
			last = s
			if s.Phase == phaseName {
				return
			}
			if phaseName != "" {
				tr.end(int(phaseID.Load()))
			}
			phaseName = s.Phase
			if s.Phase == "done" {
				phaseID.Store(int64(runID))
				return
			}
			phaseID.Store(int64(tr.begin("explore.phase."+s.Phase, runID)))
		}
		runtime.ReadMemStats(&ms0)
	}

	start := time.Now()
	res := explore.Run(prog, oracle, opts)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6

	if tr != nil {
		tr.end(runID)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		acc.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		acc.poolSlots += last.PoolSlots
		acc.poolReuses += last.PoolReuses
	}
	st := res.Stats
	acc.cells++
	acc.runs += res.Runs
	acc.shrinkRuns += res.ShrinkRuns
	acc.pruned += res.Pruned
	acc.forks += st.CheckpointForks
	acc.saved += st.SavedSteps
	acc.replayed += st.ReplayedSteps
	acc.backtracks += st.BacktrackPoints
	acc.blocked += st.DPORBlocked
	if st.Exhausted {
		acc.exhausted++
	}
	if st.ScheduleSpaceExact {
		acc.exact++
	}
	if res.Found {
		acc.findings++
		acc.minLenSum += len(finalSchedule(res))
	}
	return res, ms
}

// addVerdict counts one explore.Run verdict that took ms milliseconds.
func (p *passOut) addVerdict(res explore.Result, ms float64) {
	p.samplesMs = append(p.samplesMs, ms)
	p.judged += int64(res.Runs)
	p.done += float64(res.Runs)
	p.busyS += ms / 1e3
	p.attempted++
}

// sealAndVerify seals a finding as a schedule artifact and replays it with
// full drift detection, as syncfuzz and simtrace -save-sched do.
func sealAndVerify(c cell, res explore.Result, tr *tracer, acc *exploreAcc) error {
	id := tr.begin("explore.seal", 0)
	start := time.Now()
	f := explore.NewSchedFile("bench", c.name, "bench", finalSchedule(res))
	err := f.Seal(c.prog, c.oracle)
	if err == nil {
		_, _, err = f.Verify(c.prog, c.oracle)
	}
	tr.end(id)
	if tr != nil {
		acc.sealMs = append(acc.sealMs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	if err != nil {
		return fmt.Errorf("%s: sealed finding does not verify: %w", c.name, err)
	}
	return nil
}

func finalSchedule(res explore.Result) []kernel.Choice {
	if len(res.MinSchedule) > 0 {
		return res.MinSchedule
	}
	return res.Schedule
}

// timedStream times each Observe of a streaming checker.
type timedStream struct {
	inner  problems.StreamChecker
	tr     *tracer
	events *int64
}

func (s *timedStream) Observe(e trace.Event) []problems.Violation {
	start := time.Now()
	vs := s.inner.Observe(e)
	s.tr.add("problems.stream", int64(time.Since(start)))
	atomic.AddInt64(s.events, 1)
	return vs
}

func (s *timedStream) Reset() { s.inner.Reset() }

// exploreLayerMetrics turns the traced passes' spans and counters into the
// explore, problems, trace, synth and solutions per-layer metrics.
func exploreLayerMetrics(tr *tracer, acc *exploreAcc, passes int, m map[string]float64) {
	spans := tr.closed()
	self := selfTimes(spans)
	np := float64(passes)
	var runNs, phaseNs, phaseSelfNs int64
	var oracleN, oracleNs int64
	progN := map[string]int64{}
	progNs := map[string]int64{}
	for _, s := range spans {
		d := s.end - s.start
		switch {
		case s.name == "explore.run":
			runNs += d
		case strings.HasPrefix(s.name, "explore.phase."):
			phaseNs += d
			phaseSelfNs += self[s.id]
			m["explore.phase_ms."+strings.TrimPrefix(s.name, "explore.phase.")] += float64(d) / 1e6 / np
		case s.name == "problems.oracle":
			oracleN++
			oracleNs += d
		case s.name == "synth.program" || s.name == "solutions.program":
			progN[layerOf(s.name)]++
			progNs[layerOf(s.name)] += d
		}
	}
	stream := tr.busyOf("problems.stream")
	schedules := float64(acc.runs + acc.shrinkRuns)
	if schedules > 0 {
		m["explore.run_self_us"] = float64(phaseSelfNs-stream.ns) / 1e3 / schedules
		m["explore.alloc_bytes_per_schedule"] = float64(acc.allocBytes) / schedules
		m["trace.events_per_run"] = float64(acc.events) / schedules
	}
	if runNs > 0 {
		m["explore.phase_cover_frac"] = float64(phaseNs) / float64(runNs)
	}
	m["explore.pool_reuse_frac"] = ratio(float64(acc.poolReuses), float64(acc.poolReuses+acc.poolSlots))
	for _, l := range []string{"synth", "solutions"} {
		if progN[l] > 0 {
			m[l+".program_us"] = float64(progNs[l]) / 1e3 / float64(progN[l])
		}
	}
	m["problems.oracle_calls"] = float64(oracleN) / np
	if oracleN > 0 {
		m["problems.oracle_us_per_call"] = float64(oracleNs) / 1e3 / float64(oracleN)
	}
	m["problems.stream_ms"] = float64(stream.ns) / 1e6 / np
	m["explore.checkpoint_forks"] = float64(acc.forks) / np
	m["explore.checkpoint_saved_frac"] = ratio(float64(acc.saved), float64(acc.saved+acc.replayed))
	m["explore.backtrack_points"] = float64(acc.backtracks) / np
	m["explore.dpor_blocked_frac"] = ratio(float64(acc.blocked), float64(acc.blocked+acc.backtracks))
	m["explore.pruned"] = float64(acc.pruned) / np
	m["explore.exhausted_frac"] = ratio(float64(acc.exhausted), float64(acc.cells))
	m["explore.coverage_exact_frac"] = ratio(float64(acc.exact), float64(acc.cells))
	m["explore.shrink_runs"] = float64(acc.shrinkRuns) / np
	if acc.findings > 0 {
		m["explore.min_schedule_len"] = float64(acc.minLenSum) / float64(acc.findings)
	}
	if len(acc.sealMs) > 0 {
		m["explore.seal_ms"] = median(acc.sealMs)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
