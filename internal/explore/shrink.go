// Counterexample shrinking: delta debugging over schedules.
//
// A finding's Schedule is the violating run's full choice sequence —
// typically dozens to hundreds of choices, most of them irrelevant to the
// violation. The paper's footnote-3 interleaving is persuasive precisely
// because Bloom's hand-built version is small enough to read; the
// shrinker recovers that quality mechanically. It minimizes along the two
// axes a schedule has: *length* (ddmin chunk removal — dropping a choice
// shifts the decision points after it, and the replay policy's FIFO
// fallback absorbs the tail) and *content* (substituting the FIFO default
// for individual picks, so the surviving non-default choices are exactly
// the deviations the violation needs). A final single-removal fixpoint
// pass guarantees 1-minimality: removing any one choice from MinSchedule
// no longer reproduces the violation.
//
// Every accepted candidate is canonicalized to what the kernel actually
// recorded while replaying it (clamped picks resolved, ready counts made
// exact, default tail trimmed), so the published MinSchedule replays
// under kernel.ExactReplay and can be saved as a schedule artifact.
//
// Shrinking runs on the driver goroutine and replays through the same
// executor as the search, reusing its recycled kernels, so the
// steady-state cost of a shrink step is one short replay. Candidate
// generation is a pure function of the original schedule, so MinSchedule
// and ShrinkRuns are identical for every Options.Workers setting.
package explore

import (
	"errors"

	"repro/internal/kernel"
)

// shrinkTarget is the violation the minimized schedule must preserve:
// either "same oracle rule" (any of the original finding's rules) or
// "same kernel error class".
type shrinkTarget struct {
	wantErr      bool
	wantDeadlock bool
	rules        map[string]bool
}

// targetOf derives the preservation target from a finding. The second
// result is false when the finding is not shrinkable: no schedule, or an
// engine-level error (an Audit failure) rather than a property of one
// run.
func targetOf(res *Result) (shrinkTarget, bool) {
	if len(res.Schedule) == 0 {
		return shrinkTarget{}, false
	}
	if res.Err != nil {
		if len(res.Violations) > 0 {
			// An audit error stapled onto an oracle finding; the Err is
			// not reproducible by replaying one schedule.
			return shrinkTarget{}, false
		}
		return shrinkTarget{
			wantErr:      true,
			wantDeadlock: errors.Is(res.Err, kernel.ErrDeadlock),
		}, true
	}
	tgt := shrinkTarget{rules: make(map[string]bool, len(res.Violations))}
	for _, v := range res.Violations {
		tgt.rules[v.Rule] = true
	}
	if len(tgt.rules) == 0 {
		return shrinkTarget{}, false
	}
	return tgt, true
}

// matches judges one candidate replay against the target.
func (tgt shrinkTarget) matches(out runOut, oracle Oracle) bool {
	if out.err != nil {
		if !tgt.wantErr {
			return false
		}
		if tgt.wantDeadlock {
			return errors.Is(out.err, kernel.ErrDeadlock)
		}
		return true
	}
	if tgt.wantErr {
		return false
	}
	for _, v := range out.violations(oracle) {
		if tgt.rules[v.Rule] {
			return true
		}
	}
	return false
}

// shrinker is the minimization state: target, executor, and the tracker
// feeding ShrinkRuns/progress.
type shrinker struct {
	e      *executor
	prog   Program
	oracle Oracle
	tgt    shrinkTarget
	t      *tracker
	res    *Result
}

// shrinkResult minimizes res.Schedule into res.MinSchedule. It mutates
// only MinSchedule and ShrinkRuns; the finding itself (Schedule, Trace,
// Violations, Runs) is untouched, so shrinking never changes what was
// found, only how it is presented.
func shrinkResult(e *executor, prog Program, oracle Oracle, res *Result, t *tracker) {
	tgt, ok := targetOf(res)
	if !ok {
		return
	}
	s := &shrinker{e: e, prog: prog, oracle: oracle, tgt: tgt, t: t, res: res}
	best, ok := s.attempt(res.Schedule)
	if !ok {
		// The finding does not reproduce under plain replay. That means
		// the program is not schedule-deterministic — nothing the
		// shrinker does is sound, so leave MinSchedule nil.
		return
	}
	best = s.ddmin(best)
	best = s.substituteDefaults(best)
	best = s.oneMinimal(best)
	res.MinSchedule = best
}

// attempt replays cand and, when the run still matches the target,
// returns the canonicalized equivalent: the choices the kernel actually
// recorded (truncated to the candidate's length, default tail trimmed).
// The canonical form replays identically — picks beyond the candidate are
// the FIFO default the fallback would supply anyway — but has exact Ready
// values, which ExactReplay and the schedule-file fingerprint need.
func (s *shrinker) attempt(cand []kernel.Choice) ([]kernel.Choice, bool) {
	out := s.e.run(s.prog, kernel.Replay(cand))
	ok := s.tgt.matches(out, s.oracle)
	var canon []kernel.Choice
	if ok {
		rec := out.schedule
		if len(rec) > len(cand) {
			rec = rec[:len(cand)]
		}
		canon = trimDefaultTail(append([]kernel.Choice(nil), rec...))
	}
	s.e.release(out)
	s.res.ShrinkRuns++
	bestLen := s.t.st.ShrinkLen
	if ok {
		bestLen = len(canon)
	}
	s.t.shrank(bestLen)
	return canon, ok
}

// trimDefaultTail drops trailing FIFO-default choices: Replay's fallback
// regenerates them, so they carry no information.
func trimDefaultTail(cs []kernel.Choice) []kernel.Choice {
	n := len(cs)
	for n > 0 && cs[n-1].Picked == 0 {
		n--
	}
	return cs[:n]
}

// ddmin is Zeller's delta-debugging minimization over the choice
// sequence: try removing each of n complement chunks, recursing to finer
// granularity when nothing at the current one reproduces the violation.
func (s *shrinker) ddmin(best []kernel.Choice) []kernel.Choice {
	n := 2
	for len(best) >= 2 {
		chunk := (len(best) + n - 1) / n
		reduced := false
		for start := 0; start < len(best); start += chunk {
			end := min(start+chunk, len(best))
			cand := make([]kernel.Choice, 0, len(best)-(end-start))
			cand = append(cand, best[:start]...)
			cand = append(cand, best[end:]...)
			if canon, ok := s.attempt(cand); ok {
				best = canon
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(best) {
				break
			}
			n = min(n*2, len(best))
		}
	}
	return best
}

// substituteDefaults tries to replace each surviving non-default pick
// with the FIFO default, so MinSchedule's non-zero picks are exactly the
// deviations the violation requires.
func (s *shrinker) substituteDefaults(best []kernel.Choice) []kernel.Choice {
	for i := 0; i < len(best); i++ {
		if best[i].Picked == 0 {
			continue
		}
		cand := append([]kernel.Choice(nil), best...)
		cand[i].Picked = 0
		if canon, ok := s.attempt(cand); ok {
			best = canon
			// The canonical form may be shorter (trimmed tail); the next
			// iteration re-checks from the current index.
			i--
		}
	}
	return best
}

// oneMinimal removes single choices to a fixpoint. ddmin already ends at
// granularity 1, but the substitutions after it can unlock further
// removals; this pass restores the guarantee that dropping any one choice
// from the result no longer reproduces the violation.
func (s *shrinker) oneMinimal(best []kernel.Choice) []kernel.Choice {
	for {
		improved := false
		for i := 0; i < len(best); i++ {
			cand := make([]kernel.Choice, 0, len(best)-1)
			cand = append(cand, best[:i]...)
			cand = append(cand, best[i+1:]...)
			if canon, ok := s.attempt(cand); ok {
				best = canon
				improved = true
				break
			}
		}
		if !improved {
			return best
		}
	}
}
