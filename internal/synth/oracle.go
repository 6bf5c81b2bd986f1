package synth

// The derived oracle: a constraint Set compiled mechanically into a
// judge over recorded traces, with no per-problem code. The contract
// (pinned verdict-for-verdict against the handwritten oracles by
// TestDerivedOracleAgreesWithHandwritten):
//
//   - Exclusion: at each admitted operation's Enter point, every
//     exclusion rule for its class is evaluated against the state the
//     trace shows strictly before that point, the candidate's own request
//     left out of the waiting population. A rule that holds is a
//     violation. The state is the Gate's own population type (policy.go),
//     advanced through the trace's requests and releases up to each
//     Enter, then granted the operation that entered.
//   - Priority (strict judging only): rule "A over B when cond" is
//     violated by an admitted B-operation b and an A-candidate a with
//     cond(a, b) when b entered inside a's waiting window after a release:
//     a pair trace.Overtakings yields, every Exit of the set's operations
//     a release. This is the rule the handwritten rw and fcfs oracles
//     apply: an admission decision is only attributable to the mechanism
//     if it observably made one (a release) while the favored request was
//     waiting, and like them it has no admissibility escape. Priority
//     conditions read no state (Validate admits only true, older,
//     smaller-arg and larger-arg), so they are evaluated without one.
//
// Non-strict judging (real-kernel traces) skips priority rules and any
// exclusion rule that consults the waiting population: both depend on
// request timing that a preemptive scheduler can reorder between the
// record and the mechanism.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/problems"
	"repro/internal/trace"
)

// Check judges a trace against the set's constraints. strict
// additionally checks priority rules and waiting-population conditions,
// which are exact only on deterministic (SimKernel) traces. It compiles
// the set on every call; Program compiles once and judges each run with
// the same code.
func (s *Set) Check(tr trace.Trace, strict bool) []problems.Violation {
	return s.compile().check(tr, strict)
}

// judge is a Set compiled into its derived oracle: what judging needs
// beyond the set itself, worked out once. A judge is never written after
// compile, so the explorer's workers share it; each judgment borrows its
// working memory from scratches.
type judge struct {
	set      *Set
	xWaiting []bool // exclusion rule i consults the waiting population
}

func (s *Set) compile() *judge {
	j := &judge{set: s, xWaiting: make([]bool, len(s.Excludes))}
	for i, x := range s.Excludes {
		j.xWaiting[i] = condUsesWaiting(x.Cond)
	}
	return j
}

// scratch is one judgment's working memory. Every judge draws from the
// one package pool, so a worker's buffers serve whichever program it
// judges next, and a warm judgment of a clean trace allocates nothing.
type scratch struct {
	ivs      []trace.Interval
	cls      []int
	byReq    []int   // intervals with a request, by RequestSeq
	byExit   []int   // intervals that exited, by ExitSeq
	releases []int64 // their ExitSeqs, ascending
	pop      population
	// other is the disfavored candidate of a priority evaluation. Cond.Eval
	// takes it by pointer through an interface, so a local would escape
	// to the heap on every evaluation.
	other Cand
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// classOf is the index of the class named op, or -1.
func (s *Set) classOf(op string) int {
	for i := range s.Classes {
		if s.Classes[i].Name == op {
			return i
		}
	}
	return -1
}

func (j *judge) check(tr trace.Trace, strict bool) []problems.Violation {
	s := j.set
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	ivs, err := tr.AppendIntervals(sc.ivs[:0])
	if err != nil {
		return []problems.Violation{{Rule: "instrumentation", Detail: err.Error()}}
	}
	sc.ivs = ivs
	cls, byReq, byExit := sc.cls[:0], sc.byReq[:0], sc.byExit[:0]
	for i := range ivs {
		iv := &ivs[i]
		ci := s.classOf(iv.Op)
		if ci < 0 {
			return []problems.Violation{{Rule: "instrumentation",
				Detail: fmt.Sprintf("operation %q is not a class of set %s", iv.Op, s.Name), Seq: iv.EnterSeq}}
		}
		cls = append(cls, ci)
		if iv.RequestSeq != 0 {
			byReq = append(byReq, i)
		}
		if iv.ExitSeq != 0 {
			byExit = append(byExit, i)
		}
	}
	slices.SortFunc(byReq, func(a, b int) int { return cmp.Compare(ivs[a].RequestSeq, ivs[b].RequestSeq) })
	slices.SortFunc(byExit, func(a, b int) int { return cmp.Compare(ivs[a].ExitSeq, ivs[b].ExitSeq) })
	sc.cls, sc.byReq, sc.byExit = cls, byReq, byExit

	// Executions come first in Intervals' order, by Enter: advance the
	// population to each one's Enter, judge it, then grant it.
	var out []problems.Violation
	pop := &sc.pop
	pop.reset(s)
	nextReq, nextExit := 0, 0
	for i := range ivs {
		iv := &ivs[i]
		if iv.EnterSeq == 0 { // not Started(), which would copy *iv
			continue
		}
		for ; nextReq < len(byReq) && ivs[byReq[nextReq]].RequestSeq < iv.EnterSeq; nextReq++ {
			pop.request(cls[byReq[nextReq]])
		}
		for ; nextExit < len(byExit) && ivs[byExit[nextExit]].ExitSeq < iv.EnterSeq; nextExit++ {
			pop.release(cls[byExit[nextExit]])
		}
		waited := iv.RequestSeq != 0
		pop.self = -1
		if waited {
			pop.self = cls[i]
		}
		self := Cand{Class: cls[i], Arg: iv.Arg, HasArg: iv.HasArg, Stamp: iv.RequestSeq}
		for xi, x := range s.Excludes {
			if x.Class != cls[i] {
				continue
			}
			if !strict && j.xWaiting[xi] {
				continue
			}
			if x.Cond.Eval(pop, self, nil) {
				out = append(out, problems.Violation{
					Rule:   fmt.Sprintf("x%d", xi),
					Detail: fmt.Sprintf("%s admitted while excluded (%s)", iv, x.Cond),
					Seq:    iv.EnterSeq,
				})
			}
		}
		pop.grant(cls[i], waited)
	}

	if strict && len(s.Priorities) > 0 {
		releases := sc.releases[:0]
		for _, i := range byExit {
			releases = append(releases, ivs[i].ExitSeq)
		}
		sc.releases = releases
		trace.Overtakings(ivs, releases, func(ai, bi int) {
			for pi, r := range s.Priorities {
				if r.A != cls[ai] || r.B != cls[bi] {
					continue
				}
				a, b := &ivs[ai], &ivs[bi]
				sc.other = Cand{Class: cls[bi], Arg: b.Arg, HasArg: b.HasArg, Stamp: b.RequestSeq}
				if !r.Cond.Eval(nil, Cand{Class: cls[ai], Arg: a.Arg, HasArg: a.HasArg, Stamp: a.RequestSeq}, &sc.other) {
					continue
				}
				out = append(out, problems.Violation{
					Rule:   fmt.Sprintf("p%d", pi),
					Detail: fmt.Sprintf("%s admitted over waiting %s (%s)", b, a, r),
					Seq:    b.EnterSeq,
				})
			}
		})
	}

	if len(out) > 1 {
		slices.SortStableFunc(out, func(a, b problems.Violation) int {
			if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
				return c
			}
			return strings.Compare(a.Rule, b.Rule)
		})
	}
	return out
}
