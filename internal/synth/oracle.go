package synth

// The derived oracle: a constraint Set compiled mechanically into a
// judge over recorded traces, with no per-problem code. The contract
// (pinned verdict-for-verdict against the handwritten oracles by
// TestDerivedOracleAgreesWithHandwritten):
//
//   - Exclusion: at each admitted operation's Enter point, every
//     exclusion rule for its class is evaluated against the state the
//     trace shows strictly before that point (the candidate's own
//     interval excluded). A rule that holds is a violation.
//   - Priority (strict judging only): rule "A over B when cond" is
//     violated by an admitted B-operation b and an A-candidate a with
//     cond(a, b) when b entered inside a's waiting window — after a's
//     request and before a's admission (never-admitted waiters extend to
//     the end of the trace) — and some operation exited in between. The
//     release window mirrors the handwritten rw.go rule: an admission
//     decision is only attributable to the mechanism if it observably
//     made one (a release) while the favored request was waiting; like
//     the handwritten rule it has no admissibility escape.
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

// seqEnd is a sequence number beyond any recorded event (a never-admitted
// waiter "enters" past the end of the trace).
const seqEnd = int64(^uint64(0) >> 1)

func enterOrEnd(iv trace.Interval) int64 {
	if !iv.Started() {
		return seqEnd
	}
	return iv.EnterSeq
}

// anyInWindow reports whether some seq in the ascending slice lies
// strictly between lo and hi.
func anyInWindow(seqs []int64, lo, hi int64) bool {
	for _, s := range seqs {
		if s >= hi {
			return false
		}
		if s > lo {
			return true
		}
	}
	return false
}

// traceView is the StateView the trace shows strictly before sequence
// point at, with one interval (the candidate under judgment) excluded.
// A judgment keeps one and moves it from candidate to candidate by
// setting at and skip.
type traceView struct {
	set  *Set
	ivs  []trace.Interval
	cls  []int
	at   int64
	skip int
}

func (v *traceView) Count(class int, kind CountKind) int {
	n := 0
	for i := range v.ivs {
		if i == v.skip || v.cls[i] != class {
			continue
		}
		iv := &v.ivs[i]
		started := iv.EnterSeq > 0 && iv.EnterSeq < v.at
		done := iv.ExitSeq > 0 && iv.ExitSeq < v.at
		switch kind {
		case CountWaiting:
			if iv.RequestSeq > 0 && iv.RequestSeq < v.at && !started {
				n++
			}
		case CountActive:
			if started && !done {
				n++
			}
		case CountStarted:
			if started {
				n++
			}
		case CountDone:
			if done {
				n++
			}
		}
	}
	return n
}

func (v *traceView) Slots() int {
	s := 0
	for i := range v.ivs {
		if i == v.skip {
			continue
		}
		if v.ivs[i].ExitSeq > 0 && v.ivs[i].ExitSeq < v.at {
			s += v.set.Classes[v.cls[i]].SlotDelta
		}
	}
	return s
}

func (v *traceView) LastStarted() int {
	best, bestSeq := -1, int64(0)
	for i := range v.ivs {
		if i == v.skip {
			continue
		}
		if e := v.ivs[i].EnterSeq; e > 0 && e < v.at && e > bestSeq {
			bestSeq = e
			best = v.cls[i]
		}
	}
	return best
}

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
	ivs   []trace.Interval
	cls   []int
	exits []int64
	view  traceView
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
	cls := sc.cls[:0]
	for i := range ivs {
		ci := s.classOf(ivs[i].Op)
		if ci < 0 {
			return []problems.Violation{{Rule: "instrumentation",
				Detail: fmt.Sprintf("operation %q is not a class of set %s", ivs[i].Op, s.Name), Seq: ivs[i].EnterSeq}}
		}
		cls = append(cls, ci)
	}
	sc.cls = cls
	v := &sc.view
	*v = traceView{set: s, ivs: ivs, cls: cls}

	var out []problems.Violation
	for i := range ivs {
		iv := &ivs[i]
		if !iv.Started() {
			continue
		}
		v.at, v.skip = iv.EnterSeq, i
		self := Cand{Class: cls[i], Arg: iv.Arg, HasArg: iv.HasArg, Stamp: iv.RequestSeq}
		for xi, x := range s.Excludes {
			if x.Class != cls[i] {
				continue
			}
			if !strict && j.xWaiting[xi] {
				continue
			}
			if x.Cond.Eval(v, self, nil) {
				out = append(out, problems.Violation{
					Rule:   fmt.Sprintf("x%d", xi),
					Detail: fmt.Sprintf("%s admitted while excluded (%s)", iv, x.Cond),
					Seq:    iv.EnterSeq,
				})
			}
		}
	}

	if strict {
		sc.exits = s.appendExitSeqs(sc.exits[:0], tr)
		exits := sc.exits
		for pi, r := range s.Priorities {
			for ai := range ivs {
				a := &ivs[ai]
				if cls[ai] != r.A || a.RequestSeq == 0 {
					continue
				}
				aEnd := enterOrEnd(*a)
				ac := Cand{Class: cls[ai], Arg: a.Arg, HasArg: a.HasArg, Stamp: a.RequestSeq}
				for bi := range ivs {
					b := &ivs[bi]
					if bi == ai || cls[bi] != r.B || !b.Started() {
						continue
					}
					if b.EnterSeq <= a.RequestSeq || b.EnterSeq >= aEnd {
						continue
					}
					if !anyInWindow(exits, a.RequestSeq, b.EnterSeq) {
						continue
					}
					sc.other = Cand{Class: cls[bi], Arg: b.Arg, HasArg: b.HasArg, Stamp: b.RequestSeq}
					v.at, v.skip = b.EnterSeq, bi
					if !r.Cond.Eval(v, ac, &sc.other) {
						continue
					}
					out = append(out, problems.Violation{
						Rule:   fmt.Sprintf("p%d", pi),
						Detail: fmt.Sprintf("%s admitted over waiting %s (%s)", b, a, r),
						Seq:    b.EnterSeq,
					})
				}
			}
		}
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

// appendExitSeqs appends the ascending Exit sequence numbers of the
// set's operations — the observable release points at which a mechanism
// makes admission decisions.
func (s *Set) appendExitSeqs(dst []int64, tr trace.Trace) []int64 {
	for i := range tr {
		if e := &tr[i]; e.Kind == trace.KindExit && s.classOf(e.Op) >= 0 {
			dst = append(dst, e.Seq)
		}
	}
	return dst
}
