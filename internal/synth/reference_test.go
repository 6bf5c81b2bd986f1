package synth

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// The derived oracle as it was before it shared the Gate's population
// and the release-window walk, kept as its specification: a trace view
// that rescans every interval on each condition evaluation, and the
// strict priority half as a loop over every pair of intervals.

// referenceView is the StateView the trace shows strictly before
// sequence point at, with one interval (the candidate under judgment)
// excluded.
type referenceView struct {
	set  *Set
	ivs  []trace.Interval
	cls  []int
	at   int64
	skip int
}

func (v *referenceView) Count(class int, kind CountKind) int {
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

func (v *referenceView) Slots() int {
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

func (v *referenceView) LastStarted() int {
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

// referenceInWindow reports whether some seq in the ascending slice lies
// strictly between lo and hi.
func referenceInWindow(seqs []int64, lo, hi int64) bool {
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

// referenceCheck is Set.Check by the reference view and the all-pairs
// priority loop.
func referenceCheck(s *Set, tr trace.Trace, strict bool) []problems.Violation {
	ivs, err := tr.Intervals()
	if err != nil {
		return []problems.Violation{{Rule: "instrumentation", Detail: err.Error()}}
	}
	var cls []int
	for i := range ivs {
		ci := s.classOf(ivs[i].Op)
		if ci < 0 {
			return []problems.Violation{{Rule: "instrumentation",
				Detail: fmt.Sprintf("operation %q is not a class of set %s", ivs[i].Op, s.Name), Seq: ivs[i].EnterSeq}}
		}
		cls = append(cls, ci)
	}
	v := &referenceView{set: s, ivs: ivs, cls: cls}

	var out []problems.Violation
	for i := range ivs {
		iv := &ivs[i]
		if !iv.Started() {
			continue
		}
		v.at, v.skip = iv.EnterSeq, i
		self := Cand{Class: cls[i], Arg: iv.Arg, HasArg: iv.HasArg, Stamp: iv.RequestSeq}
		for xi, x := range s.Excludes {
			if x.Class != cls[i] || !strict && condUsesWaiting(x.Cond) {
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
		var exits []int64
		for _, e := range tr {
			if e.Kind == trace.KindExit && s.classOf(e.Op) >= 0 {
				exits = append(exits, e.Seq)
			}
		}
		for pi, r := range s.Priorities {
			for ai := range ivs {
				a := &ivs[ai]
				if cls[ai] != r.A || a.RequestSeq == 0 {
					continue
				}
				aEnd := int64(^uint64(0) >> 1)
				if a.Started() {
					aEnd = a.EnterSeq
				}
				ac := Cand{Class: cls[ai], Arg: a.Arg, HasArg: a.HasArg, Stamp: a.RequestSeq}
				for bi := range ivs {
					b := &ivs[bi]
					if bi == ai || cls[bi] != r.B || !b.Started() {
						continue
					}
					if b.EnterSeq <= a.RequestSeq || b.EnterSeq >= aEnd {
						continue
					}
					if !referenceInWindow(exits, a.RequestSeq, b.EnterSeq) {
						continue
					}
					other := Cand{Class: cls[bi], Arg: b.Arg, HasArg: b.HasArg, Stamp: b.RequestSeq}
					v.at, v.skip = b.EnterSeq, bi
					if !r.Cond.Eval(v, ac, &other) {
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

// agreement counts the judgments of a reference comparison.
type agreement struct{ judged, violating int }

// sameVerdicts requires the compiled oracle to return exactly the
// reference's []Violation for tr, strict and non-strict.
func (ag *agreement) sameVerdicts(t *testing.T, name string, s *Set, j *judge, tr trace.Trace) {
	t.Helper()
	for _, strict := range []bool{true, false} {
		want := referenceCheck(s, tr, strict)
		if got := j.check(tr, strict); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (strict %v): oracle differs from the reference:\nreference %v\ngot       %v\n%s",
				name, strict, want, got, tr)
		}
		ag.judged++
		if len(want) > 0 {
			ag.violating++
		}
	}
}

// TestOracleMatchesReferenceOnCorpus judges recorded corpus runs with the
// compiled oracle and the reference, strict and non-strict: problems
// 1–300 under every mechanism that can express them, on the FIFO
// schedule and three random ones, each trace whole and cut to its first
// ⅔ and ½. Deadlocked runs are judged on the trace they left.
func TestOracleMatchesReferenceOnCorpus(t *testing.T) {
	var ag agreement
	for seed := int64(1); seed <= 300; seed++ {
		set := Generate(seed)
		j := set.compile()
		for _, mech := range Mechanisms() {
			prog, _, err := Program(set, mech)
			if err != nil {
				continue // pathexpr cannot express the set
			}
			for pol := 0; pol < 4; pol++ {
				policy := kernel.FIFO()
				if pol > 0 {
					policy = kernel.Random(seed*7 + int64(pol))
				}
				k := kernel.NewSim(kernel.WithPolicy(policy))
				rec := trace.NewRecorder(k)
				prog(k, rec)
				if err := k.Run(); err != nil && !errors.Is(err, kernel.ErrDeadlock) {
					t.Fatalf("%s/%s: %v", set.Name, mech, err)
				}
				tr := rec.Events()
				for _, n := range []int{len(tr), len(tr) * 2 / 3, len(tr) / 2} {
					ag.sameVerdicts(t, fmt.Sprintf("%s/%s/policy %d/%d events", set.Name, mech, pol, n), set, j, tr[:n])
				}
			}
		}
	}
	if ag.violating == 0 {
		t.Fatal("no corpus judgment found a violation")
	}
	t.Logf("%d judgments, %d with violations", ag.judged, ag.violating)
}

// randomSetTrace draws a well-formed trace over set's classes that no
// mechanism decided: 2–6 processes, each requesting an operation of a
// random class with one of its arguments, entering it and exiting it, in
// steps drawn at random. One operation in ten enters without a request,
// and the trace stops at a random length, leaving waiters and open
// executions behind.
func randomSetTrace(set *Set, rng *rand.Rand) trace.Trace {
	procs := 2 + rng.Intn(5)
	last := make([]trace.Kind, procs) // the process's last event; KindExit: idle
	op := make([]string, procs)
	arg := make([]int64, procs)
	for p := range last {
		last[p] = trace.KindExit
	}
	var tr trace.Trace
	for n := rng.Intn(50); len(tr) < n; {
		p := rng.Intn(procs)
		kind := last[p] + 1
		if last[p] == trace.KindExit {
			c := set.Classes[rng.Intn(len(set.Classes))]
			op[p], arg[p] = c.Name, trace.NoArg
			if len(c.Args) > 0 {
				arg[p] = c.Args[rng.Intn(len(c.Args))]
			}
			kind = trace.KindRequest
			if rng.Intn(10) == 0 {
				kind = trace.KindEnter
			}
		}
		last[p] = kind
		e := trace.Event{Seq: int64(len(tr) + 1), ProcID: p + 1, Proc: fmt.Sprintf("p#%d", p+1), Kind: kind, Op: op[p]}
		if arg[p] != trace.NoArg {
			e.Arg, e.HasArg = arg[p], true
		}
		tr = append(tr, e)
	}
	return tr
}

// TestOracleMatchesReferenceOnRandomTraces judges random well-formed
// traces over sampled sets (20 traces each of problems 1–400) with the
// compiled oracle and the reference, strict and non-strict. Admissions
// no mechanism decided break every kind of rule.
func TestOracleMatchesReferenceOnRandomTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var ag agreement
	for seed := int64(1); seed <= 400; seed++ {
		set := Generate(seed)
		j := set.compile()
		for i := 0; i < 20; i++ {
			ag.sameVerdicts(t, fmt.Sprintf("%s/trace %d", set.Name, i), set, j, randomSetTrace(set, rng))
		}
	}
	if ag.violating < ag.judged/4 {
		t.Fatalf("only %d of %d judgments find a violation; the generator lost its mix", ag.violating, ag.judged)
	}
	t.Logf("%d judgments, %d with violations", ag.judged, ag.violating)
}
