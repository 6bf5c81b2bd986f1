package problems

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/trace"
)

// The priority judges below are the all-pairs loops noOvertaking and
// orderInversions ran before trace.Overtakings, kept as their
// specification.

// referenceEnd is a sequence number beyond any recorded event: a waiter
// never admitted by trace end enters there.
const referenceEnd = int64(^uint64(0) >> 1)

func referenceEnterOrEnd(iv trace.Interval) int64 {
	if !iv.Started() {
		return referenceEnd
	}
	return iv.EnterSeq
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

func referenceNoOvertaking(tr trace.Trace, favored, loser, rule string) []Violation {
	ivs, vs := requireIntervals(tr)
	if vs != nil {
		return vs
	}
	exits := releaseSeqs(tr, OpRead, OpWrite)
	var out []Violation
	for _, f := range ivs {
		if f.Op != favored || f.RequestSeq == 0 {
			continue
		}
		fEnter := referenceEnterOrEnd(f)
		for _, l := range ivs {
			if l.Op != loser || !l.Started() {
				continue
			}
			if l.EnterSeq > f.RequestSeq && l.EnterSeq < fEnter &&
				referenceInWindow(exits, f.RequestSeq, l.EnterSeq) {
				admitted := fmt.Sprintf("admitted @%d", f.EnterSeq)
				if !f.Started() {
					admitted = "never admitted"
				}
				out = append(out, Violation{
					Rule: rule,
					Detail: fmt.Sprintf("%s admitted while %s was waiting (requested @%d, %s)",
						l, f, f.RequestSeq, admitted),
					Seq: l.EnterSeq,
				})
			}
		}
	}
	return out
}

func referenceOrderInversions(rule string, ivs []trace.Interval, exits []int64, exempt func(a, b trace.Interval) bool) []Violation {
	var out []Violation
	for _, waiting := range ivs {
		if waiting.RequestSeq == 0 {
			continue
		}
		wEnter := referenceEnterOrEnd(waiting)
		for _, jumped := range ivs {
			if jumped.RequestSeq == 0 || jumped.RequestSeq <= waiting.RequestSeq || !jumped.Started() {
				continue
			}
			if exempt != nil && exempt(waiting, jumped) {
				continue
			}
			if jumped.EnterSeq < wEnter &&
				referenceInWindow(exits, waiting.RequestSeq, jumped.EnterSeq) {
				out = append(out, Violation{
					Rule:   rule,
					Detail: fmt.Sprintf("%s admitted before earlier request %s", jumped, waiting),
					Seq:    jumped.EnterSeq,
				})
			}
		}
	}
	return out
}

// randomPriorityTrace draws a well-formed trace of 1–6 processes over
// reads and writes, uses, or all three. Each process requests an
// operation, enters it and exits it, in steps drawn at random, so
// admissions ignore every priority rule; one operation in ten enters
// without a request, and the trace stops at a random length, leaving
// waiters and open executions behind.
func randomPriorityTrace(rng *rand.Rand) trace.Trace {
	ops := [][]string{{OpRead, OpWrite}, {OpUse}, {OpRead, OpWrite, OpUse}}[rng.Intn(3)]
	procs := 1 + rng.Intn(6)
	state := make([]trace.Kind, procs) // the process's last event; KindExit: idle
	op := make([]string, procs)
	for p := range state {
		state[p] = trace.KindExit
	}
	var tr trace.Trace
	for n := rng.Intn(60); len(tr) < n; {
		p := rng.Intn(procs)
		kind := state[p] + 1
		if state[p] == trace.KindExit {
			op[p] = ops[rng.Intn(len(ops))]
			kind = trace.KindRequest
			if rng.Intn(10) == 0 {
				kind = trace.KindEnter
			}
		}
		state[p] = kind
		tr = append(tr, trace.Event{
			Seq:    int64(len(tr) + 1),
			ProcID: p + 1,
			Proc:   fmt.Sprintf("p#%d", p+1),
			Kind:   kind,
			Op:     op[p],
		})
	}
	return tr
}

// TestPriorityJudgesMatchReference holds the readers-priority,
// writers-priority, rw-fcfs and fcfs-order judges to the all-pairs loops
// they replaced, whole []Violation values compared, on 20000 random
// traces.
// A malformed trace is one instrumentation violation, however many rules
// a strict judgment runs.
func TestCheckRWReportsMalformedTraceOnce(t *testing.T) {
	tr := trace.Trace{{Seq: 1, ProcID: 1, Proc: "p#1", Kind: trace.KindExit, Op: OpRead}}
	for _, problem := range []string{NameReadersPriority, NameWritersPriority, NameFCFSRW} {
		if vs := CheckRW(problem, tr, true); len(vs) != 1 || vs[0].Rule != "instrumentation" {
			t.Errorf("%s: want one instrumentation violation, got %v", problem, vs)
		}
	}
}

func TestPriorityJudgesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	readsShare := func(a, b trace.Interval) bool { return a.Op == OpRead && b.Op == OpRead }
	judged, violating := 0, 0
	for i := 0; i < 20000; i++ {
		tr := randomPriorityTrace(rng)
		ivs := tr.MustIntervals()
		rw, use := releaseSeqs(tr, OpRead, OpWrite), releaseSeqs(tr, OpUse)
		rp, wp := CheckReadersPriority(tr), CheckWritersPriority(tr)
		for _, c := range []struct {
			rule      string
			got, want []Violation
		}{
			{"readers-priority", rp, referenceNoOvertaking(tr, OpRead, OpWrite, "readers-priority")},
			{"writers-priority", wp, referenceNoOvertaking(tr, OpWrite, OpRead, "writers-priority")},
			{"rw-fcfs", orderInversions("rw-fcfs", ivs, rw, readsShare), referenceOrderInversions("rw-fcfs", ivs, rw, readsShare)},
			{"fcfs-order", orderInversions("fcfs-order", ivs, use, nil), referenceOrderInversions("fcfs-order", ivs, use, nil)},
		} {
			judged++
			if len(c.want) > 0 {
				violating++
			}
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s differs from the reference:\nreference %v\ngot       %v\n%s", c.rule, c.want, c.got, tr)
			}
		}
		// A strict CheckRW judges on one reconstruction what the
		// single-rule checkers judge on one each (every fourth trace:
		// the identity is structural, and the checkers are slow to run
		// three more times on each).
		if i%4 != 0 {
			continue
		}
		excl := CheckRWExclusion(tr)
		for _, v := range []struct {
			problem  string
			priority []Violation
		}{
			{NameReadersPriority, rp},
			{NameWritersPriority, wp},
			{NameFCFSRW, CheckFCFSRW(tr)},
		} {
			want := append(slices.Clip(excl), v.priority...)
			if got := CheckRW(v.problem, tr, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("CheckRW(%s) differs from its parts:\nparts %v\ngot   %v\n%s", v.problem, want, got, tr)
			}
		}
	}
	if violating < judged/10 {
		t.Fatalf("only %d of %d judgments find a violation; the generator lost its mix", violating, judged)
	}
	t.Logf("%d judgments, %d with violations", judged, violating)
}
