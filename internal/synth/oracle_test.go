package synth

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/trace"
)

var canonicalProblems = []string{
	problems.NameBoundedBuffer,
	problems.NameFCFS,
	problems.NameReadersPriority,
	problems.NameWritersPriority,
	problems.NameFCFSRW,
	problems.NameOneSlot,
	problems.NameAlarmClock,
	problems.NameDisk,
}

// handVerdict judges a trace with the handwritten oracle for the
// problem, restricted to the constraints the grammar encodes:
// bounded-buffer and one-slot completeness take the standard workload's
// expected totals only when std is true (crafted traces are judged
// structure-only), and disk is judged exclusion-only (SCAN priority is
// outside the grammar, see Canonical).
func handVerdict(problem string, tr trace.Trace, std bool) []problems.Violation {
	switch problem {
	case problems.NameBoundedBuffer:
		expected := 0
		if std {
			expected = solutions.StdBBConfig().TotalItems()
		}
		return problems.CheckBoundedBuffer(tr, solutions.StdBufferCap, expected)
	case problems.NameFCFS:
		return problems.CheckFCFS(tr, true)
	case problems.NameReadersPriority, problems.NameWritersPriority, problems.NameFCFSRW:
		return problems.CheckRW(problem, tr, true)
	case problems.NameOneSlot:
		expected := 0
		if std {
			expected = solutions.StdOneSlotConfig().TotalItems()
		}
		return problems.CheckOneSlot(tr, expected)
	case problems.NameAlarmClock:
		return problems.CheckAlarmClock(tr)
	case problems.NameDisk:
		return problems.CheckDisk(tr, solutions.StdDiskStart, false)
	}
	panic("unknown problem " + problem)
}

// TestDerivedOracleAgreesWithHandwritten is the property the whole
// subsystem stands on: encode each canonical problem as a constraint
// set, judge real solution traces with both the handwritten oracle and
// the mechanically derived one, and require the same verdict. The trace
// corpus is every mechanism suite × every canonical problem × three
// schedule policies.
func TestDerivedOracleAgreesWithHandwritten(t *testing.T) {
	policies := []struct {
		name string
		mk   func() kernel.Policy
	}{
		{"fifo", kernel.FIFO},
		{"rand1", func() kernel.Policy { return kernel.Random(1) }},
		{"rand2", func() kernel.Policy { return kernel.Random(2) }},
	}
	for _, problem := range canonicalProblems {
		set, ok := Canonical(problem)
		if !ok {
			t.Fatalf("no canonical encoding for %s", problem)
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("%s: canonical encoding invalid: %v", problem, err)
		}
		for _, suite := range solutions.All() {
			for _, pc := range policies {
				name := fmt.Sprintf("%s/%s/%s", problem, suite.Mechanism, pc.name)
				k := kernel.NewSim(kernel.WithPolicy(pc.mk()))
				tr, _, err := solutions.RunStandard(k, suite, problem, true)
				if err != nil {
					t.Errorf("%s: run failed: %v", name, err)
					continue
				}
				hand := handVerdict(problem, tr, true)
				derived := set.Check(tr, true)
				if (len(hand) == 0) != (len(derived) == 0) {
					t.Errorf("%s: verdicts disagree: handwritten %v, derived %v",
						name, hand, derived)
				}
			}
		}
	}
}

// traceBuilder assembles well-formed traces by hand for the
// counterexample half of the agreement property.
type traceBuilder struct {
	seq int64
	tr  trace.Trace
}

func (b *traceBuilder) ev(proc int, kind trace.Kind, op string, arg int64) *traceBuilder {
	b.seq++
	e := trace.Event{
		Seq:    b.seq,
		ProcID: proc,
		Proc:   fmt.Sprintf("p%d#%d", proc, proc),
		Kind:   kind,
		Op:     op,
	}
	if arg != trace.NoArg {
		e.Arg, e.HasArg = arg, true
	}
	b.tr = append(b.tr, e)
	return b
}

func (b *traceBuilder) req(proc int, op string, arg int64) *traceBuilder {
	return b.ev(proc, trace.KindRequest, op, arg)
}
func (b *traceBuilder) enter(proc int, op string, arg int64) *traceBuilder {
	return b.ev(proc, trace.KindEnter, op, arg)
}
func (b *traceBuilder) exit(proc int, op string, arg int64) *traceBuilder {
	return b.ev(proc, trace.KindExit, op, arg)
}

// TestDerivedOracleAgreesOnCraftedTraces pins agreement where it
// matters most: traces that violate exactly one constraint, plus clean
// serialized controls. Both oracles must flag the violating traces and
// pass the controls.
func TestDerivedOracleAgreesOnCraftedTraces(t *testing.T) {
	n := trace.NoArg
	cases := []struct {
		problem string
		name    string
		bad     bool
		build   func(b *traceBuilder)
	}{
		{problems.NameFCFS, "overtake", true, func(b *traceBuilder) {
			b.req(0, "use", n).enter(0, "use", n)
			b.req(1, "use", n)
			b.req(2, "use", n)
			b.exit(0, "use", n) // release while p1 and p2 wait
			b.enter(2, "use", n).exit(2, "use", n)
			b.enter(1, "use", n).exit(1, "use", n)
		}},
		{problems.NameFCFS, "in order", false, func(b *traceBuilder) {
			b.req(0, "use", n).enter(0, "use", n)
			b.req(1, "use", n)
			b.exit(0, "use", n)
			b.enter(1, "use", n).exit(1, "use", n)
		}},
		{problems.NameReadersPriority, "write overlaps read", true, func(b *traceBuilder) {
			b.req(0, "read", n).enter(0, "read", n)
			b.req(1, "write", n).enter(1, "write", n).exit(1, "write", n)
			b.exit(0, "read", n)
		}},
		{problems.NameReadersPriority, "writer jumps waiting reader", true, func(b *traceBuilder) {
			b.req(0, "write", n).enter(0, "write", n)
			b.req(1, "read", n)  // waits for the active writer
			b.req(2, "write", n) // second writer
			b.exit(0, "write", n)
			b.enter(2, "write", n).exit(2, "write", n) // jumped the reader
			b.enter(1, "read", n).exit(1, "read", n)
		}},
		{problems.NameWritersPriority, "writers first honored", false, func(b *traceBuilder) {
			b.req(0, "read", n).enter(0, "read", n)
			b.req(1, "write", n)
			b.exit(0, "read", n)
			b.enter(1, "write", n).exit(1, "write", n)
		}},
		{problems.NameFCFSRW, "later writer jumps earlier writer", true, func(b *traceBuilder) {
			b.req(0, "read", n).enter(0, "read", n)
			b.req(1, "write", n)
			b.req(2, "write", n)
			b.exit(0, "read", n)
			b.enter(2, "write", n).exit(2, "write", n)
			b.enter(1, "write", n).exit(1, "write", n)
		}},
		{problems.NameBoundedBuffer, "deposit and remove overlap", true, func(b *traceBuilder) {
			b.req(0, "deposit", 1).enter(0, "deposit", 1)
			b.req(1, "remove", 1).enter(1, "remove", 1)
			b.exit(0, "deposit", 1)
			b.exit(1, "remove", 1)
		}},
		{problems.NameBoundedBuffer, "serialized transfer", false, func(b *traceBuilder) {
			b.req(0, "deposit", 1).enter(0, "deposit", 1).exit(0, "deposit", 1)
			b.req(1, "remove", 1).enter(1, "remove", 1).exit(1, "remove", 1)
		}},
		{problems.NameOneSlot, "two puts in a row", true, func(b *traceBuilder) {
			b.req(0, "put", 1).enter(0, "put", 1).exit(0, "put", 1)
			b.req(1, "put", 2).enter(1, "put", 2).exit(1, "put", 2)
		}},
		{problems.NameOneSlot, "put then get", false, func(b *traceBuilder) {
			b.req(0, "put", 1).enter(0, "put", 1).exit(0, "put", 1)
			b.req(1, "get", 1).enter(1, "get", 1).exit(1, "get", 1)
		}},
		{problems.NameAlarmClock, "woken early", true, func(b *traceBuilder) {
			b.req(0, "tick", 1).enter(0, "tick", 1).exit(0, "tick", 1)
			b.req(1, "wakeme", 2).enter(1, "wakeme", 2).exit(1, "wakeme", 2)
		}},
		{problems.NameAlarmClock, "woken on time", false, func(b *traceBuilder) {
			b.req(1, "wakeme", 2)
			b.req(0, "tick", 1).enter(0, "tick", 1).exit(0, "tick", 1)
			b.req(0, "tick", 2).enter(0, "tick", 2).exit(0, "tick", 2)
			b.enter(1, "wakeme", 2).exit(1, "wakeme", 2)
		}},
		{problems.NameDisk, "overlapping seeks", true, func(b *traceBuilder) {
			b.req(0, "seek", 10).enter(0, "seek", 10)
			b.req(1, "seek", 20).enter(1, "seek", 20).exit(1, "seek", 20)
			b.exit(0, "seek", 10)
		}},
		{problems.NameDisk, "serialized seeks", false, func(b *traceBuilder) {
			b.req(0, "seek", 10).enter(0, "seek", 10).exit(0, "seek", 10)
			b.req(1, "seek", 20).enter(1, "seek", 20).exit(1, "seek", 20)
		}},
	}
	for _, tc := range cases {
		set, ok := Canonical(tc.problem)
		if !ok {
			t.Fatalf("no canonical encoding for %s", tc.problem)
		}
		b := &traceBuilder{}
		tc.build(b)
		hand := handVerdict(tc.problem, b.tr, false)
		derived := set.Check(b.tr, true)
		if got := len(hand) > 0; got != tc.bad {
			t.Errorf("%s/%s: handwritten verdict bad=%v, want %v (%v)",
				tc.problem, tc.name, got, tc.bad, hand)
		}
		if got := len(derived) > 0; got != tc.bad {
			t.Errorf("%s/%s: derived verdict bad=%v, want %v (%v)",
				tc.problem, tc.name, got, tc.bad, derived)
		}
	}
}

// TestDerivedOracleRejectsForeignOps pins the instrumentation guard.
func TestDerivedOracleRejectsForeignOps(t *testing.T) {
	set, _ := Canonical(problems.NameFCFS)
	b := &traceBuilder{}
	b.req(0, "launder", trace.NoArg).enter(0, "launder", trace.NoArg).exit(0, "launder", trace.NoArg)
	vs := set.Check(b.tr, true)
	if len(vs) != 1 || vs[0].Rule != "instrumentation" {
		t.Fatalf("Check = %v, want one instrumentation violation", vs)
	}
}

// TestOracleSharedAcrossWorkers judges corpus traces with compiled
// oracles from several goroutines at once, as the explorer's workers
// do, and requires the verdicts judged alone. Each trace is judged by
// its own program's oracle (clean) and by another problem's (class
// names repeat across the corpus, so that one mostly finds violations).
func TestOracleSharedAcrossWorkers(t *testing.T) {
	traces := corpusTraces(t, 20, false)
	type judgment struct {
		oracle func(trace.Trace) []problems.Violation
		tr     trace.Trace
		want   []problems.Violation
	}
	var cases []judgment
	violating := 0
	for i, c := range traces {
		other := traces[(i+len(traces)/2)%len(traces)].oracle
		for _, o := range []func(trace.Trace) []problems.Violation{c.oracle, other} {
			j := judgment{oracle: o, tr: c.tr, want: o(c.tr)}
			if len(j.want) > 0 {
				violating++
			}
			cases = append(cases, j)
		}
	}
	if violating == 0 {
		t.Fatal("no judgment found a violation")
	}
	t.Logf("%d judgments, %d violating", len(cases), violating)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				for i := range cases {
					c := &cases[(i+w*len(cases)/4)%len(cases)] // each worker starts elsewhere
					if got := c.oracle(c.tr); !reflect.DeepEqual(got, c.want) {
						t.Errorf("concurrent verdict %v, alone %v", got, c.want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
