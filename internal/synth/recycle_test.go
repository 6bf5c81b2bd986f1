package synth

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// slotRun is one corpus program with a recycling kernel and recorder of
// its own: an exploration slot's run loop in miniature.
type slotRun struct {
	name string
	mech string
	prog explore.Program
	k    *kernel.SimKernel
	rec  *trace.Recorder
}

// recycledPrograms builds a slotRun for problems 1..n of the corpus under
// every mechanism that can express them. The caller closes the kernels.
func recycledPrograms(tb testing.TB, n int) []*slotRun {
	tb.Helper()
	var out []*slotRun
	for seed := int64(1); seed <= int64(n); seed++ {
		set := Generate(seed)
		for _, mech := range Mechanisms() {
			if Supports(mech, set) != nil {
				continue
			}
			prog, _, err := Program(set, mech)
			if err != nil {
				tb.Fatal(err)
			}
			k := kernel.NewSim(kernel.WithRecycle())
			out = append(out, &slotRun{name: fmt.Sprintf("%s/%s", set.Name, mech), mech: mech, prog: prog, k: k, rec: trace.NewRecorder(k)})
		}
	}
	return out
}

// run resets the slot and runs its program once on the kernel's current
// policy.
func (s *slotRun) run() error {
	s.k.Reset()
	s.rec.Reset()
	s.prog(s.k, s.rec)
	return s.k.Run()
}

// runOutcome is everything a run shows the exploration engine.
type runOutcome struct {
	trace   trace.Trace
	err     string
	choices []kernel.Choice
	fp      uint64
}

// schedule is a policy for one run plus an optional cut: with stopAt > 0
// the run is stopped when its stopAt-th event is recorded, as a streaming
// oracle stops a violating run.
type schedule struct {
	name   string
	policy func() kernel.Policy
	stopAt int
}

// runOn runs prog on k under sc and collects its outcome.
func runOn(k *kernel.SimKernel, rec *trace.Recorder, prog explore.Program, sc schedule) runOutcome {
	k.Reset(kernel.WithPolicy(sc.policy()))
	rec.Reset()
	seen := 0
	rec.SetObserver(func(trace.Event) {
		if seen++; seen == sc.stopAt {
			k.Stop()
		}
	})
	prog(k, rec)
	err := k.Run()
	out := runOutcome{trace: rec.Events(), choices: k.Choices(), fp: k.RunFingerprint()}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestRecycledSlotMatchesFreshKernel pins that slot reuse is invisible: a
// program run on a recycled kernel — after runs under other schedules,
// runs cut by Stop, and runs that deadlocked — shows exactly what the
// same schedule shows on a fresh kernel: the same trace, kernel error,
// choices and run fingerprint. The window is corpus problems 1–20 plus
// problem 31, which deadlocks under every mechanism. Each policy runs
// whole and cut at each of its first maxStop events: only some cut
// points leave a mechanism mid-use (a Hoare signaller parked with the
// monitor handed on, a path semaphore held), so a sweep is what catches
// a missing mechanism Reset.
func TestRecycledSlotMatchesFreshKernel(t *testing.T) {
	const maxStop = 12
	policies := []struct {
		name   string
		policy func() kernel.Policy
	}{
		{"fifo", func() kernel.Policy { return kernel.FIFO() }},
		{"rand3", func() kernel.Policy { return kernel.Random(3) }},
		{"rand11", func() kernel.Policy { return kernel.Random(11) }},
	}
	var schedules []schedule
	for _, pol := range policies {
		schedules = append(schedules, schedule{pol.name, pol.policy, 0})
		for stop := 1; stop <= maxStop; stop++ {
			schedules = append(schedules, schedule{fmt.Sprintf("%s-stop%d", pol.name, stop), pol.policy, stop})
		}
	}
	slots := recycledPrograms(t, 20)
	set31 := Generate(31)
	for _, mech := range Mechanisms() {
		if Supports(mech, set31) != nil {
			continue
		}
		prog, _, err := Program(set31, mech)
		if err != nil {
			t.Fatal(err)
		}
		k := kernel.NewSim(kernel.WithRecycle())
		slots = append(slots, &slotRun{name: set31.Name + "/" + mech, mech: mech, prog: prog, k: k, rec: trace.NewRecorder(k)})
	}
	deadlocks, cuts := 0, 0
	for _, s := range slots {
		// Two passes, so every schedule also runs right after every kind
		// of run, the last schedule's included.
		for pass := 0; pass < 2; pass++ {
			for _, sc := range schedules {
				got := runOn(s.k, s.rec, s.prog, sc)
				fk := kernel.NewSim()
				want := runOn(fk, trace.NewRecorder(fk), s.prog, sc)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pass %d %s: recycled slot differs from a fresh kernel:\nrecycled: err %q fp %#x choices %v\n%s\nfresh: err %q fp %#x choices %v\n%s",
						s.name, pass, sc.name, got.err, got.fp, got.choices, got.trace, want.err, want.fp, want.choices, want.trace)
				}
				if got.err != "" {
					deadlocks++
				}
				if sc.stopAt > 0 && len(got.trace) == sc.stopAt {
					cuts++
				}
			}
		}
		s.k.Close()
	}
	if deadlocks == 0 || cuts == 0 {
		t.Fatalf("window exercised %d kernel errors and %d Stop cuts; want both", deadlocks, cuts)
	}
	t.Logf("%d programs: %d runs ended in a kernel error, %d were cut by Stop", len(slots), deadlocks, cuts)
}
