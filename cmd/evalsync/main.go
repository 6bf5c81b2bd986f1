// Command evalsync runs the paper's evaluation methodology end to end and
// prints every reproduced table and figure.
//
// Usage:
//
//	evalsync                  # run everything
//	evalsync -experiment F1   # one experiment: F1 F2 T1 T2 T3 T4 T5 T6 T7
//	evalsync -detail          # include per-declaration similarity detail
//
// Experiments (see DESIGN.md §3 and EXPERIMENTS.md):
//
//	F1  Figure 1: path-expression readers-priority + footnote-3 anomaly
//	F2  Figure 2: path-expression writers-priority
//	T1  expressive-power matrix over the six information types
//	T2  constraint-independence analysis over problem variants
//	T3  modularity criteria + nested-monitor-call experiment
//	T4  test-set coverage of the information types
//	T5  the monitor request-type/request-time queue conflict
//	T6  CSP evaluated with the same methodology (the paper's §6)
//	T7  static lockorder/lostwakeup findings cross-validated by
//	    schedule exploration (the synclint xcheck gate)
//	T8  exhaustion under partial-order reduction: runs, cut runs,
//	    whether the search exhausted and whether it stopped on a
//	    finding, one row per T4 pairing (opt-in: runs only as
//	    -experiment T8, never in all)
//	T9  discriminating power of the generated constraint corpus: verdict
//	    counts by mechanism × constraint shape, naive-gate control
//	    included (opt-in: runs only as -experiment T9, never in all)
//	E1  mechanism evolution: the numeric path operator fixes the
//	    weakness T1 predicts (Flon–Habermann, discussed in §5.1)
//	E2  starvation: the admissible-starvation profile of each variant
//	B2  queueing delays under the standard readers-writers workload
//
// Every experiment is checked against the paper's expectation as it runs;
// evalsync exits non-zero when any outcome contradicts the paper, so a CI
// invocation is itself a reproduction check.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/synclint/xcheck"
	"repro/internal/synth"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id (F1 F2 T1 T2 T3 T4 T5 T6 T7 E1 E2 B2) or all; T8 (DPOR exhaustion) and T9 (synth corpus power) run only when named explicitly")
	detail := flag.Bool("detail", false, "include per-declaration similarity detail in T2")
	var opts explore.Options
	explore.BindFlags(flag.CommandLine, &opts)
	flag.Parse()

	contradictions, err := writeReport(os.Stdout, strings.ToUpper(*experiment), *detail, opts)
	if err != nil {
		fatal(err)
	}
	if len(contradictions) > 0 {
		fmt.Fprintf(os.Stderr, "\nevalsync: %d outcome(s) contradict the paper's expectations:\n", len(contradictions))
		for _, c := range contradictions {
			fmt.Fprintln(os.Stderr, "  - "+c)
		}
		os.Exit(1)
	}
}

// writeReport renders the selected experiments to w and returns a line
// for every outcome that contradicts the paper's expectation. experiment
// is an upper-case id or "ALL". opts configures every schedule
// exploration.
func writeReport(w io.Writer, experiment string, detail bool, opts explore.Options) ([]string, error) {
	run := func(id string) bool {
		return experiment == "ALL" || experiment == id
	}
	var contradictions []string
	contradict := func(format string, args ...any) {
		contradictions = append(contradictions, fmt.Sprintf(format, args...))
	}

	fmt.Fprintln(w, "Evaluating Synchronization Mechanisms — Bloom, SOSP 1979 (reproduction)")
	fmt.Fprintln(w, strings.Repeat("=", 78))
	ran := false

	if run("T4") {
		ran = true
		fmt.Fprintln(w)
		out := eval.RenderCoverage()
		fmt.Fprint(w, out)
		// The footnote-2 problem set must exercise every information type.
		n := len(core.AllInfoTypes())
		if !strings.Contains(out, fmt.Sprintf("%d of %d information types covered", n, n)) {
			contradict("T4: the test set no longer covers all %d information types", n)
		}
	}
	if run("T1") {
		ran = true
		fmt.Fprintln(w)
		fmt.Fprint(w, eval.RenderPowerMatrix())
		fmt.Fprintln(w)
		fmt.Fprint(w, eval.RenderPowerRationales())
		vs := eval.VerifyPower()
		fmt.Fprint(w, eval.RenderVerification(vs))
		for _, v := range vs {
			if !v.OK() {
				contradict("T1: %s/%s cell inconsistent with the run evidence (err=%v)", v.Mechanism, v.InfoType, v.Err)
			}
		}
	}
	if run("T2") {
		ran = true
		fmt.Fprintln(w)
		rows, err := eval.IndependenceTable()
		if err != nil {
			return nil, err
		}
		fmt.Fprint(w, eval.RenderIndependence(rows))
		if len(rows) != len(solutions.All()) {
			contradict("T2: expected one similarity row per mechanism, got %d", len(rows))
		}
		for _, r := range rows {
			if r.RPvsWP <= 0 || r.RPvsWP > 1 || r.RPvsFCFS <= 0 || r.RPvsFCFS > 1 {
				contradict("T2: %s similarity out of range (%v, %v)", r.Mechanism, r.RPvsWP, r.RPvsFCFS)
			}
		}
		fmt.Fprintln(w)
		sizes, err := eval.SizeTable()
		if err != nil {
			return nil, err
		}
		fmt.Fprint(w, eval.RenderSizes(sizes))
		if detail {
			fmt.Fprintln(w)
			for _, s := range solutions.All() {
				rep, err := eval.ComparePair(s.Mechanism, problems.NameReadersPriority, problems.NameWritersPriority)
				if err != nil {
					return nil, err
				}
				fmt.Fprint(w, eval.RenderPairDetail(rep))
				fmt.Fprintln(w)
			}
		}
	}
	if run("T3") {
		ran = true
		fmt.Fprintln(w)
		nested := eval.RunNestedMonitorExperiment()
		crowd := eval.RunCrowdConcurrencyExperiment()
		fmt.Fprint(w, eval.RenderModularity(nested, crowd))
		if !nested.NaiveDeadlocks {
			contradict("T3: naive nested monitor call did not deadlock")
		}
		if !nested.StructuredCompletes {
			contradict("T3: structured nested call did not complete (%v)", nested.StructuredErr)
		}
		if !crowd.OverlapObserved {
			contradict("T3: serializer crowd never overlapped resource access with possession")
		}
		table := eval.ModularityTable()
		for i, sm := range eval.StaticModularityTable() {
			if sm.Err != nil {
				contradict("T3: static analysis of %s failed: %v", sm.Mechanism, sm.Err)
				continue
			}
			if sm.Encapsulated() != table[i].Encapsulation {
				contradict("T3: static encapsulation verdict for %s (%d/%d types bound) contradicts the table",
					sm.Mechanism, sm.Summary.BoundCount(), len(sm.Summary.Types))
			}
		}
	}
	if run("T5") {
		ran = true
		fmt.Fprintln(w)
		out, t5 := renderT5()
		fmt.Fprint(w, out)
		if t5.err != nil {
			contradict("T5: monitor FCFSRW run failed: %v", t5.err)
		} else {
			if t5.overlappingReads == 0 {
				contradict("T5: no overlapping read pairs — type information was lost")
			}
			if t5.violations != 0 {
				contradict("T5: %d FCFS violations — time information was lost", t5.violations)
			}
		}
	}
	if run("T6") {
		ran = true
		fmt.Fprintln(w)
		out, failures := renderT6()
		fmt.Fprint(w, out)
		for _, f := range failures {
			contradict("T6: csp %s", f)
		}
	}
	if run("T7") {
		ran = true
		fmt.Fprintln(w)
		rows, err := eval.RunCrossCheck(opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprint(w, eval.RenderCrossCheck(rows))
		fixtureConfirmed := false
		for _, r := range rows {
			switch {
			case r.Status == "unmapped":
				contradict("T7: finding at %s:%d has no standard workload to hunt on",
					r.Finding.Pos.Filename, r.Finding.Pos.Line)
			case r.Mechanism == xcheck.FixtureMechanism && r.Status == "confirmed":
				fixtureConfirmed = true
			case r.Mechanism != xcheck.FixtureMechanism && r.Status == "confirmed":
				contradict("T7: allow-reasoned finding at %s:%d was realized as a %s/%s hazard — its suppression is wrong",
					r.Finding.Pos.Filename, r.Finding.Pos.Line, r.Mechanism, r.Problem)
			}
		}
		if !fixtureConfirmed {
			contradict("T7: the hunt failed to realize the seeded cyclic-wait fixture")
		}
	}
	// T8 is opt-in (never part of "all"): it runs 36 reduced explorations
	// and reports, per scenario, the runs the depth bound cut and whether
	// the search exhausted, which is diagnostic detail rather than part of
	// the paper's reproduction.
	if experiment == "T8" {
		ran = true
		fmt.Fprintln(w)
		rows, err := eval.RunDPORCoverage(opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprint(w, eval.RenderDPORCoverage(rows))
	}
	// T9 is opt-in for the same reason: it explores a whole generated
	// corpus across every adapter, which is a fuzzing figure rather than
	// part of the paper's reproduction.
	if experiment == "T9" {
		ran = true
		fmt.Fprintln(w)
		// The window is chosen so the fixed smoke budget has teeth: it
		// contains corpus seeds the naive-gate control loses races on.
		const n, seed = 12, 18
		rows, err := eval.RunSynthPower(n, seed, opts)
		if err != nil {
			return nil, err
		}
		fmt.Fprint(w, eval.RenderSynthPower(rows, n, seed))
		gateCaught, pathRefused := false, false
		for _, r := range rows {
			if r.Mechanism == synth.NaiveGate && r.Fail > 0 {
				gateCaught = true
			}
			if r.Mechanism == "pathexpr" && r.Inexpressible > 0 {
				pathRefused = true
			}
			if r.Mechanism != synth.NaiveGate && r.Fail+r.Error > 0 {
				contradict("T9: correct mechanism %s failed %d and errored %d generated problems (shape %s)",
					r.Mechanism, r.Fail, r.Error, r.Shape)
			}
		}
		if !gateCaught {
			contradict("T9: the naive-gate control passed the whole corpus — the generated problems have no discriminating power at this budget")
		}
		if !pathRefused {
			contradict("T9: path expressions expressed every sampled set — the vocabulary gate is not engaging")
		}
	}
	if run("E1") {
		ran = true
		fmt.Fprintln(w)
		res := eval.RunEvolution()
		fmt.Fprint(w, eval.RenderEvolution(res))
		if !res.OK() {
			contradict("E1: the numeric path operator did not remove the escape (err=%v)", res.Err)
		}
	}
	if run("B2") {
		ran = true
		fmt.Fprintln(w)
		rows := eval.RunFairness()
		fmt.Fprint(w, eval.RenderFairness(rows))
		for _, r := range rows {
			if r.Err != nil {
				contradict("B2: %s/%s run failed: %v", r.Mechanism, r.Variant, r.Err)
				continue
			}
			switch r.Variant {
			case problems.NameReadersPriority:
				if r.ReadAvgQ > r.WriteAvgQ {
					contradict("B2: %s readers-priority delays readers more than writers (%.1f > %.1f)",
						r.Mechanism, r.ReadAvgQ, r.WriteAvgQ)
				}
			case problems.NameWritersPriority:
				if r.WriteAvgQ > r.ReadAvgQ {
					contradict("B2: %s writers-priority delays writers more than readers (%.1f > %.1f)",
						r.Mechanism, r.WriteAvgQ, r.ReadAvgQ)
				}
			}
		}
	}
	if run("E2") {
		ran = true
		fmt.Fprintln(w)
		rows := eval.RunStarvation()
		fmt.Fprint(w, eval.RenderStarvation(rows))
		for _, r := range rows {
			if r.Err != nil {
				contradict("E2: %s/%s/%s run failed: %v", r.Mechanism, r.Variant, r.Storm, r.Err)
				continue
			}
			if want := eval.ExpectedStarved(r.Variant, r.Storm); r.Starved != want {
				contradict("E2: %s/%s under a %s storm: starved=%v, specification admits %v",
					r.Mechanism, r.Variant, r.Storm, r.Starved, want)
			}
		}
	}
	if run("F1") {
		ran = true
		fmt.Fprintln(w)
		res := eval.RunFigure1(opts)
		fmt.Fprint(w, eval.RenderFigure1(res))
		if !res.AnomalyFound {
			contradict("F1: the footnote-3 anomaly was not found in %d runs", res.Runs)
		}
	}
	if run("F2") {
		ran = true
		fmt.Fprintln(w)
		res := eval.RunFigure2(opts)
		fmt.Fprint(w, eval.RenderFigure2(res))
		if !res.WritersPriorityHolds {
			contradict("F2: a writers-priority violation was found in the Figure-2 solution")
		}
		if !res.ReadersPriorityViolated {
			contradict("F2: the Figure-2 solution unexpectedly satisfies readers-priority")
		}
	}
	if !ran {
		return nil, fmt.Errorf("unknown experiment %q", experiment)
	}
	return contradictions, nil
}

// t5Outcome carries the measured facts out of renderT5 for the
// contradiction check.
type t5Outcome struct {
	overlappingReads int
	violations       int
	err              error
}

// renderT5 demonstrates the §5.2 monitor queue conflict: the FCFS
// readers–writers problem needs request type AND request time, which both
// live in queues; the monitor solution's two-stage queueing resolves it,
// and the run shows the FCFS admission order holding while reads share.
func renderT5() (string, t5Outcome) {
	var b strings.Builder
	b.WriteString("T5. The monitor request-type/request-time conflict (§5.2)\n\n")
	b.WriteString("  Both information types are carried by queues: order needs one queue, types need\n")
	b.WriteString("  separate queues. The monitor FCFS readers-writers solution therefore keeps a\n")
	b.WriteString("  single FIFO condition (order) plus a parallel type list (two-stage queueing).\n\n")

	suite, _ := solutions.ByMechanism("monitor")
	k := kernel.NewSim()
	tr, vs, err := solutions.RunStandard(k, suite, problems.NameFCFSRW, true)
	if err != nil {
		fmt.Fprintf(&b, "  run failed: %v\n", err)
		return b.String(), t5Outcome{err: err}
	}
	ivs := tr.MustIntervals()
	overlappingReads := 0
	for i := 0; i < len(ivs); i++ {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].Op == "read" && ivs[j].Op == "read" && ivs[i].OverlapsExecution(ivs[j]) {
				overlappingReads++
			}
		}
	}
	fmt.Fprintf(&b, "  operations executed:        %d\n", len(ivs))
	fmt.Fprintf(&b, "  overlapping read pairs:     %d (type information preserved: reads still share)\n", overlappingReads)
	fmt.Fprintf(&b, "  FCFS violations:            %d (time information preserved)\n", len(vs))
	b.WriteString("\n  Serializers dissolve the conflict (one queue, guarantees carry the type); the\n")
	b.WriteString("  T2 table shows their FCFS variant staying structurally close to readers-priority.\n")
	return b.String(), t5Outcome{overlappingReads: overlappingReads, violations: len(vs)}
}

// renderT6 is the §6 extension: CSP evaluated with the same method. The
// second result lists problems whose run failed or violated its oracle.
func renderT6() (string, []string) {
	var b strings.Builder
	var failures []string
	b.WriteString("T6. Message passing evaluated with the same methodology (§6: CSP [20])\n\n")
	suite, _ := solutions.ByMechanism("csp")
	for _, problem := range problems.AllProblems() {
		k := kernel.NewSim()
		_, vs, err := solutions.RunStandard(k, suite, problem, true)
		status := "ok"
		if err != nil {
			status = "FAILED: " + err.Error()
		} else if len(vs) > 0 {
			status = fmt.Sprintf("%d violations", len(vs))
		}
		if status != "ok" {
			failures = append(failures, fmt.Sprintf("%s: %s", problem, status))
		}
		fmt.Fprintf(&b, "  %-18s %s\n", problem, status)
	}
	b.WriteString("\n  ratings (T1 row): ")
	ratings := eval.ExpressivePower()["csp"]
	var cells []string
	for _, it := range core.AllInfoTypes() {
		cells = append(cells, fmt.Sprintf("%s=%s", eval.FmtInfoTypeShort(it), eval.PowerCell(ratings[it])))
	}
	b.WriteString(strings.Join(cells, " "))
	b.WriteString("\n")
	return b.String(), failures
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evalsync:", err)
	os.Exit(1)
}
