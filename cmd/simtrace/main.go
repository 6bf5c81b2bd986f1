// Command simtrace runs one (mechanism, problem) solution on the
// deterministic kernel and prints the trace and oracle verdict; with
// -explore it hunts schedules for a violating interleaving.
//
// Usage:
//
//	simtrace -mech monitor -problem readers-priority
//	simtrace -mech monitor -problem readers-priority -kernel real
//	simtrace -mech pathexpr -problem readers-priority -explore
//	simtrace -mech pathexpr -problem readers-priority -explore -shrink -save-sched f1.sched
//	simtrace -replay f1.sched
//	simtrace -mech csp -problem disk-scheduler -policy random -seed 9
//	simtrace -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"repro/internal/eval"
	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/synclint/xcheck"
	"repro/internal/synclint/xcheck/cyclicfix"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout
// and diagnostics to stderr, and returns the exit status — 0 when the
// run is clean or a replay reproduces, 1 on a violation or an error, 2
// on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mech := fs.String("mech", "monitor", "mechanism: semaphore ccr pathexpr monitor serializer csp")
	problem := fs.String("problem", problems.NameReadersPriority, "problem name")
	kernelFlag := fs.String("kernel", "sim", "kernel: sim (deterministic scheduler) or real (goroutines, wall clock)")
	policy := fs.String("policy", "fifo", "schedule policy: fifo, lifo, random (sim kernel only)")
	seed := fs.Int64("seed", 1, "seed for -policy random")
	exploreFlag := fs.Bool("explore", false, "hunt schedules for a violation (readers/writers-priority problems)")
	opts := explore.Options{RandomRuns: 300, DFSRuns: 600}
	explore.BindFlags(fs, &opts)
	saveSched := fs.String("save-sched", "", "write the -explore finding to this path as a replayable .sched artifact")
	replayFile := fs.String("replay", "", "replay a saved .sched artifact with drift detection; exits 0 iff it reproduces")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) during -explore")
	list := fs.Bool("list", false, "list mechanisms and problems")
	quiet := fs.Bool("quiet", false, "suppress the trace, print only the verdict")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "simtrace:", err)
		return 1
	}

	if *list {
		var mechs []string
		for _, s := range solutions.All() {
			mechs = append(mechs, s.Mechanism)
		}
		fmt.Fprintln(stdout, "mechanisms:", strings.Join(mechs, ", "))
		fmt.Fprintln(stdout, "problems:  ", strings.Join(problems.AllProblems(), ", "))
		return 0
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(stderr, "simtrace: pprof:", err)
			}
		}()
	}

	if *replayFile != "" {
		return runReplay(*replayFile, *quiet, stdout, fail)
	}

	suite, ok := solutions.ByMechanism(*mech)
	if !ok {
		return fail(fmt.Errorf("unknown mechanism %q", *mech))
	}

	switch *kernelFlag {
	case "sim":
	case "real":
		if *exploreFlag {
			return fail(fmt.Errorf("-explore needs the deterministic kernel (drop -kernel=real)"))
		}
		if opts.DPOR {
			return fail(fmt.Errorf("-dpor needs the deterministic kernel's dependency trace (drop -kernel=real)"))
		}
		if *policy != "fifo" {
			return fail(fmt.Errorf("-policy has no effect on the real kernel (goroutines schedule themselves)"))
		}
		return runReal(suite, *problem, *quiet, stdout, fail)
	default:
		return fail(fmt.Errorf("unknown kernel %q (want sim or real)", *kernelFlag))
	}

	if *exploreFlag {
		return runExplore(suite, *problem, *quiet, *saveSched, opts, stdout, fail)
	}

	var pol kernel.Policy
	switch *policy {
	case "fifo":
		pol = kernel.FIFO()
	case "lifo":
		pol = kernel.LIFO()
	case "random":
		pol = kernel.Random(*seed)
	default:
		return fail(fmt.Errorf("unknown policy %q", *policy))
	}

	k := kernel.NewSim(kernel.WithPolicy(pol))
	strict := *policy == "fifo"
	tr, vs, err := solutions.RunStandard(k, suite, *problem, strict)
	if !*quiet {
		fmt.Fprint(stdout, tr)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%d events, %d scheduling steps, strict=%v\n", len(tr), k.Steps(), strict)
	return renderVerdict(stdout, tr, vs)
}

// renderVerdict prints tr's statistics and the oracle verdict, returning
// the exit status: 0 when the trace is admissible, 1 otherwise.
func renderVerdict(stdout io.Writer, tr trace.Trace, vs []problems.Violation) int {
	if stats, serr := tr.Stats(); serr == nil {
		fmt.Fprint(stdout, trace.RenderStats(stats))
	}
	if len(vs) == 0 {
		fmt.Fprintln(stdout, "oracle: trace admissible")
		return 0
	}
	fmt.Fprintf(stdout, "oracle: %d violation(s):\n", len(vs))
	for _, v := range vs {
		fmt.Fprintln(stdout, "  "+v.String())
	}
	return 1
}

// runReal runs the standard workload once on the real kernel: genuine
// goroutine concurrency and wall-clock time instead of the simulated
// scheduler. The trace is judged non-strict — exclusion and resource
// safety only — because FCFS/priority ordering is exact only on
// deterministic traces (that remains the sim kernel's job; see
// DESIGN.md §8). Steps are not reported: the real kernel makes no
// scheduling decisions of its own.
func runReal(suite solutions.Suite, problem string, quiet bool, stdout io.Writer, fail func(error) int) int {
	k := kernel.NewReal()
	defer k.Close()
	tr, vs, err := solutions.RunStandard(k, suite, problem, false)
	if !quiet {
		fmt.Fprint(stdout, tr)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%d events on the real kernel (non-deterministic), strict=false\n", len(tr))
	return renderVerdict(stdout, tr, vs)
}

// figureProgram rebuilds the figure-scenario exploration program and
// oracle for a (mechanism, priority-problem) pair — shared by -explore,
// -save-sched sealing, and -replay verification, which must all agree.
func figureProgram(suite solutions.Suite, problem string) (explore.Program, explore.Oracle, error) {
	var oracle explore.Oracle
	switch problem {
	case problems.NameReadersPriority:
		oracle = problems.CheckReadersPriority
	case problems.NameWritersPriority:
		oracle = problems.CheckWritersPriority
	default:
		return nil, nil, fmt.Errorf("figure scenario supports readers-priority and writers-priority, not %q", problem)
	}
	prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
		var store problems.RWStore
		switch problem {
		case problems.NameReadersPriority:
			store = suite.NewReadersPriority(k)
		default:
			store = suite.NewWritersPriority(k)
		}
		eval.FigureScenario(store)(k, r)
	})
	return prog, oracle, nil
}

// schedProgram rebuilds the program and oracle a schedule file was saved
// against, from its mechanism/problem/scenario fields.
func schedProgram(f *explore.SchedFile) (explore.Program, explore.Oracle, error) {
	if f.Scenario == xcheck.FixtureScenario {
		// The synclint cross-validation fixture is its own program; no
		// mechanism suite to resolve.
		return cyclicfix.Program, func(trace.Trace) []problems.Violation { return nil }, nil
	}
	suite, ok := solutions.ByMechanism(f.Mechanism)
	if !ok {
		return nil, nil, fmt.Errorf("schedule file names unknown mechanism %q", f.Mechanism)
	}
	switch f.Scenario {
	case "figure":
		return figureProgram(suite, f.Problem)
	case "standard":
		prog, check, err := solutions.StandardProgram(suite, f.Problem, false)
		if err != nil {
			return nil, nil, err
		}
		return explore.Program(prog), check, nil
	default:
		return nil, nil, fmt.Errorf("schedule file names unknown scenario %q", f.Scenario)
	}
}

// runReplay replays a saved schedule artifact with full drift detection
// and returns 0 iff it reproduces the recorded finding.
func runReplay(path string, quiet bool, stdout io.Writer, fail func(error) int) int {
	f, err := explore.ReadSchedFile(path)
	if err != nil {
		return fail(err)
	}
	prog, oracle, err := schedProgram(f)
	if err != nil {
		return fail(err)
	}
	tr, vs, err := f.Verify(prog, oracle)
	if !quiet && len(tr) > 0 {
		fmt.Fprint(stdout, tr)
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "replay ok: %s/%s/%s, %d choices, fingerprint %s\n",
		f.Mechanism, f.Problem, f.Scenario, len(f.Choices), f.Fingerprint)
	if f.KernelError != "" {
		fmt.Fprintf(stdout, "reproduced kernel error class: %s\n", f.KernelError)
		return 0
	}
	for _, v := range vs {
		fmt.Fprintln(stdout, "reproduced violation: "+v.String())
	}
	return 0
}

// runExplore hunts for priority violations on the figure scenario,
// judging runs with the problem's streaming oracle when it has one. It
// returns 1 when it finds a violation.
func runExplore(suite solutions.Suite, problem string, quiet bool, saveSched string, opts explore.Options,
	stdout io.Writer, fail func(error) int) int {
	prog, oracle, err := figureProgram(suite, problem)
	if err != nil {
		return fail(fmt.Errorf("-explore: %w", err))
	}
	if inc, ok := problems.IncrementalOracleFor(problem); ok {
		opts.Stream = inc.New
	}
	res := explore.Run(prog, oracle, opts)
	if res.Pruned > 0 {
		fmt.Fprintf(stdout, "explored %d schedules (pruned %d)\n", res.Runs, res.Pruned)
	} else {
		fmt.Fprintf(stdout, "explored %d schedules\n", res.Runs)
	}
	if opts.DPOR {
		approx := "exactly "
		if !res.Stats.ScheduleSpaceExact {
			approx = "at most "
		}
		fmt.Fprintf(stdout, "schedule space: %s2^%.1f interleavings; explored %.3g (backtracks %d, commuting siblings skipped %d)\n",
			approx, res.Stats.ScheduleSpaceLog2, res.Stats.ExploredFraction,
			res.Stats.BacktrackPoints, res.Stats.DPORBlocked)
	}
	if !res.Found {
		fmt.Fprintln(stdout, "no violation found")
		return 0
	}
	if res.Err != nil {
		fmt.Fprintf(stdout, "kernel error under some schedule: %v\n", res.Err)
	}
	if !quiet {
		fmt.Fprintln(stdout, "violating trace:")
		fmt.Fprint(stdout, res.Trace)
	}
	for _, v := range res.Violations {
		fmt.Fprintln(stdout, "violation: "+v.String())
	}
	if res.MinSchedule != nil {
		fmt.Fprintf(stdout, "shrunk schedule: %d choices (from %d, %d shrink replays): %v\n",
			len(res.MinSchedule), len(res.Schedule), res.ShrinkRuns, res.MinSchedule)
	}
	if saveSched != "" {
		schedule := res.Schedule
		if res.MinSchedule != nil {
			schedule = res.MinSchedule
		}
		f := explore.NewSchedFile(suite.Mechanism, problem, "figure", schedule)
		f.Note = "found by simtrace -explore"
		if err := f.Seal(prog, oracle); err != nil {
			return fail(fmt.Errorf("sealing %s: %w", saveSched, err))
		}
		if err := f.WriteFile(saveSched); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "saved schedule artifact: %s (replay with: simtrace -replay %s)\n", saveSched, saveSched)
	}
	return 1
}
