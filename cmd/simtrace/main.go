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
//	simtrace -replay fuzz-artifacts -quiet    # every .sched in a directory
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
	"path/filepath"
	"strings"

	"repro/internal/eval"
	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
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
	replayPath := fs.String("replay", "", "replay a saved .sched artifact, or every .sched in a directory, with drift detection; exits 0 iff all reproduce")
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

	if *replayPath != "" {
		return runReplay(*replayPath, *quiet, stdout, stderr)
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

// runReplay replays a saved schedule artifact, or every .sched file in a
// directory in name order, with full drift detection, and returns 0 iff
// every artifact reproduces its recorded finding.
func runReplay(path string, quiet bool, stdout, stderr io.Writer) int {
	files := []string{path}
	if info, err := os.Stat(path); err == nil && info.IsDir() {
		ents, err := os.ReadDir(path) // sorted by name
		if err != nil {
			fmt.Fprintln(stderr, "simtrace:", err)
			return 1
		}
		files = nil
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".sched") {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		if len(files) == 0 {
			fmt.Fprintf(stderr, "simtrace: no .sched files in %s\n", path)
			return 1
		}
	}
	bad := 0
	for _, file := range files {
		if err := replayOne(file, quiet, stdout); err != nil {
			fmt.Fprintf(stderr, "simtrace: %s: %v\n", file, err)
			bad++
		}
	}
	if bad == 0 {
		return 0
	}
	if len(files) > 1 {
		fmt.Fprintf(stderr, "simtrace: %d of %d artifacts failed to verify\n", bad, len(files))
	}
	return 1
}

// replayOne verifies one artifact against the program its
// (mechanism, problem, scenario) names and reports what it reproduced.
func replayOne(path string, quiet bool, stdout io.Writer) error {
	f, err := explore.ReadSchedFile(path)
	if err != nil {
		return err
	}
	prog, oracle, err := eval.ScenarioProgram(f.Mechanism, f.Problem, f.Scenario)
	if err != nil {
		return err
	}
	tr, vs, err := f.Verify(prog, oracle)
	if !quiet && len(tr) > 0 {
		fmt.Fprint(stdout, tr)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replay ok: %s/%s/%s, %d choices, fingerprint %s\n",
		f.Mechanism, f.Problem, f.Scenario, len(f.Choices), f.Fingerprint)
	if f.KernelError != "" {
		fmt.Fprintf(stdout, "reproduced kernel error class: %s\n", f.KernelError)
		return nil
	}
	for _, v := range vs {
		fmt.Fprintln(stdout, "reproduced violation: "+v.String())
	}
	return nil
}

// runExplore hunts for priority violations on the figure scenario,
// judging runs with the problem's streaming oracle when it has one. It
// returns 1 when it finds a violation.
func runExplore(suite solutions.Suite, problem string, quiet bool, saveSched string, opts explore.Options,
	stdout io.Writer, fail func(error) int) int {
	prog, oracle, err := eval.ScenarioProgram(suite.Mechanism, problem, explore.ScenarioFigure)
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
		fmt.Fprintf(stdout, "dpor: backtracks %d, commuting siblings skipped %d, cut runs %d, exhausted %v\n",
			res.Stats.BacktrackPoints, res.Stats.DPORBlocked, res.Stats.CutRuns, res.Stats.Exhausted)
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
		f := explore.NewSchedFile(suite.Mechanism, problem, explore.ScenarioFigure, schedule)
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
