// Command syncfuzz runs generated synchronization problems (package
// synth) across every mechanism through the exploration engine, and
// reports which mechanisms uphold which constraint shapes. It is the
// paper's evaluation turned into a fuzzer: instead of seven handwritten
// problems, an unbounded constraint-grammar corpus, each problem judged
// by its mechanically derived oracle.
//
// Usage:
//
//	syncfuzz                                  # 20 problems, all mechanisms
//	syncfuzz -n 200 -seed 7 -mech semaphore,csp
//	syncfuzz -n 50 -o fuzz-artifacts -summary fuzz-summary.json
//
// The sweep itself is synth.Sweep, which evalsync's T9 table runs too.
// Every finding is shrunk to a 1-minimal schedule and sealed as a
// replayable .sched artifact (with -o); simtrace -replay fuzz-artifacts
// re-verifies them. The JSON summary (-summary) is
// versioned repro-fuzz/v1 and deterministic: same seed and budgets give
// byte-identical output at any -workers count.
//
// Exit status is 0 when the sweep completed (mechanism failures are
// results, not errors), 1 on infrastructure errors (a finding that will
// not seal), 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/explore"
	"repro/internal/synth"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Summary schema identifier; bump on any incompatible change.
const summarySchema = "repro-fuzz/v1"

// mechResult is one mechanism's outcome on one generated problem.
type mechResult struct {
	// Status is one of the synth.Status* verdicts.
	Status string `json:"status"`
	// Reason carries the inexpressibility verdict.
	Reason string `json:"reason,omitempty"`
	// Rules are the violated constraint IDs for "fail".
	Rules []string `json:"rules,omitempty"`
	// Runs is the number of schedules judged (deterministic).
	Runs int `json:"runs,omitempty"`
	// Sched is the sealed artifact's file name (with -o).
	Sched string `json:"sched,omitempty"`
	// MinChoices is the length of the shrunk schedule.
	MinChoices int `json:"min_choices,omitempty"`
}

// problemResult is one generated problem's row.
type problemResult struct {
	Seed       int64                 `json:"seed"`
	Name       string                `json:"name"`
	Shape      string                `json:"shape"`
	Classes    int                   `json:"classes"`
	Mechanisms map[string]mechResult `json:"mechanisms"`
}

type summary struct {
	Schema     string          `json:"schema"`
	Seed       int64           `json:"seed"`
	N          int             `json:"n"`
	Mechanisms []string        `json:"mechanisms"`
	Problems   []problemResult `json:"problems"`
	Table      []synth.Row     `json:"table"`
}

type options struct {
	n       int
	seed    int64
	mechs   []string
	runs    int
	dfs     int
	steps   int64
	workers int
	outDir  string
	sumPath string
	quiet   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("syncfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 20, "number of generated problems")
	seed := fs.Int64("seed", 1, "base corpus seed (problem i uses seed+i)")
	mech := fs.String("mech", "all", "mechanism, comma list, or \"all\" (includes the naive-gate control)")
	runs := fs.Int("runs", 150, "random schedules per problem and mechanism")
	dfs := fs.Int("dfs", 100, "systematic (DFS) schedules per problem and mechanism")
	steps := fs.Int64("steps", 0, "per-run kernel step bound (0: engine default, 100000)")
	workers := fs.Int("workers", 0, "exploration workers (0: GOMAXPROCS; results are identical at any value)")
	outDir := fs.String("o", "", "seal findings as .sched artifacts in this directory")
	sumPath := fs.String("summary", "", "write the repro-fuzz/v1 JSON summary here (\"-\": stdout)")
	quiet := fs.Bool("quiet", false, "suppress per-problem progress lines")
	list := fs.Bool("list", false, "list mechanisms")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(synth.Mechanisms(), "\n"))
		return 0
	}
	if *n < 1 {
		fmt.Fprintln(stderr, "syncfuzz: -n must be at least 1")
		return 2
	}
	if *steps < 0 {
		fmt.Fprintln(stderr, "syncfuzz: -steps must not be negative")
		return 2
	}
	mechs, err := expandMechs(*mech)
	if err != nil {
		fmt.Fprintf(stderr, "syncfuzz: %v\n", err)
		return 2
	}
	return runFuzz(options{
		n: *n, seed: *seed, mechs: mechs, runs: *runs, dfs: *dfs,
		steps: *steps, workers: *workers, outDir: *outDir,
		sumPath: *sumPath, quiet: *quiet,
	}, stdout, stderr)
}

func expandMechs(spec string) ([]string, error) {
	all := synth.Mechanisms()
	if spec == "all" {
		return all, nil
	}
	known := map[string]bool{}
	for _, m := range all {
		known[m] = true
	}
	var out []string
	for _, m := range strings.Split(spec, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		if !known[m] {
			return nil, fmt.Errorf("unknown mechanism %q (use -list)", m)
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no mechanisms selected")
	}
	return out, nil
}

func runFuzz(o options, stdout, stderr io.Writer) int {
	if o.outDir != "" {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "syncfuzz: %v\n", err)
			return 1
		}
	}
	sum := summary{Schema: summarySchema, Seed: o.seed, N: o.n, Mechanisms: o.mechs}
	opts := explore.Options{
		RandomRuns: o.runs,
		DFSRuns:    o.dfs,
		MaxSteps:   o.steps,
		Workers:    o.workers,
		Prune:      true,
		DPOR:       true,
		Shrink:     true,
	}
	table, err := synth.Sweep(o.seed, o.n, o.mechs, opts, func(set *synth.Set, verdicts []synth.Verdict) error {
		pr := problemResult{
			Seed:       set.Seed,
			Name:       set.Name,
			Shape:      set.Shape(),
			Classes:    len(set.Classes),
			Mechanisms: map[string]mechResult{},
		}
		for _, v := range verdicts {
			mr, err := o.record(set.Seed, v)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", v.Mechanism, set.Name, err)
			}
			pr.Mechanisms[v.Mechanism] = mr
		}
		sum.Problems = append(sum.Problems, pr)
		if !o.quiet {
			fmt.Fprintf(stdout, "%-12s %-40s %s\n", pr.Name, pr.Shape, renderRow(pr, o.mechs))
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "syncfuzz: %v\n", err)
		return 1
	}
	sum.Table = table
	if !o.quiet {
		renderTable(stdout, sum.Table)
	}
	if o.sumPath != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "syncfuzz: %v\n", err)
			return 1
		}
		data = append(data, '\n')
		if o.sumPath == "-" {
			stdout.Write(data)
		} else if err := os.WriteFile(o.sumPath, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "syncfuzz: %v\n", err)
			return 1
		}
	}
	return 0
}

// record turns one verdict into its summary entry and seals a finding
// into o.outDir. The returned error is infrastructural (seal failure);
// mechanism failures land in the result.
func (o options) record(pseed int64, v synth.Verdict) (mechResult, error) {
	res := v.Result
	mr := mechResult{Status: v.Status, Reason: v.Reason, Runs: res.Runs}
	if !res.Found {
		return mr, nil
	}
	if v.Status == synth.StatusFail {
		for _, viol := range res.Violations {
			mr.Rules = append(mr.Rules, viol.Rule)
		}
	}
	sched := res.MinSchedule
	if len(sched) == 0 {
		sched = res.Schedule
	}
	mr.MinChoices = len(sched)
	if o.outDir != "" {
		f := explore.NewSchedFile(v.Mechanism, fmt.Sprintf("synth/%d", pseed), explore.ScenarioSynth, sched)
		f.MaxSteps = o.steps
		if err := f.Seal(v.Program, v.Oracle); err != nil {
			return mr, fmt.Errorf("sealing finding: %w", err)
		}
		name := fmt.Sprintf("synth-%d-%s.sched", pseed, v.Mechanism)
		if err := f.WriteFile(filepath.Join(o.outDir, name)); err != nil {
			return mr, err
		}
		mr.Sched = name
	}
	return mr, nil
}

func renderRow(pr problemResult, mechs []string) string {
	short := map[string]string{
		synth.StatusPass: "ok", synth.StatusFail: "FAIL", synth.StatusDeadlock: "DEAD",
		synth.StatusError: "ERR", synth.StatusInexpressible: "n/e",
	}
	parts := make([]string, 0, len(mechs))
	for _, m := range mechs {
		parts = append(parts, fmt.Sprintf("%s=%s", m, short[pr.Mechanisms[m].Status]))
	}
	return strings.Join(parts, " ")
}

func renderTable(w io.Writer, rows []synth.Row) {
	fmt.Fprintf(w, "\n%-12s %-40s %5s %5s %5s %5s %5s\n",
		"mechanism", "shape", "pass", "fail", "dead", "err", "n/e")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-40s %5d %5d %5d %5d %5d\n",
			r.Mechanism, r.Shape, r.Pass, r.Fail, r.Deadlock, r.Error, r.Inexpressible)
	}
}
