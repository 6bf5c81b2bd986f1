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
//	syncfuzz -replay fuzz-artifacts           # re-verify sealed findings
//
// Every finding is shrunk to a 1-minimal schedule and sealed as a
// replayable .sched artifact (with -o). The JSON summary (-summary) is
// versioned repro-fuzz/v1 and deterministic: same seed and budgets give
// byte-identical output at any -workers count.
//
// Exit status is 0 when the sweep completed (mechanism failures are
// results, not errors), 1 on infrastructure errors (a finding that will
// not seal, a replay that will not verify), 2 on usage errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/synth"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Summary schema identifier; bump on any incompatible change.
const summarySchema = "repro-fuzz/v1"

// mechResult is one mechanism's outcome on one generated problem.
type mechResult struct {
	// Status: "pass", "fail" (oracle violation), "deadlock", "error"
	// (other kernel error), or "inexpressible" (the mechanism's verdict
	// that it cannot encode the constraints — pathexpr).
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

// tableRow aggregates one mechanism × constraint shape cell.
type tableRow struct {
	Mechanism     string `json:"mechanism"`
	Shape         string `json:"shape"`
	Pass          int    `json:"pass"`
	Fail          int    `json:"fail"`
	Deadlock      int    `json:"deadlock"`
	Error         int    `json:"error,omitempty"`
	Inexpressible int    `json:"inexpressible,omitempty"`
}

type summary struct {
	Schema     string          `json:"schema"`
	Seed       int64           `json:"seed"`
	N          int             `json:"n"`
	Mechanisms []string        `json:"mechanisms"`
	Problems   []problemResult `json:"problems"`
	Table      []tableRow      `json:"table"`
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
	replay := fs.String("replay", "", "verify sealed artifacts (.sched file or directory) instead of fuzzing")
	list := fs.Bool("list", false, "list mechanisms")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(synth.Mechanisms(), "\n"))
		return 0
	}
	if *replay != "" {
		return runReplay(*replay, stdout, stderr)
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
	cells := map[string]*tableRow{}
	for i := 0; i < o.n; i++ {
		pseed := o.seed + int64(i)
		set := synth.Generate(pseed)
		pr := problemResult{
			Seed:       pseed,
			Name:       set.Name,
			Shape:      set.Shape(),
			Classes:    len(set.Classes),
			Mechanisms: map[string]mechResult{},
		}
		for _, mech := range o.mechs {
			mr, err := fuzzOne(o, pseed, set, mech)
			if err != nil {
				fmt.Fprintf(stderr, "syncfuzz: %s on %s: %v\n", mech, set.Name, err)
				return 1
			}
			pr.Mechanisms[mech] = mr
			key := mech + "\x00" + pr.Shape
			cell := cells[key]
			if cell == nil {
				cell = &tableRow{Mechanism: mech, Shape: pr.Shape}
				cells[key] = cell
			}
			switch mr.Status {
			case "pass":
				cell.Pass++
			case "fail":
				cell.Fail++
			case "deadlock":
				cell.Deadlock++
			case "error":
				cell.Error++
			case "inexpressible":
				cell.Inexpressible++
			}
		}
		sum.Problems = append(sum.Problems, pr)
		if !o.quiet {
			fmt.Fprintf(stdout, "%-12s %-40s %s\n", set.Name, pr.Shape, renderRow(pr, o.mechs))
		}
	}
	for _, cell := range cells {
		sum.Table = append(sum.Table, *cell)
	}
	sort.Slice(sum.Table, func(i, j int) bool {
		if sum.Table[i].Mechanism != sum.Table[j].Mechanism {
			return sum.Table[i].Mechanism < sum.Table[j].Mechanism
		}
		return sum.Table[i].Shape < sum.Table[j].Shape
	})
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

// fuzzOne explores one generated problem under one mechanism and seals
// any finding. The returned error is infrastructural (seal failure);
// mechanism failures land in the result.
func fuzzOne(o options, pseed int64, set *synth.Set, mech string) (mechResult, error) {
	if err := synth.Supports(mech, set); err != nil {
		return mechResult{Status: "inexpressible", Reason: err.Error()}, nil
	}
	prog, oracle, err := synth.Program(set, mech)
	if err != nil {
		return mechResult{}, err
	}
	res := explore.Run(prog, oracle, explore.Options{
		RandomRuns: o.runs,
		DFSRuns:    o.dfs,
		MaxSteps:   o.steps,
		Workers:    o.workers,
		Prune:      true,
		DPOR:       true,
		Shrink:     true,
	})
	mr := mechResult{Runs: res.Runs}
	if !res.Found {
		mr.Status = "pass"
		return mr, nil
	}
	switch {
	case res.Err != nil && errors.Is(res.Err, kernel.ErrDeadlock):
		mr.Status = "deadlock"
	case res.Err != nil:
		mr.Status = "error"
	default:
		mr.Status = "fail"
		for _, v := range res.Violations {
			mr.Rules = append(mr.Rules, v.Rule)
		}
	}
	sched := res.MinSchedule
	if len(sched) == 0 {
		sched = res.Schedule
	}
	mr.MinChoices = len(sched)
	if o.outDir != "" {
		f := explore.NewSchedFile(mech, fmt.Sprintf("synth/%d", pseed), "synth", sched)
		f.MaxSteps = o.steps
		if err := f.Seal(prog, oracle); err != nil {
			return mr, fmt.Errorf("sealing finding: %w", err)
		}
		name := fmt.Sprintf("synth-%d-%s.sched", pseed, mech)
		if err := f.WriteFile(filepath.Join(o.outDir, name)); err != nil {
			return mr, err
		}
		mr.Sched = name
	}
	return mr, nil
}

func renderRow(pr problemResult, mechs []string) string {
	short := map[string]string{
		"pass": "ok", "fail": "FAIL", "deadlock": "DEAD",
		"error": "ERR", "inexpressible": "n/e",
	}
	parts := make([]string, 0, len(mechs))
	for _, m := range mechs {
		parts = append(parts, fmt.Sprintf("%s=%s", m, short[pr.Mechanisms[m].Status]))
	}
	return strings.Join(parts, " ")
}

func renderTable(w io.Writer, rows []tableRow) {
	fmt.Fprintf(w, "\n%-12s %-40s %5s %5s %5s %5s %5s\n",
		"mechanism", "shape", "pass", "fail", "dead", "err", "n/e")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-40s %5d %5d %5d %5d %5d\n",
			r.Mechanism, r.Shape, r.Pass, r.Fail, r.Deadlock, r.Error, r.Inexpressible)
	}
}

// runReplay verifies sealed artifacts: each file's problem seed is
// parsed back out, the generator reproduces the set, and SchedFile.Verify
// replays the schedule with full drift detection.
func runReplay(path string, stdout, stderr io.Writer) int {
	info, err := os.Stat(path)
	if err != nil {
		fmt.Fprintf(stderr, "syncfuzz: %v\n", err)
		return 1
	}
	var files []string
	if info.IsDir() {
		ents, err := os.ReadDir(path)
		if err != nil {
			fmt.Fprintf(stderr, "syncfuzz: %v\n", err)
			return 1
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".sched") {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
		if len(files) == 0 {
			fmt.Fprintf(stderr, "syncfuzz: no .sched files in %s\n", path)
			return 1
		}
	} else {
		files = []string{path}
	}
	bad := 0
	for _, file := range files {
		if err := replayOne(file); err != nil {
			fmt.Fprintf(stderr, "syncfuzz: %s: %v\n", filepath.Base(file), err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "%s: verified\n", filepath.Base(file))
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "syncfuzz: %d of %d artifacts failed to verify\n", bad, len(files))
		return 1
	}
	return 0
}

func replayOne(path string) error {
	f, err := explore.ReadSchedFile(path)
	if err != nil {
		return err
	}
	seedStr, ok := strings.CutPrefix(f.Problem, "synth/")
	if !ok {
		return fmt.Errorf("not a syncfuzz artifact (problem %q)", f.Problem)
	}
	pseed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return fmt.Errorf("bad problem seed %q: %v", seedStr, err)
	}
	set := synth.Generate(pseed)
	prog, oracle, err := synth.Program(set, f.Mechanism)
	if err != nil {
		return err
	}
	_, _, err = f.Verify(prog, oracle)
	return err
}
