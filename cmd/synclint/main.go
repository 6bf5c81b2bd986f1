// Command synclint checks the repository's synchronization discipline
// statically (see internal/synclint): balanced exclusion brackets,
// nested-monitor hazards, resource state escaping its mechanism, hollow
// signals, kernel API misuse, cyclic lock orders, and lost-wakeup
// windows.
//
// Usage:
//
//	synclint ./...                 # every package under the tree
//	synclint ./internal/eval       # one package
//	synclint -json ./...           # machine-readable findings
//	synclint -analyzers bracket,escape ./...
//	synclint -hunt                 # cross-validate findings by schedule exploration
//	synclint -hunt -sched-dir out  # ...sealing a .sched artifact per confirmed finding
//	synclint -audit internal/explore/testdata
//
// -hunt runs the cross-validation gate (internal/synclint/xcheck): every
// lockorder/lostwakeup finding on the embedded solution sources seeds an
// exploration hunt that tries to realize the hazard. -audit replays a
// directory of sealed .sched artifacts against the static pass and fails
// on any deadlock the lockorder analyzer no longer flags.
//
// Exit status is 0 when no findings remain, 1 when findings are reported
// (or the audit misses), and 2 when a package fails to load.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/explore"
	"repro/internal/synclint"
	"repro/internal/synclint/xcheck"
)

func main() {
	jsonOut := flag.Bool("json", false, "print findings as JSON")
	names := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	hunt := flag.Bool("hunt", false, "cross-validate lockorder/lostwakeup findings on the embedded solutions by schedule exploration")
	schedDir := flag.String("sched-dir", "", "with -hunt: seal a replayable .sched artifact per confirmed finding into this directory")
	huntRandom := flag.Int("hunt-random", 0, "with -hunt: random schedules per hunt (0 = explore default)")
	huntDFS := flag.Int("hunt-dfs", 400, "with -hunt: systematic DFS runs per hunt")
	audit := flag.String("audit", "", "miss-audit: classify every .sched under this directory against the static pass")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: synclint [-json] [-analyzers list] packages...\n       synclint -hunt [-sched-dir dir]\n       synclint -audit dir\n\nanalyzers:\n")
		for _, a := range synclint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *audit != "" {
		runAudit(*audit)
		return
	}
	if *hunt {
		runHunt(explore.Options{RandomRuns: *huntRandom, DFSRuns: *huntDFS}, *schedDir)
		return
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synclint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := expandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synclint:", err)
		os.Exit(2)
	}

	all, err := lintPackages(dirs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synclint:", err)
		os.Exit(2)
	}
	if err := printFindings(os.Stdout, all, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "synclint:", err)
		os.Exit(2)
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

// lintPackages runs the analyzers over every directory and returns all
// findings in one deterministic order (file, line, column, analyzer) —
// the order the golden test pins.
func lintPackages(dirs []string, analyzers []*synclint.Analyzer) ([]synclint.Finding, error) {
	var all []synclint.Finding
	for _, dir := range dirs {
		pkg, err := synclint.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		findings, _ := synclint.Run(pkg, analyzers)
		all = append(all, findings...)
	}
	synclint.SortFindings(all)
	return all, nil
}

func printFindings(w io.Writer, all []synclint.Finding, jsonOut bool) error {
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []synclint.Finding{}
		}
		return enc.Encode(all)
	}
	for _, f := range all {
		fmt.Fprintln(w, f)
	}
	return nil
}

// runHunt executes the cross-validation gate and prints one row per
// static finding with the hunt's verdict.
func runHunt(opts explore.Options, schedDir string) {
	rows, err := xcheck.Run(opts, schedDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synclint:", err)
		os.Exit(2)
	}
	confirmed := 0
	for _, r := range rows {
		line := fmt.Sprintf("%-10s %-16s %-11s runs=%-5d %s: %s",
			r.Mechanism, r.Problem, r.Status, r.Runs, r.Finding.Analyzer,
			fmt.Sprintf("%s:%d", r.Finding.Pos.Filename, r.Finding.Pos.Line))
		if r.SchedPath != "" {
			line += "  sealed: " + r.SchedPath
		}
		fmt.Println(line)
		if r.Status == "confirmed" {
			confirmed++
		}
	}
	fmt.Printf("%d finding(s) cross-validated, %d confirmed by exploration\n", len(rows), confirmed)
}

// runAudit classifies sealed schedule artifacts against the static pass
// and exits 1 if any deadlock is no longer flagged.
func runAudit(dir string) {
	rows, err := xcheck.MissAudit(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synclint:", err)
		os.Exit(2)
	}
	for _, r := range rows {
		fmt.Printf("%-24s %-10s %-13s %s\n", r.File, r.Class, r.Verdict, r.Detail)
	}
	if xcheck.Missed(rows) {
		fmt.Println("miss audit FAILED: a realized hazard is no longer statically flagged")
		os.Exit(1)
	}
	fmt.Printf("miss audit passed over %d artifact(s)\n", len(rows))
}

func selectAnalyzers(names string) ([]*synclint.Analyzer, error) {
	if names == "" {
		return synclint.Analyzers(), nil
	}
	byName := map[string]*synclint.Analyzer{}
	for _, a := range synclint.Analyzers() {
		byName[a.Name] = a
	}
	var out []*synclint.Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a := byName[n]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, strings.Join(synclint.AnalyzerNames(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// expandPatterns resolves package patterns to directories holding
// non-test Go files. "dir/..." walks recursively, skipping hidden
// directories and testdata.
func expandPatterns(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if root, ok := strings.CutSuffix(pat, "..."); ok {
			root = filepath.Clean(strings.TrimSuffix(root, "/"))
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Clean(pat))
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		return nil, fmt.Errorf("no Go packages match %s", strings.Join(patterns, " "))
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
