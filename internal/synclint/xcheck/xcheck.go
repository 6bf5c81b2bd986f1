// Package xcheck cross-validates the static synclint analyzers against
// schedule exploration, in both directions.
//
// Forward (Run): every lockorder/lostwakeup finding on the embedded
// solution sources — with allow-annotations deliberately ignored, so
// reasoned suppressions are re-litigated rather than trusted — seeds a
// targeted explore hunt (Prune+Shrink) that tries to realize
// the hazard on the standard workload. A finding the hunt confirms
// seals a replayable .sched artifact next to it; a finding the hunt
// cannot realize is evidence (not proof) for its allow reason.
//
// Backward (MissAudit): the repository's sealed counterexample corpus
// is replayed against the static pass — every deadlock-class schedule
// of a solution or of the fixture must come from a package the
// lockorder analyzer flags. Exploration thereby becomes a regression
// corpus for the static analyzers: a future analyzer change that stops
// seeing a realized deadlock fails the audit.
package xcheck

import (
	"fmt"
	"go/ast"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/explore"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/synclint"
	"repro/internal/synclint/xcheck/cyclicfix"
	"repro/internal/trace"
)

// FixtureMechanism and FixtureProblem identify the seeded cyclic-wait
// fixture in sealed schedule files, whose scenario is
// explore.ScenarioXCheck.
const (
	FixtureMechanism = "fixture"
	FixtureProblem   = "cyclic-wait"
)

// SeedAnalyzers are the analyzers whose findings seed hunts: the two
// whose hazard classes exploration can actually realize (a cyclic wait
// deadlocks the kernel; a lost wakeup strands a sleeper).
func SeedAnalyzers() []*synclint.Analyzer {
	return []*synclint.Analyzer{synclint.LockOrderAnalyzer, synclint.LostWakeupAnalyzer}
}

// Row is the outcome of cross-validating one static finding.
type Row struct {
	Mechanism string
	Problem   string
	Finding   synclint.Finding
	// Status is "confirmed" (the hunt realized the hazard),
	// "unrealized" (the budgeted hunt found nothing — evidence for the
	// finding's allow reason), or "unmapped" (the finding's enclosing
	// type has no standard workload to hunt on).
	Status string
	// Runs is the number of schedules the hunt judged.
	Runs int
	// SchedPath is the sealed artifact for confirmed findings when Run
	// was given a schedule directory.
	SchedPath string
}

// target is one source package the gate analyzes, with the program
// factory that turns a finding's problem into a huntable program.
type target struct {
	mechanism string
	pkg       *synclint.Package
	program   func(problem string) (explore.Program, explore.Oracle, string, error)
}

// Run analyzes every target package, hunts each finding, and returns
// the rows sorted by mechanism, problem, position. Each hunt explores
// with opts plus Prune and Shrink; opts sets the budgets, the workers,
// any further reduction or audit, and the progress callback. When
// schedDir is non-empty every confirmed finding seals a .sched artifact
// there.
func Run(opts explore.Options, schedDir string) ([]Row, error) {
	opts.Prune, opts.Shrink = true, true
	targets, err := loadTargets()
	if err != nil {
		return nil, err
	}
	var rows []Row
	type huntKey struct{ mech, problem string }
	hunted := map[huntKey]*explore.Result{}
	for _, tgt := range targets {
		findings := synclint.RunAll(tgt.pkg, SeedAnalyzers())
		for _, f := range findings {
			row := Row{Mechanism: tgt.mechanism, Finding: f}
			typeName := enclosingType(tgt.pkg, f)
			problem, ok := problemForType(tgt.mechanism, typeName)
			if !ok {
				row.Status = "unmapped"
				rows = append(rows, row)
				continue
			}
			row.Problem = problem
			prog, oracle, scenario, err := tgt.program(problem)
			if err != nil {
				return nil, fmt.Errorf("xcheck: %s/%s: %w", tgt.mechanism, problem, err)
			}
			key := huntKey{tgt.mechanism, problem}
			res := hunted[key]
			if res == nil {
				r := explore.Run(prog, oracle, opts)
				res = &r
				hunted[key] = res
			}
			row.Runs = res.Runs
			if res.Found {
				row.Status = "confirmed"
				if schedDir != "" {
					path, err := seal(schedDir, tgt.mechanism, problem, scenario, prog, oracle, res)
					if err != nil {
						return nil, err
					}
					row.SchedPath = path
				}
			} else {
				row.Status = "unrealized"
			}
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Mechanism != b.Mechanism {
			return a.Mechanism < b.Mechanism
		}
		if a.Problem != b.Problem {
			return a.Problem < b.Problem
		}
		if a.Finding.Pos.Filename != b.Finding.Pos.Filename {
			return a.Finding.Pos.Filename < b.Finding.Pos.Filename
		}
		return a.Finding.Pos.Line < b.Finding.Pos.Line
	})
	return rows, nil
}

func loadTargets() ([]target, error) {
	var targets []target
	for _, suite := range solutions.All() {
		suite := suite
		dir := solutions.SourceDirs[suite.Mechanism]
		if dir == "" {
			return nil, fmt.Errorf("xcheck: no source directory for mechanism %q", suite.Mechanism)
		}
		pkg, err := synclint.LoadFS(solutions.Sources, dir)
		if err != nil {
			return nil, fmt.Errorf("xcheck: load %s: %w", dir, err)
		}
		targets = append(targets, target{
			mechanism: suite.Mechanism,
			pkg:       pkg,
			program: func(problem string) (explore.Program, explore.Oracle, string, error) {
				prog, check, err := solutions.StandardProgram(suite, problem, false)
				if err != nil {
					return nil, nil, "", err
				}
				return prog, check, explore.ScenarioStandard, nil
			},
		})
	}
	fixture, err := synclint.LoadFS(cyclicfix.Source, ".")
	if err != nil {
		return nil, fmt.Errorf("xcheck: load cyclicfix fixture: %w", err)
	}
	targets = append(targets, target{
		mechanism: FixtureMechanism,
		pkg:       fixture,
		program: func(string) (explore.Program, explore.Oracle, string, error) {
			return cyclicfix.Program, nilOracle, explore.ScenarioXCheck, nil
		},
	})
	return targets, nil
}

// nilOracle judges nothing: the fixture's hazard is a kernel deadlock,
// which exploration reports as a finding on its own.
func nilOracle(trace.Trace) []problems.Violation { return nil }

// problemForType maps a finding's enclosing type to the problem whose
// standard workload exercises it.
func problemForType(mechanism, typeName string) (string, bool) {
	if mechanism == FixtureMechanism {
		return FixtureProblem, typeName != ""
	}
	if typeName == "" {
		return "", false
	}
	// Exact match first, then the longest type name that prefixes it
	// (cspsol's rwServer-style backends keep their front's name as a
	// prefix: "Disk" matches "diskServer" only via the exported front, so
	// prefix matching runs on the exported names).
	best, bestLen := "", 0
	for problem, name := range solutions.SolutionTypes {
		if typeName == name {
			return problem, true
		}
		if strings.HasPrefix(typeName, name) && len(name) > bestLen {
			best, bestLen = problem, len(name)
		}
	}
	return best, best != ""
}

// enclosingType finds the receiver type of the function containing a
// finding, or "" for package-level positions.
func enclosingType(pkg *synclint.Package, f synclint.Finding) string {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) == 0 {
				continue
			}
			start := pkg.Fset.Position(fn.Pos())
			end := pkg.Fset.Position(fn.End())
			if start.Filename != f.Pos.Filename || f.Pos.Line < start.Line || f.Pos.Line > end.Line {
				continue
			}
			t := fn.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok {
				return id.Name
			}
		}
	}
	return ""
}

// seal writes the hunt's (shrunk) schedule as a verified artifact and
// returns its path.
func seal(dir, mechanism, problem, scenario string, prog explore.Program, oracle explore.Oracle, res *explore.Result) (string, error) {
	schedule := res.Schedule
	if res.MinSchedule != nil {
		schedule = res.MinSchedule
	}
	name := fmt.Sprintf("%s-%s.sched", mechanism, problem)
	if mechanism == FixtureMechanism {
		name = "cyclicwait.sched"
	}
	f := explore.NewSchedFile(mechanism, problem, scenario, schedule)
	f.Note = "sealed by synclint xcheck hunt"
	if err := f.Seal(prog, oracle); err != nil {
		return "", fmt.Errorf("xcheck: sealing %s: %w", name, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := f.WriteFile(path); err != nil {
		return "", err
	}
	return path, nil
}

// AuditRow is the classification of one sealed schedule artifact.
type AuditRow struct {
	File  string
	Class string // "deadlock", "error", "violation", or "clean"
	// Verdict is "flagged" (the static pass sees the hazard class),
	// "dynamic-only" (the artifact's hazard class is outside static
	// reach: ordering violations, step-limit errors), "clean" (the
	// artifact records no hazard at all), or "MISS" (a deadlock the
	// lockorder analyzer no longer flags).
	Verdict string
	Detail  string
}

// Missed reports whether any audited artifact was a MISS.
func Missed(rows []AuditRow) bool {
	for _, r := range rows {
		if r.Verdict == "MISS" {
			return true
		}
	}
	return false
}

// MissAudit classifies every .sched artifact under dir (recursively)
// against the static pass: deadlock-class schedules must originate from
// a package the lockorder analyzer flags.
func MissAudit(dir string) ([]AuditRow, error) {
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".sched") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var rows []AuditRow
	for _, path := range files {
		f, err := explore.ReadSchedFile(path)
		if err != nil {
			return nil, fmt.Errorf("xcheck: %s: %w", path, err)
		}
		row := AuditRow{File: filepath.Base(path)}
		switch f.KernelError {
		case explore.KernelErrDeadlock:
			row.Class = "deadlock"
			row.Verdict, row.Detail = auditDeadlock(f)
		case "":
			if len(f.Rules) == 0 {
				row.Class = "clean"
				row.Verdict = "clean"
				row.Detail = "records no violation and no kernel error; nothing to audit"
				break
			}
			row.Class = "violation"
			row.Verdict = "dynamic-only"
			row.Detail = "ordering/priority violations are schedule properties, outside static reach"
		default:
			row.Class = "error"
			row.Verdict = "dynamic-only"
			row.Detail = "non-deadlock kernel errors carry no static lock-order signature"
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// auditDeadlock checks, by the artifact's scenario, that the package a
// deadlock was hunted on is still flagged by the lockorder analyzer
// (allows ignored — an annotation must not hide a realized deadlock from
// the audit). A generated problem has no such package: its deadlocks are
// dynamic-only.
func auditDeadlock(f *explore.SchedFile) (verdict, detail string) {
	var pkg *synclint.Package
	var err error
	switch f.Scenario {
	case explore.ScenarioSynth:
		return "dynamic-only", "a generated problem wedges through its constraint set or an adapter's admission policy, not a lock-order cycle"
	case explore.ScenarioXCheck:
		pkg, err = synclint.LoadFS(cyclicfix.Source, ".")
	case explore.ScenarioFigure, explore.ScenarioStandard:
		dir := solutions.SourceDirs[f.Mechanism]
		if dir == "" {
			return "MISS", fmt.Sprintf("no source package known for mechanism %q", f.Mechanism)
		}
		pkg, err = synclint.LoadFS(solutions.Sources, dir)
	default:
		return "MISS", fmt.Sprintf("unknown scenario %q", f.Scenario)
	}
	if err != nil {
		return "MISS", err.Error()
	}
	findings := synclint.RunAll(pkg, []*synclint.Analyzer{synclint.LockOrderAnalyzer})
	if len(findings) == 0 {
		return "MISS", fmt.Sprintf("deadlock realized on %s/%s but lockorder reports nothing in its package", f.Mechanism, f.Problem)
	}
	return "flagged", fmt.Sprintf("lockorder reports %d finding(s) in the package", len(findings))
}
