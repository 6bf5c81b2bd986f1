package explore

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/trace"
)

var updateSched = flag.Bool("update", false, "regenerate golden .sched artifacts")

// The round-trip contract over the full T4 suite: for every mechanism x
// problem pairing, a schedule recorded from the standard program seals,
// writes, reads back, and verifies — and the replayed trace is
// byte-identical to the trace the seal saw.
func TestSchedFileRoundTripT4Suite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite round-trip is slow")
	}
	for _, suite := range solutions.All() {
		for _, problem := range problems.AllProblems() {
			suite, problem := suite, problem
			t.Run(suite.Mechanism+"/"+problem, func(t *testing.T) {
				t.Parallel()
				prog, check, err := solutions.StandardProgram(suite, problem, false)
				if err != nil {
					t.Fatal(err)
				}
				// Record a schedule by running the program once under a
				// seeded random policy (FIFO would leave an all-default
				// schedule, which trims to nothing interesting).
				e := newExecutor(Options{MaxSteps: 100000})
				defer e.close()
				out := e.run(Program(prog), kernel.Random(7))
				schedule := append([]kernel.Choice(nil), out.schedule...)
				e.release(out)

				f := NewSchedFile(suite.Mechanism, problem, ScenarioStandard, schedule)
				if err := f.Seal(Program(prog), check); err != nil {
					t.Fatalf("Seal: %v", err)
				}
				sealedTr, _, err := f.Verify(Program(prog), check)
				if err != nil {
					t.Fatalf("Verify before write: %v", err)
				}

				path := filepath.Join(t.TempDir(), "roundtrip.sched")
				if err := f.WriteFile(path); err != nil {
					t.Fatalf("WriteFile: %v", err)
				}
				loaded, err := ReadSchedFile(path)
				if err != nil {
					t.Fatalf("ReadSchedFile: %v", err)
				}
				if !reflect.DeepEqual(loaded, f) {
					t.Fatalf("loaded file differs from written:\n  wrote: %+v\n  read:  %+v", f, loaded)
				}
				replayTr, _, err := loaded.Verify(Program(prog), check)
				if err != nil {
					t.Fatalf("Verify after round-trip: %v", err)
				}
				if !reflect.DeepEqual(sealedTr, replayTr) {
					t.Fatalf("round-trip replay trace diverged\nsealed:\n%s\nreplayed:\n%s", sealedTr, replayTr)
				}
			})
		}
	}
}

// The checked-in golden artifact: a shrunk Figure-1 finding saved as a
// .sched file must keep replaying to the identical violation. Regenerate
// with: go test ./internal/explore -run TestSchedFileGolden -update
func TestSchedFileGolden(t *testing.T) {
	golden := filepath.Join("testdata", "figure1.sched")
	prog := figure1Program()
	oracle := Oracle(problems.CheckReadersPriority)

	if *updateSched {
		res := Run(prog, oracle, Options{
			RandomRuns: 300, DFSRuns: 600, Shrink: true,
		})
		if !res.Found || res.Err != nil || res.MinSchedule == nil {
			t.Fatalf("cannot regenerate golden: found=%v err=%v min=%v",
				res.Found, res.Err, res.MinSchedule)
		}
		f := NewSchedFile("pathexpr", problems.NameReadersPriority, ScenarioFigure, res.MinSchedule)
		f.Note = "shrunk footnote-3 readers-priority violation (golden artifact)"
		if err := f.Seal(prog, oracle); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if err := f.WriteFile(golden); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}

	f, err := ReadSchedFile(golden)
	if err != nil {
		t.Fatalf("reading golden artifact: %v (regenerate with -update)", err)
	}
	tr, vs, err := f.Verify(prog, oracle)
	if err != nil {
		t.Fatalf("golden artifact no longer reproduces: %v (regenerate with -update)", err)
	}
	if len(vs) == 0 {
		t.Fatalf("golden replay shows no violation:\n%s", tr)
	}
	// The golden artifact records an oracle finding, not a kernel error,
	// and stays small — that is the point of shrinking before saving.
	if f.KernelError != "" || len(f.Rules) == 0 {
		t.Fatalf("golden artifact malformed: rules=%v kernelError=%q", f.Rules, f.KernelError)
	}
}

// Damaged or drifted artifacts must fail loudly, with a diagnostic that
// names the problem.
func TestSchedFileRejects(t *testing.T) {
	prog := figure1Program()
	oracle := Oracle(problems.CheckReadersPriority)

	// A sealed, known-good file to mutate.
	e := newExecutor(Options{MaxSteps: 100000})
	defer e.close()
	out := e.run(prog, kernel.Random(3))
	schedule := append([]kernel.Choice(nil), out.schedule...)
	e.release(out)
	good := NewSchedFile("pathexpr", problems.NameReadersPriority, ScenarioFigure, schedule)
	if err := good.Seal(prog, oracle); err != nil {
		t.Fatalf("Seal: %v", err)
	}

	t.Run("wrong-kind", func(t *testing.T) {
		f := *good
		f.Kind = "something-else"
		if err := f.validate(); err == nil || !strings.Contains(err.Error(), "not a schedule file") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown-version", func(t *testing.T) {
		f := *good
		f.Version = SchedFileVersion + 1
		if err := f.validate(); err == nil || !strings.Contains(err.Error(), "unsupported schedule file version") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("choice-out-of-range", func(t *testing.T) {
		f := *good
		f.Choices = append([][2]int{{2, 5}}, f.Choices...)
		if err := f.validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unsealed", func(t *testing.T) {
		f := NewSchedFile("pathexpr", problems.NameReadersPriority, ScenarioFigure, schedule)
		if _, _, err := f.Verify(prog, oracle); err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("drifted-program", func(t *testing.T) {
		// Replaying against a different program must trip drift detection:
		// either the strict replay diverges or the fingerprint mismatches.
		other := Program(func(k kernel.Kernel, r *trace.Recorder) {
			k.Spawn("lone", func(p *kernel.Proc) { p.Yield() })
		})
		if _, _, err := good.Verify(other, oracle); err == nil ||
			!strings.Contains(err.Error(), "drifted") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("malformed-json", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "bad.sched")
		if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadSchedFile(path); err == nil {
			t.Fatal("malformed JSON accepted")
		}
	})
}
