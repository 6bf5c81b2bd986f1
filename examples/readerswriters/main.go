// Readers–writers across all six mechanisms — the paper's central
// example, live.
//
// The program runs the footnote-3 scenario (a writer holds the database
// while a reader and then a second writer arrive) against every
// mechanism's readers-priority solution and reports which admit the
// second writer past the waiting reader. The published Figure-1
// path-expression solution is the one that misbehaves — the paper's
// anomaly, reproduced on demand.
//
// Run with:
//
//	go run ./examples/readerswriters
package main

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/trace"
)

func main() {
	fmt.Println("The footnote-3 scenario: writer1 is writing; a reader arrives, then writer2.")
	fmt.Println("Readers-priority demands the reader be admitted before writer2.")
	fmt.Println()

	for _, suite := range solutions.All() {
		suite := suite
		prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
			eval.FigureScenario(suite.NewReadersPriority(k))(k, r)
		})
		res := explore.Run(prog, problems.CheckReadersPriority,
			explore.Options{RandomRuns: 200, DFSRuns: 400})
		verdict := "readers-priority preserved"
		if res.Found {
			verdict = "ANOMALY: writer2 overtook the waiting reader"
		}
		fmt.Printf("  %-12s %-45s (%d schedules explored)\n", suite.Mechanism, verdict, res.Runs)
	}

	fmt.Println()
	fmt.Println("The pathexpr row is the paper's Figure 1; its violating history:")
	f1 := eval.RunFigure1(explore.Options{})
	if f1.AnomalyFound {
		for _, e := range f1.Trace {
			fmt.Println("   " + e.String())
		}
		for _, v := range f1.Violations {
			fmt.Println("   -> " + v.String())
		}
	} else {
		fmt.Println("   (not reproduced this run)")
	}
}
