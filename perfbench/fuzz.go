package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/synth"
)

// fuzzProblems is the corpus size: enough that the naive-gate control
// fails somewhere in every corpus (about one problem in fifteen makes it
// fail), and enough cells that the per-pass totals average out the
// problem-to-problem differences between seeds.
const fuzzProblems = 100

// fuzzWL is the fuzz workload: a seeded synth.Generate corpus × every
// synth.Mechanisms() entry, explored with the syncfuzz options.
type fuzzWL struct {
	seed  int64
	cells []cell     // per problem, one per mechanism that can express it
	acc   exploreAcc // traced passes only
}

// problemSeed is syncfuzz's corpus numbering: problem i of base seed s is
// synth.Generate(s + i).
func (w *fuzzWL) problemSeed(i int) int64 { return w.seed + int64(i) }

func (w *fuzzWL) setup(tr *tracer) error {
	w.cells = w.cells[:0]
	for i := 0; i < fuzzProblems; i++ {
		pseed := w.problemSeed(i)
		id := tr.begin("synth.generate", 0)
		set := synth.Generate(pseed)
		tr.end(id)
		for _, mech := range synth.Mechanisms() {
			if synth.Supports(mech, set) != nil {
				continue // pathexpr cannot express this shape
			}
			id := tr.begin("synth.program_build", 0)
			prog, oracle, err := synth.Program(set, mech)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("synth %d/%s: %w", pseed, mech, err)
			}
			w.cells = append(w.cells, cell{
				name:   fmt.Sprintf("synth/%d/%s", pseed, mech),
				layer:  "synth",
				prog:   prog,
				oracle: oracle,
				opts:   fuzzOptions(),
			})
		}
	}
	return nil
}

// fuzzStatus is syncfuzz's verdict vocabulary.
func fuzzStatus(res explore.Result) string {
	switch {
	case !res.Found:
		return "pass"
	case res.Err != nil && errors.Is(res.Err, kernel.ErrDeadlock):
		return "deadlock"
	case res.Err != nil:
		return "error"
	}
	return "fail"
}

func mechOf(c cell) string { return c.name[strings.LastIndex(c.name, "/")+1:] }

// pass explores every cell and checks the known answers: every finding
// seals and re-verifies, no real mechanism violates its oracle or fails
// with a kernel error other than deadlock, and the naive-gate control
// fails somewhere. Deadlocks are not compared across mechanisms: a
// deadlock can be specific to one mechanism (the serializer's head-only
// eligibility, documented in package synth), and a budgeted search can
// miss one that a larger budget finds.
func (w *fuzzWL) pass(tr *tracer, workers int) passOut {
	acc := &exploreAcc{}
	if tr != nil {
		acc = &w.acc
	}
	var out passOut
	var digest strings.Builder
	naiveFails := 0
	for _, c := range w.cells {
		res, ms := runCell(c, workers, tr, acc)
		out.addVerdict(res, ms)
		status := fuzzStatus(res)
		fmt.Fprintf(&digest, "%s %s %d %d\n", c.name, status, res.Runs, len(finalSchedule(res)))
		if res.Found {
			if err := sealAndVerify(c, res, tr, acc); err != nil {
				out.failures = append(out.failures, err.Error())
			}
		}
		switch {
		case mechOf(c) == synth.NaiveGate:
			if status == "fail" {
				naiveFails++
			}
		case status == "fail" || status == "error":
			out.failures = append(out.failures, fmt.Sprintf("%s: real mechanism returned %s", c.name, status))
		}
	}
	if naiveFails == 0 {
		out.failures = append(out.failures, "naive-gate control never failed: the corpus has no power")
	}
	out.digest = digestOf(digest.String())
	return out
}

func (w *fuzzWL) layerMetrics(tr, setupTr *tracer, passes, setups int, m map[string]float64) {
	exploreLayerMetrics(tr, &w.acc, passes, m)
	var genNs int64
	for _, s := range setupTr.closed() {
		if s.name == "synth.generate" {
			genNs += s.end - s.start
		}
	}
	m["synth.generate_ms"] = float64(genNs) / 1e6 / float64(setups)
}
