package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/eval"
	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/trace"
)

// Hunt sizes. The deep Figure-1 hunt and the footnote-3 scenarios are
// fixed by the paper; the seeded clean scenarios give the oracles long
// traces and the verdict-time percentiles their samples.
const (
	huntBudget      = 600 // DFS schedules per paper scenario (simtrace's -explore budget)
	huntCleanCells  = 12  // seeded clean scenarios per pass
	huntCleanBudget = 150 // DFS schedules per clean scenario
)

// huntClean is the deep clean scenario. Without yields its happens-before
// order is small enough for the exact coverage DP, which then dominates
// the cell. The seeded variants keep its population of 20 processes but
// change the reader/writer mix, and add one yield to every body and gap,
// so their coverage falls back to the bound and DFS dominates instead.
var huntClean = problems.RWConfig{Readers: 12, Writers: 8, Rounds: 4}

// want is a hunt cell's known answer.
type want int

const (
	wantFinding want = iota // a priority violation (no kernel error)
	wantClean               // no finding within the budget
	wantExhaust             // no finding, frontier exhausted, ExploredFraction 1
)

func (w want) String() string {
	return [...]string{"finding", "clean", "exhausted"}[w]
}

type huntCell struct {
	cell
	want want
}

// check compares a result with the cell's known answer.
func (h huntCell) check(res explore.Result) error {
	switch {
	case h.want == wantFinding && !(res.Found && res.Err == nil && len(res.Violations) > 0):
		return fmt.Errorf("%s: want a priority violation, got found=%v err=%v after %d schedules", h.name, res.Found, res.Err, res.Runs)
	case h.want != wantFinding && res.Found:
		return fmt.Errorf("%s: want %s, got a finding after %d schedules (err=%v violations=%v)", h.name, h.want, res.Runs, res.Err, res.Violations)
	case h.want == wantExhaust && !(res.Stats.Exhausted && res.Stats.ExploredFraction == 1):
		return fmt.Errorf("%s: want the frontier exhausted with explored fraction 1, got exhausted=%v fraction=%v after %d schedules",
			h.name, res.Stats.Exhausted, res.Stats.ExploredFraction, res.Runs)
	}
	return nil
}

// huntWL is the hunt workload: the paper's claims at scale, DFS-only.
type huntWL struct {
	seed  int64
	cells []huntCell
	acc   exploreAcc // traced passes only
}

// rwCell builds a readers/writers hunt cell on the given solution: spawn
// builds the scenario, problem picks the priority oracle and its stream.
func rwCell(name, mech, problem string, spawn func(db problems.RWStore, k kernel.Kernel, r *trace.Recorder), budget int, w want) (huntCell, error) {
	suite, ok := solutions.ByMechanism(mech)
	if !ok {
		return huntCell{}, fmt.Errorf("no %s solutions", mech)
	}
	inc, ok := problems.IncrementalOracleFor(problem)
	if !ok {
		return huntCell{}, fmt.Errorf("no streaming oracle for %s", problem)
	}
	newStore := suite.NewReadersPriority
	if problem == problems.NameWritersPriority {
		newStore = suite.NewWritersPriority
	}
	prog := func(k kernel.Kernel, r *trace.Recorder) { spawn(newStore(k), k, r) }
	return huntCell{
		cell: cell{name: name, layer: "solutions", prog: prog, oracle: inc.Check, stream: inc.New, opts: huntOptions(budget)},
		want: w,
	}, nil
}

func figure(db problems.RWStore, k kernel.Kernel, r *trace.Recorder) { eval.FigureScenario(db)(k, r) }

func spawnRW(cfg problems.RWConfig) func(problems.RWStore, kernel.Kernel, *trace.Recorder) {
	return func(db problems.RWStore, k kernel.Kernel, r *trace.Recorder) { _ = problems.SpawnRW(k, db, r, cfg) }
}

type huntSpec struct {
	name, mech, problem string
	spawn               func(problems.RWStore, kernel.Kernel, *trace.Recorder)
	budget              int
	want                want
}

// huntCells lists the hunt's cells with their known answers.
func huntCells(seed int64) ([]huntCell, error) {
	rp, wp := problems.NameReadersPriority, problems.NameWritersPriority
	deep := problems.RWConfig{Readers: 3, Writers: 2, Rounds: 1, WriteYields: 6, ReadYields: 1, GapYields: 1}
	specs := []huntSpec{
		// Figure 1: the path-expression readers-priority solution lets a
		// second writer overtake a waiting reader (footnote 3), here in a
		// deep scenario whose schedule space is ~2^36.
		{"figure1-deep/pathexpr", "pathexpr", rp, spawnRW(deep), huntBudget, wantFinding},
		// The monitor and serializer solutions have no such anomaly; the
		// monitor's schedule space is small enough to exhaust.
		{"footnote3/monitor", "monitor", rp, figure, huntBudget, wantExhaust},
		{"footnote3/serializer", "serializer", rp, figure, huntBudget, wantClean},
		// Figure 2 holds writers priority under the same arrival pattern.
		{"figure2/pathexpr", "pathexpr", wp, figure, huntBudget, wantClean},
	}
	specs = append(specs, huntSpec{"clean-coverage/monitor", "monitor", rp, spawnRW(huntClean), huntCleanBudget, wantClean})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < huntCleanCells; i++ {
		cfg := huntClean
		shift := rng.Intn(5) - 2 // same population, another reader/writer mix
		cfg.Readers += shift
		cfg.Writers -= shift
		cfg.ReadYields, cfg.WriteYields, cfg.GapYields = 1, 1, 1
		name := fmt.Sprintf("clean-%d-%d-%d/monitor", cfg.Readers, cfg.Writers, cfg.Rounds)
		specs = append(specs, huntSpec{name, "monitor", rp, spawnRW(cfg), huntCleanBudget, wantClean})
	}
	var cells []huntCell
	for _, s := range specs {
		c, err := rwCell(s.name, s.mech, s.problem, s.spawn, s.budget, s.want)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// setup builds the cells and primes each program with one FIFO run, which
// checks that every generated scenario runs to completion.
func (w *huntWL) setup(tr *tracer) error {
	cells, err := huntCells(w.seed)
	if err != nil {
		return err
	}
	for _, c := range cells {
		id := tr.begin("explore.replay", 0)
		_, err := explore.Replay(c.prog, nil, 0)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: FIFO run: %w", c.name, err)
		}
	}
	w.cells = cells
	return nil
}

func (w *huntWL) pass(tr *tracer, workers int) passOut {
	acc := &exploreAcc{}
	if tr != nil {
		acc = &w.acc
	}
	return runHunt(w.cells, workers, tr, acc)
}

// runHunt explores every cell and checks it against its known answer.
func runHunt(cells []huntCell, workers int, tr *tracer, acc *exploreAcc) passOut {
	var out passOut
	var digest strings.Builder
	for _, c := range cells {
		res, ms := runCell(c.cell, workers, tr, acc)
		out.addVerdict(res, ms)
		fmt.Fprintf(&digest, "%s %v %d %d %v\n", c.name, res.Found, res.Runs, len(finalSchedule(res)), res.Stats.Exhausted)
		if err := c.check(res); err != nil {
			out.failures = append(out.failures, err.Error())
			continue
		}
		if res.Found {
			if err := sealAndVerify(c.cell, res, tr, acc); err != nil {
				out.failures = append(out.failures, err.Error())
			}
		}
	}
	out.digest = digestOf(digest.String())
	return out
}

func (w *huntWL) layerMetrics(tr, _ *tracer, passes, _ int, m map[string]float64) {
	exploreLayerMetrics(tr, &w.acc, passes, m)
}
