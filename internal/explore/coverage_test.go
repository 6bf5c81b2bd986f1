package explore

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/trace"
)

// randomOrder builds an order in chain form over 1 to procs processes
// and at most steps steps. A random interleaving of the steps fixes a
// topological order, and each pair of steps of different processes in it
// becomes a cross edge with probability density: 0 leaves the chains
// free, 1 makes the order total.
func randomOrder(rng *rand.Rand, procs, steps int, density float64) [][][]pred {
	order := make([][][]pred, 1+rng.Intn(procs))
	var seq []pred
	for i, n := 0, rng.Intn(steps+1); i < n; i++ {
		p := int32(rng.Intn(len(order)))
		seq = append(seq, pred{p, int32(len(order[p]))})
		order[p] = append(order[p], nil)
	}
	for j, s := range seq {
		for _, r := range seq[:j] {
			if r.proc != s.proc && rng.Float64() < density {
				order[s.proc][s.pos] = append(order[s.proc][s.pos], r)
			}
		}
	}
	return order
}

// bruteForceExtensions counts the linear extensions of order by trying
// every permutation of its steps.
func bruteForceExtensions(order [][][]pred) int {
	var steps []pred
	for p, chain := range order {
		for n := range chain {
			steps = append(steps, pred{int32(p), int32(n)})
		}
	}
	at := make([][]int, len(order)) // at[p][n]: place of step (p, n)
	for p, chain := range order {
		at[p] = make([]int, len(chain))
	}
	before := func(a, b pred) bool { return at[a.proc][a.pos] < at[b.proc][b.pos] }
	valid := func() bool {
		for _, s := range steps {
			if s.pos > 0 && !before(pred{s.proc, s.pos - 1}, s) {
				return false
			}
			for _, q := range order[s.proc][s.pos] {
				if !before(q, s) {
					return false
				}
			}
		}
		return true
	}
	used := make([]bool, len(steps))
	count := 0
	var place func(k int)
	place = func(k int) {
		if k == len(steps) {
			if valid() {
				count++
			}
			return
		}
		for i, s := range steps {
			if !used[i] {
				used[i] = true
				at[s.proc][s.pos] = k
				place(k + 1)
				used[i] = false
			}
		}
	}
	place(0)
	return count
}

// The counter is exact against brute-force enumeration on small random
// orders: free chains, fully connected orders, and everything between.
func TestCountExtensionsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		density := []float64{0, 0.15, 0.4, 1}[i%4]
		order := randomOrder(rng, 4, 8, density)
		want := bruteForceExtensions(order)
		got, exact := countExtensions(order)
		if !exact || math.Round(math.Exp2(got)) != float64(want) {
			t.Fatalf("order %v: got 2^%v (exact %v) = %v, want %d",
				order, got, exact, math.Exp2(got), want)
		}
	}
}

// maxCovStates budgets the DP states summed over components: two
// interacting pairs that each fit alone do not fit together, so the
// second is bounded and the count inexact.
func TestCountExtensionsStateBudget(t *testing.T) {
	const n = 1024 // a pair's state space is (n+1)*n
	if (n+1)*n > maxCovStates || 2*(n+1)*n <= maxCovStates {
		t.Fatalf("pairs of %d-step chains no longer straddle the budget %d", n, maxCovStates)
	}
	// Each pair alternates strictly, a total order: its count is 1, so
	// the DP neither overflows nor visits more than 2n states.
	pairs := func(k int) [][][]pred {
		order := make([][][]pred, 2*k)
		for a := int32(0); a < int32(2*k); a += 2 {
			order[a], order[a+1] = make([][]pred, n), make([][]pred, n-1)
			for i := int32(0); i < n-1; i++ {
				order[a+1][i] = []pred{{a, i}}
				order[a][i+1] = []pred{{a + 1, i}}
			}
		}
		return order
	}
	if _, exact := countExtensions(pairs(1)); !exact {
		t.Fatalf("one pair: bounded, want exact")
	}
	if _, exact := countExtensions(pairs(2)); exact {
		t.Fatalf("two pairs: exact, want the second bounded")
	}
}

// wholeOrderLog2 is the reference the decomposition replaces: one DP
// over every process as a single component. ok is false when that state
// space exceeds the cap.
func wholeOrderLog2(order [][][]pred) (log2 float64, ok bool) {
	var all []int32
	states := 1
	for p, chain := range order {
		if len(chain) > 0 {
			all = append(all, int32(p))
			if states *= len(chain) + 1; states > maxCovStates {
				return 0, false
			}
		}
	}
	return math.Log2(extensions(order, all)), true
}

// baselineRun is the search's baseline phase: prog once under FIFO,
// dependencies recorded. The executor's kernels recycle their process
// coroutines, so it is closed before returning, or every call would
// strand one suspended goroutine per process; the run's views stay
// readable after Close.
func baselineRun(prog Program) runOut {
	e := newExecutor(Options{DPOR: true}.withDefaults())
	defer e.close()
	return e.run(prog, kernel.FIFO())
}

// The per-component count agrees with the whole-order DP to 1e-12
// relative wherever that DP fits: on the T4 suite's baseline orders, on
// BenchmarkCoverage's, and on random orders of up to 6 processes and 30
// steps.
func TestCountExtensionsMatchesWholeOrderDP(t *testing.T) {
	check := func(name string, order [][][]pred) (compared bool) {
		want, ok := wholeOrderLog2(order)
		if !ok {
			return false
		}
		got, exact := countExtensions(order)
		if !exact || math.Abs(got-want) > 1e-12*math.Max(1, want) {
			t.Errorf("%s: decomposed 2^%v (exact %v), whole-order DP 2^%v", name, got, exact, want)
		}
		return true
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		order := randomOrder(rng, 6, 30, []float64{0, 0.02, 0.1}[i%3])
		check(fmt.Sprintf("random order %v", order), order)
	}

	progs := map[string]Program{}
	for _, suite := range solutions.All() {
		for _, problem := range problems.AllProblems() {
			strict := !(suite.Mechanism == "pathexpr" && problem == problems.NameReadersPriority)
			prog, _, err := solutions.StandardProgram(suite, problem, strict)
			if err != nil {
				t.Fatal(err)
			}
			progs[suite.Mechanism+"/"+problem] = prog
		}
	}
	for _, c := range coverageCases() {
		progs[c.name] = c.prog
	}
	compared := 0
	for name, prog := range progs {
		order, ok := orderOf(baselineRun(prog))
		if !ok {
			t.Fatalf("%s: no dependency records", name)
		}
		switch {
		case check(name, order):
			compared++
		case name == "clean-coverage" || name == "figure1-deep":
			// The T4 orders are one component each; these two are the
			// baseline orders of several that pin the decomposition.
			t.Errorf("%s: the whole-order DP no longer fits", name)
		}
	}
	t.Logf("compared %d of %d baseline orders", compared, len(progs))
}

// coverageCase is a scenario whose baseline order BenchmarkCoverage
// counts, with its exact linear-extension count (0: only a bound fits).
type coverageCase struct {
	name  string
	prog  Program
	count float64
}

func coverageCases() []coverageCase {
	monitor, _ := solutions.ByMechanism("monitor")
	rw := func(cfg problems.RWConfig) Program {
		return func(k kernel.Kernel, r *trace.Recorder) {
			_ = problems.SpawnRW(k, monitor.NewReadersPriority(k), r, cfg)
		}
	}
	clean := problems.RWConfig{Readers: 12, Writers: 8, Rounds: 4}
	seeded := clean
	seeded.ReadYields, seeded.WriteYields, seeded.GapYields = 1, 1, 1
	return []coverageCase{
		// 20 one-step processes, no cross edge: 20!.
		{"clean-coverage", rw(clean), factorial(20)},
		// Two free 3-step readers beside a 22-step component of the
		// third reader and both writers, whose DP count is 7884:
		// C(28,3) * C(25,3) * 7884.
		{"figure1-deep", deepFigure1Program(), 3276 * 2300 * 7884},
		{"seeded-clean", rw(seeded), 0},
	}
}

// factorial is n! rounded once to float64, from an exact big integer.
func factorial(n int64) float64 {
	f, _ := new(big.Float).SetInt(new(big.Int).MulRange(1, n)).Float64()
	return f
}

// The whole pipeline, extraction included, reports each benchmark
// order's known count.
func TestCoverageCases(t *testing.T) {
	for _, c := range coverageCases() {
		log2, exact := coverageOf(baselineRun(c.prog))
		if exact != (c.count > 0) || exact && math.Abs(log2-math.Log2(c.count)) > 1e-12*log2 {
			t.Errorf("%s: 2^%v (exact %v), want count %v", c.name, log2, exact, c.count)
		}
	}
}

// covRounds is how many times one BenchmarkCoverage op counts each of
// its orders. At 100 rounds (~11 ms) single-op rates (-benchtime=1x, as
// the CI gate runs) spread 2.8x, as an op caught a garbage collection
// or not; at 500 (~55 ms on a 2.1 GHz Xeon) they stay within ~10%.
const covRounds = 500

// covSink keeps BenchmarkCoverage's counts live.
var covSink float64

// BenchmarkCoverage times the schedule-space counter on three captured
// baseline runs: hunt's clean-coverage scenario (monitor readers
// priority, 12 readers, 8 writers, 4 rounds: 20 one-step processes and no
// cross edge, the multinomial alone), the deep Figure-1 hunt (two free
// readers beside one component of a reader and both writers, exact by
// DP), and a seeded clean scenario with one yield per body and gap (one
// component past the state budget: the bound). counts/sec is coverage
// counts per second, extraction of the order included.
func BenchmarkCoverage(b *testing.B) {
	var outs []runOut
	for _, c := range coverageCases() {
		out := baselineRun(c.prog)
		if out.err != nil {
			b.Fatalf("%s: %v", c.name, out.err)
		}
		if _, exact := coverageOf(out); exact != (c.count > 0) {
			b.Fatalf("%s: exact = %v, want %v", c.name, exact, c.count > 0)
		}
		outs = append(outs, out)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < covRounds; r++ {
			for _, out := range outs {
				log2, _ := coverageOf(out)
				covSink += log2
			}
		}
	}
	b.ReportMetric(float64(b.N*covRounds*len(outs))/b.Elapsed().Seconds(), "counts/sec")
}
