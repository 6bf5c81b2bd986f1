package load

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/solutions"
)

// TestGeneratorClampsAtDeadline drives the open-loop generator against a
// stub workload that records every intended arrival instant: no arrival
// may be issued past the deadline (the old code clamped only at cycle
// start, so the tail of a straddling cycle leaked past it), balanced
// cycles stay whole, and the offered schedule is deterministic per seed.
func TestGeneratorClampsAtDeadline(t *testing.T) {
	const d = 20 * time.Millisecond
	run := func() []int64 {
		cfg := Config{
			Mechanism:  "semaphore",
			Problem:    "bounded-buffer",
			Arrival:    ArrivalUniform,
			RatePerSec: 100_000,
			Duration:   d,
			Seed:       7,
		}
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		k := kernel.NewReal(kernel.WithTick(kernelTick), kernel.WithWatchdog(30*time.Second))
		defer k.Close()
		var mu sync.Mutex
		var ats []int64
		mk := func(name string) *class {
			c := newClass(name, 0.5)
			c.do = func(p *kernel.Proc, at, seq int64) {
				mu.Lock()
				ats = append(ats, at)
				mu.Unlock()
			}
			return c
		}
		w := &workload{classes: []*class{mk("a"), mk("b")}, balanced: true}
		eng := &engine{cfg: &cfg, k: k, w: w}
		eng.budget.Store(math.MaxInt64)
		eng.deadlineNs = cfg.Duration.Nanoseconds()
		eng.spawnGenerator()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
		return ats
	}
	ats := run()
	if len(ats) == 0 {
		t.Fatal("generator issued nothing")
	}
	if len(ats)%2 != 0 {
		t.Errorf("balanced workload issued %d arrivals (odd): a cycle was split", len(ats))
	}
	for _, at := range ats {
		if at > d.Nanoseconds() {
			t.Fatalf("arrival at %dns past deadline %dns", at, d.Nanoseconds())
		}
	}
	if again := run(); fmt.Sprint(again) != fmt.Sprint(ats) {
		t.Error("intended arrival schedule differs between identically-seeded runs")
	}
}

// Budget exactness, open loop: a MaxOps not divisible by the cycle size
// rounds down for balanced workloads (61 → 60, split 30/30), stays exact
// for single-class workloads (61 → 61) — and in both cases the batched
// claim's refund-and-stop makes issued equal the effective cap exactly,
// where the old exhaustion path silently swallowed the remainder.
func TestBudgetExactOpenLoop(t *testing.T) {
	testBudgetExact(t, ArrivalPoisson)
}

// Budget exactness, closed loop: Clients concurrent claimants refund what
// they cannot cover, so the population-wide issued total still matches.
func TestBudgetExactClosedLoop(t *testing.T) {
	testBudgetExact(t, ArrivalClosed)
}

func testBudgetExact(t *testing.T, arrival ArrivalKind) {
	cases := []struct {
		problem  string
		maxOps   int64
		want     int64
		perClass []int64
	}{
		{"bounded-buffer", 61, 60, []int64{30, 30}},
		{"fcfs", 61, 61, []int64{61}},
	}
	for _, tc := range cases {
		t.Run(tc.problem, func(t *testing.T) {
			cfg := testConfig("semaphore", tc.problem, arrival)
			cfg.Trace = false
			cfg.MaxOps = tc.maxOps
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Fatalf("kernelErr=%v violations=%v", res.KernelErr, res.Violations)
			}
			if res.Issued != tc.want || res.Completed != tc.want {
				t.Fatalf("issued=%d completed=%d, want exactly %d", res.Issued, res.Completed, tc.want)
			}
			for i, c := range res.Classes {
				if c.Issued != tc.perClass[i] {
					t.Errorf("class %s issued %d, want %d", c.Name, c.Issued, tc.perClass[i])
				}
			}
		})
	}
}

// TestSoakSnapshots: a soak run streams incremental results whose
// histograms are consistent merged copies — every snapshot passes the same
// report validation as a final report, sequence numbers increase,
// completion counts are monotone, and a non-empty class never reports a
// zero quantile mid-run.
func TestSoakSnapshots(t *testing.T) {
	cfg := testConfig("monitor", "bounded-buffer", ArrivalPoisson)
	cfg.Trace = false
	cfg.MaxOps = 0
	cfg.Duration = 300 * time.Millisecond
	cfg.RatePerSec = 50_000
	cfg.SnapshotEvery = 50 * time.Millisecond
	var snaps []*Result
	cfg.OnSnapshot = func(r *Result) { snaps = append(snaps, r) }
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() || res.Completed == 0 {
		t.Fatalf("kernelErr=%v completed=%d", res.KernelErr, res.Completed)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots delivered over a 300ms run at 50ms intervals")
	}
	lastSeq, lastCompleted := 0, int64(0)
	for i, s := range snaps {
		if s.SnapshotSeq <= lastSeq {
			t.Fatalf("snapshot %d: seq %d not increasing past %d", i, s.SnapshotSeq, lastSeq)
		}
		lastSeq = s.SnapshotSeq
		if s.Completed < lastCompleted {
			t.Fatalf("snapshot %d: completed %d regressed below %d", i, s.Completed, lastCompleted)
		}
		lastCompleted = s.Completed
		rep := NewReport()
		rep.Runs = append(rep.Runs, s.Report())
		if err := rep.Validate(); err != nil {
			t.Fatalf("snapshot %d fails report validation: %v", i, err)
		}
		if rep.Runs[0].SnapshotSeq != s.SnapshotSeq {
			t.Fatalf("snapshot %d: report seq %d != result seq %d", i, rep.Runs[0].SnapshotSeq, s.SnapshotSeq)
		}
		for _, c := range s.Classes {
			if c.Total.Count() > 0 && c.Total.Quantile(0.99) == 0 && c.Total.Max() > 0 {
				t.Fatalf("snapshot %d class %s: Count=%d Max=%d but q99=0",
					i, c.Name, c.Total.Count(), c.Total.Max())
			}
		}
	}
	if res.SnapshotSeq != 0 {
		t.Fatalf("final result has snapshot seq %d, want 0", res.SnapshotSeq)
	}
}

// TestGeneratorSustainsBatchedArrivals: the batched-budget generator
// issues the full cap exactly at a high offered rate. The default size
// keeps CI fast; LOAD_MILLION=1 scales the same run to the acceptance
// tier's 10^6 arrivals.
func TestGeneratorSustainsBatchedArrivals(t *testing.T) {
	var ops int64 = 30_000
	if os.Getenv("LOAD_MILLION") == "1" {
		ops = 1_000_000
	} else if testing.Short() {
		ops = 5_000
	}
	cfg := Config{
		Mechanism:  "semaphore-fast",
		Problem:    "fcfs",
		Arrival:    ArrivalPoisson,
		RatePerSec: 1_000_000,
		MaxOps:     ops,
		Watchdog:   5 * time.Minute,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("kernelErr=%v violations=%v", res.KernelErr, res.Violations)
	}
	if res.Issued != ops || res.Completed != ops {
		t.Fatalf("issued=%d completed=%d, want %d", res.Issued, res.Completed, ops)
	}
	if res.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
}

// The scalable-variant suites run through the same load matrix as the six
// historical mechanisms: canonical problems, one open and one closed
// model, real kernel, oracle-judged traces.
func TestLoadVariantsMatrix(t *testing.T) {
	for _, s := range solutions.Variants() {
		for _, problem := range DefaultProblems() {
			for _, arrival := range []ArrivalKind{ArrivalPoisson, ArrivalClosed} {
				s, problem, arrival := s, problem, arrival
				t.Run(s.Mechanism+"/"+problem+"/"+arrival.String(), func(t *testing.T) {
					t.Parallel()
					res, err := Run(testConfig(s.Mechanism, problem, arrival))
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if res.Failed() {
						t.Fatalf("kernelErr=%v violations=%v", res.KernelErr, res.Violations)
					}
					if res.Completed == 0 || res.Completed != res.Issued {
						t.Fatalf("completed %d of %d issued", res.Completed, res.Issued)
					}
					rep := NewReport()
					rep.Runs = append(rep.Runs, res.Report())
					if err := rep.Validate(); err != nil {
						t.Fatalf("report invalid: %v", err)
					}
				})
			}
		}
	}
}

// The new open-loop traffic models, smoke-tested like uniform/burst.
func TestLoadDiurnalAndPareto(t *testing.T) {
	for _, arrival := range []ArrivalKind{ArrivalDiurnal, ArrivalPareto} {
		cfg := testConfig("monitor", "bounded-buffer", arrival)
		cfg.DiurnalPeriod = 10 * time.Millisecond // several full cycles per run
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", arrival, err)
		}
		if res.Failed() || res.Completed != res.Issued {
			t.Fatalf("%v: kernelErr=%v violations=%v completed=%d/%d",
				arrival, res.KernelErr, res.Violations, res.Completed, res.Issued)
		}
	}
}
