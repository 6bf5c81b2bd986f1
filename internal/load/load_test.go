package load

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/solutions"
)

// testConfig is a small, fast run: op-count bounded, traced, judged.
func testConfig(mech, problem string, arrival ArrivalKind) Config {
	return Config{
		Mechanism:  mech,
		Problem:    problem,
		Arrival:    arrival,
		RatePerSec: 20_000,
		Clients:    4,
		ThinkTicks: 20,
		MaxOps:     60,
		WorkYields: 2,
		Watchdog:   30 * time.Second,
		Trace:      true,
	}
}

// The acceptance matrix: every mechanism × the canonical problem trio,
// under one open-loop and one closed-loop model, on the real kernel,
// with the recorded trace judged clean by the problem oracle.
func TestLoadMatrix(t *testing.T) {
	for _, s := range solutions.All() {
		for _, problem := range DefaultProblems() {
			for _, arrival := range []ArrivalKind{ArrivalPoisson, ArrivalClosed} {
				s, problem, arrival := s, problem, arrival
				t.Run(s.Mechanism+"/"+problem+"/"+arrival.String(), func(t *testing.T) {
					t.Parallel()
					res, err := Run(testConfig(s.Mechanism, problem, arrival))
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					if res.KernelErr != nil {
						t.Fatalf("kernel error: %v", res.KernelErr)
					}
					if res.Completed == 0 || res.Completed != res.Issued {
						t.Fatalf("completed %d of %d issued", res.Completed, res.Issued)
					}
					if !res.Judged {
						t.Fatal("run was not judged despite Trace: true")
					}
					if len(res.Violations) != 0 {
						t.Fatalf("oracle violations: %v", res.Violations)
					}
					// Each operation records request/enter/exit.
					if want := 3 * int(res.Completed); res.TraceEvents != want {
						t.Fatalf("trace has %d events, want %d", res.TraceEvents, want)
					}
					if res.ElapsedNs <= 0 || res.Throughput() <= 0 {
						t.Fatalf("elapsed=%dns throughput=%v", res.ElapsedNs, res.Throughput())
					}
					for _, c := range res.Classes {
						if c.Completed > 0 && c.Total.Count() != c.Completed {
							t.Fatalf("class %s: total histogram %d vs completed %d",
								c.Name, c.Total.Count(), c.Completed)
						}
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

// The remaining open-loop models, smoke-tested on one pairing each.
func TestLoadUniformAndBurst(t *testing.T) {
	for _, arrival := range []ArrivalKind{ArrivalUniform, ArrivalBurst} {
		cfg := testConfig("monitor", "bounded-buffer", arrival)
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

// A closed-loop RW run must report both classes and a meaningful Jain
// index over its identical clients.
func TestLoadClosedLoopFairness(t *testing.T) {
	cfg := testConfig("semaphore", "readers-priority", ArrivalClosed)
	cfg.MaxOps = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("kernelErr=%v violations=%v", res.KernelErr, res.Violations)
	}
	if len(res.Classes) != 2 {
		t.Fatalf("classes = %d, want read+write", len(res.Classes))
	}
	if len(res.ClientCompleted) != cfg.Clients {
		t.Fatalf("client counts = %d, want %d", len(res.ClientCompleted), cfg.Clients)
	}
	if res.JainIndex <= 0 || res.JainIndex > 1.0000001 {
		t.Fatalf("jain = %v outside (0,1]", res.JainIndex)
	}
	var reads int64
	for _, c := range res.Classes {
		if c.Name == "read" {
			reads = c.Completed
		}
	}
	if reads == 0 {
		t.Fatal("0.9 read fraction produced no reads")
	}
}

// A duration-bounded run must stop issuing at the deadline and drain.
func TestLoadDurationBounded(t *testing.T) {
	cfg := testConfig("monitor", "fcfs", ArrivalPoisson)
	cfg.MaxOps = 0
	cfg.Duration = 50 * time.Millisecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() || res.Completed == 0 || res.Completed != res.Issued {
		t.Fatalf("kernelErr=%v completed=%d/%d", res.KernelErr, res.Completed, res.Issued)
	}
}

// TestOpenLoopArrivalsOnTime pins the generator's punctuality: under
// Poisson 5000/s the median arrival is spawned within 150µs of its
// intended instant. A generator waiting on runtime timers alone wakes
// about half a millisecond late, since an idle process's timers round
// short waits up to a millisecond. Every arrival's lag is recorded. A
// busy host can delay one run, so the best of three runs counts; late
// timers miss in every one.
func TestOpenLoopArrivalsOnTime(t *testing.T) {
	const bound = 150 * time.Microsecond
	var p50s []time.Duration
	for range 3 {
		res, err := Run(Config{
			Mechanism: "monitor", Problem: "readers-priority", Arrival: ArrivalPoisson,
			RatePerSec: 5000, Duration: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() || res.Issued == 0 || res.Completed != res.Issued {
			t.Fatalf("kernelErr=%v completed=%d/%d", res.KernelErr, res.Completed, res.Issued)
		}
		if res.Lag == nil || res.Lag.Count() != res.Issued {
			t.Fatalf("lag histogram holds %v observations for %d arrivals", res.Lag, res.Issued)
		}
		p50 := time.Duration(res.Lag.Quantile(0.5))
		t.Logf("%d arrivals, lag p50 %v p99 %v", res.Issued, p50, time.Duration(res.Lag.Quantile(0.99)))
		if p50 < bound {
			return
		}
		p50s = append(p50s, p50)
	}
	t.Fatalf("arrival lag p50 %v in three runs, want one under %v", p50s, bound)
}

func TestLoadConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"mechanism", Config{Mechanism: "mutex", Problem: "fcfs"}, "unknown mechanism"},
		{"problem", Config{Mechanism: "monitor", Problem: "disk-scheduler"}, "not load-generable"},
		{"fraction", Config{Mechanism: "monitor", Problem: "fcfs", ReadFraction: 1.5}, "read fraction"},
		{"burst", Config{Mechanism: "monitor", Problem: "fcfs", Arrival: ArrivalBurst, BurstSize: 1}, "burst size"},
	}
	for _, tc := range cases {
		_, err := Run(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// A run over a daemon-backed solution (CSP spawns server daemons) must
// not leak goroutines once Close has unwound them.
func TestLoadReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		cfg := testConfig("csp", "bounded-buffer", ArrivalPoisson)
		cfg.Trace = false
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines grew from %d to %d after runs closed", base, n)
	}
}
