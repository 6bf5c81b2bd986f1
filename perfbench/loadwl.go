package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/problems"
)

// Load sizes. The open loop offers one fixed Poisson rate; the closed loop
// issues a fixed op count from nproc clients with no think time, sized so
// the O(n²) overlap judge stays a bounded share of the pass.
const (
	loadRate        = 5000 // open-loop arrivals per second
	loadOpenFor     = 400 * time.Millisecond
	loadClosedOps   = 4000
	loadCalibArrive = 2000 // Poisson gaps slept through by the timer calibration
	loadCalibHist   = 20 * time.Millisecond
)

var (
	loadMechs    = []string{"monitor", "csp"} // the cheapest and the costliest per op
	loadProblems = []string{problems.NameReadersPriority, problems.NameBoundedBuffer}
)

// loadWL is the load workload: real-kernel traffic, open loop then closed
// loop, for each mechanism × problem.
type loadWL struct {
	seed int64

	// From the last set-up.
	overshootUs []float64
	harness     load.HarnessReport

	// Traced passes only.
	openWait  load.Histogram
	judgeMs   []float64
	judgeNs   int64
	closedNs  int64
	events    []float64
	jain      []float64
	openTotal load.Histogram
}

// calibrateTimer spawns one process on a RealKernel that sleeps through
// the workload's own Poisson gaps the way the open-loop generator does,
// and returns how late it woke for each intended instant, in µs.
func calibrateTimer(seed int64, n int, rate float64) ([]float64, error) {
	k := kernel.NewReal(kernel.WithWatchdog(30 * time.Second))
	defer k.Close()
	lags := make([]float64, 0, n)
	k.Spawn("timer-calibration", func(p *kernel.Proc) {
		rng := rand.New(rand.NewSource(seed))
		meanGap := 1e9 / rate
		var at int64
		for i := 0; i < n; i++ {
			at += int64(rng.ExpFloat64() * meanGap)
			if now := k.Now(); at > now {
				p.Sleep((at-now)/int64(time.Microsecond) + 1) // default tick: 1µs
			}
			lags = append(lags, float64(k.Now()-at)/1e3)
		}
	})
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("timer calibration: %w", err)
	}
	return lags, nil
}

func (w *loadWL) setup(tr *tracer) error {
	id := tr.begin("kernel.timer_calibration", 0)
	lags, err := calibrateTimer(w.seed, loadCalibArrive, loadRate)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("load.calibrate_histograms", 0)
	w.harness = load.CalibrateHistograms(loadCalibHist)
	tr.end(id)
	w.overshootUs = lags
	return nil
}

func (w *loadWL) pass(tr *tracer, _ int) passOut {
	var out passOut
	var digest strings.Builder
	total, wait := &load.Histogram{}, &load.Histogram{}
	for _, mech := range loadMechs {
		for _, problem := range loadProblems {
			open := load.Config{
				Mechanism: mech, Problem: problem, Arrival: load.ArrivalPoisson,
				RatePerSec: loadRate, Duration: loadOpenFor, Seed: w.seed,
			}
			id := tr.begin("load.run", 0)
			res, _ := w.run(open, &out)
			tr.end(id)
			if res != nil {
				for _, c := range res.Classes {
					total.Merge(c.Total)
					wait.Merge(c.Wait)
				}
				fmt.Fprintf(&digest, "open %s %s %d\n", mech, problem, res.Issued)
			}

			closed := load.Config{
				Mechanism: mech, Problem: problem, Arrival: load.ArrivalClosed,
				Clients: runtime.GOMAXPROCS(0), MaxOps: loadClosedOps, Seed: w.seed, Trace: true,
			}
			id = tr.begin("load.run", 0)
			res, wall := w.run(closed, &out)
			tr.end(id)
			if res == nil {
				continue
			}
			fmt.Fprintf(&digest, "closed %s %s %d\n", mech, problem, res.Issued)
			out.judged += res.Completed
			out.rates = append(out.rates, float64(res.Completed)/(float64(res.ElapsedNs)/1e9))
			if tr != nil {
				judge := wall - res.ElapsedNs
				w.judgeNs += judge
				w.closedNs += wall
				w.judgeMs = append(w.judgeMs, float64(judge)/1e6)
				w.events = append(w.events, float64(res.TraceEvents))
				w.jain = append(w.jain, res.JainIndex)
			}
		}
	}
	if tr != nil {
		w.openTotal.Merge(total)
		w.openWait.Merge(wait)
	}
	out.hist = total
	out.digest = digestOf(digest.String())
	return out
}

// run executes one load run, checks it, and returns it with its wall time.
func (w *loadWL) run(cfg load.Config, out *passOut) (*load.Result, int64) {
	start := time.Now()
	res, err := load.Run(cfg)
	wall := int64(time.Since(start))
	name := fmt.Sprintf("%s/%s/%s", cfg.Arrival, cfg.Mechanism, cfg.Problem)
	if err != nil {
		out.attempted++
		out.failures = append(out.failures, fmt.Sprintf("%s: %v", name, err))
		return nil, wall
	}
	out.attempted += res.Issued
	switch {
	case res.KernelErr != nil:
		out.failures = append(out.failures, fmt.Sprintf("%s: kernel error %v", name, res.KernelErr))
	case res.Completed != res.Issued:
		out.failures = append(out.failures, fmt.Sprintf("%s: %d of %d ops completed", name, res.Completed, res.Issued))
	case len(res.Violations) > 0:
		out.failures = append(out.failures, fmt.Sprintf("%s: oracle violations %v", name, res.Violations))
	case cfg.Trace && !res.Judged:
		out.failures = append(out.failures, fmt.Sprintf("%s: trace not judged", name))
	}
	return res, wall
}

func (w *loadWL) layerMetrics(_, _ *tracer, passes, _ int, m map[string]float64) {
	if v, ok := percentile(w.overshootUs, 0.5); ok {
		m["kernel.real_sleep_overshoot_us_p50"] = v
	}
	if v, ok := percentile(w.overshootUs, 0.99); ok {
		m["kernel.real_sleep_overshoot_us_p99"] = v
	}
	if v, ok := histQuantile(&w.openWait, 0.5); ok {
		m["load.wait_us_p50"] = v / 1e3
	}
	if v, ok := histQuantile(&w.openWait, 0.99); ok {
		m["load.wait_us_p99"] = v / 1e3
	}
	if v, ok := histQuantile(&w.openTotal, 0.99); ok {
		m["load.latency_us_p99"] = v / 1e3
	}
	if h := w.harness; h.SharedRecordsPerSec > 0 && h.ShardedRecordsPerSec > 0 {
		m["load.hist_record_ns_shared"] = float64(h.Cores) * 1e9 / h.SharedRecordsPerSec
		m["load.hist_record_ns_sharded"] = float64(h.Cores) * 1e9 / h.ShardedRecordsPerSec
	}
	if len(w.judgeMs) > 0 {
		m["problems.judge_ms"] = median(w.judgeMs)
		m["problems.judge_share"] = float64(w.judgeNs) / float64(w.closedNs)
		m["trace.events"] = median(w.events)
		m["load.jain"] = median(w.jain)
	}
}
