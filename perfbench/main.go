// Command perfbench is the repository's benchmark: one workload of the
// evaluation engine per run, every output checked against a known answer,
// every metric printed by name with its unit.
//
//	bash perfbench/run.sh --workload fuzz --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//   - fuzz: a seeded synth corpus × every mechanism, explored with the
//     syncfuzz options. Many short runs on short traces.
//   - hunt: the paper's claims at scale, DFS-only, on long traces.
//   - load: real-kernel traffic, open loop then closed loop.
//
// A run sets up at least five times and for at least a second (the
// median is setup_s), makes one unmeasured warm-up pass, then repeats whole passes of the workload until
// --seconds have passed and every reported percentile has at least ten
// samples beyond it. With --trace 0 it prints the end-to-end metrics. With
// --trace 1 it alternates untraced and traced passes and prints the
// per-layer metrics from the traced ones, their overhead, and writes the
// spans to .bench_build/spans/.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 0 when every
// check passed, 1 when one failed, and 2 on a usage error.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/load"
)

type metricDef struct{ name, unit, better string }

// End-to-end metrics: every workload reports each of them. On fuzz and
// hunt, throughput is schedules judged per second of explore.Run time and
// latency is the time of one explore.Run verdict; on load, throughput is
// closed-loop ops per second of kernel-clock time and latency is the
// open-loop op latency from its intended arrival.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},       // median wall time of one pass
	{"setup_s", "s", "lower"},      // median set-up time
	{"peak_rss_mb", "MB", "lower"}, // peak resident set of the process
	{"throughput_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"judged_per_pass", "count", "lower"}, // schedules (fuzz, hunt) or closed-loop ops (load) judged per pass
}

// Per-layer metrics from the traced run, per traced pass unless the name
// says otherwise. A metric a workload does not exercise reads 0 there.
// explore.run_self_us is phase time not covered by Program or batch-oracle
// spans, less streaming-oracle time, per schedule executed;
// explore.phase_cover_frac is phase time over explore.Run time;
// problems.judge_ms is load.Run wall time minus its kernel-clock traffic
// time; overhead.* is the traced minus the untraced median pass time.
var perLayer = []metricDef{
	{"explore.run_self_us", "us", "lower"},
	{"explore.alloc_bytes_per_schedule", "B", "lower"},
	{"explore.pool_reuse_frac", "ratio", "higher"},
	{"explore.phase_ms.baseline", "ms", "lower"},
	{"explore.phase_ms.random", "ms", "lower"},
	{"explore.phase_ms.dfs", "ms", "lower"},
	{"explore.phase_ms.shrink", "ms", "lower"},
	{"explore.phase_cover_frac", "ratio", "higher"},
	{"explore.checkpoint_forks", "count", "higher"},
	{"explore.checkpoint_saved_frac", "ratio", "higher"},
	{"explore.backtrack_points", "count", "lower"},
	{"explore.dpor_blocked_frac", "ratio", "higher"},
	{"explore.pruned", "count", "higher"},
	{"explore.exhausted_frac", "ratio", "higher"},
	{"explore.coverage_exact_frac", "ratio", "higher"},
	{"explore.shrink_runs", "count", "lower"},
	{"explore.min_schedule_len", "count", "lower"},
	{"explore.seal_ms", "ms", "lower"},
	{"solutions.program_us", "us", "lower"},
	{"synth.program_us", "us", "lower"},
	{"synth.generate_ms", "ms", "lower"},
	{"problems.oracle_calls", "count", "lower"},
	{"problems.oracle_us_per_call", "us", "lower"},
	{"problems.stream_ms", "ms", "lower"},
	{"problems.judge_ms", "ms", "lower"},
	{"problems.judge_share", "ratio", "lower"},
	{"trace.events_per_run", "count", "lower"},
	{"trace.events", "count", "lower"},
	{"kernel.real_sleep_overshoot_us_p50", "us", "lower"},
	{"kernel.real_sleep_overshoot_us_p99", "us", "lower"},
	{"load.wait_us_p50", "us", "lower"},
	{"load.wait_us_p99", "us", "lower"},
	{"load.latency_us_p99", "us", "lower"},
	{"load.hist_record_ns_shared", "ns", "lower"},
	{"load.hist_record_ns_sharded", "ns", "lower"},
	{"load.jain", "ratio", "higher"},
	{"explore.busy_ms", "ms", "lower"},
	{"explore.self_ms", "ms", "lower"},
	{"problems.busy_ms", "ms", "lower"},
	{"solutions.busy_ms", "ms", "lower"},
	{"synth.busy_ms", "ms", "lower"},
	{"load.busy_ms", "ms", "lower"},
	{"overhead.wall_s", "s", "lower"},
	{"overhead.frac", "ratio", "lower"},
}

// Set-up repeats at least minSetups times and for at least setupFor, so a
// set-up of a few milliseconds still gets a steady median.
const (
	minSetups = 5
	maxSetups = 200
	setupFor  = time.Second
)

// passOut is one pass of a workload.
type passOut struct {
	wallNs    int64
	cpuNs     int64
	samplesMs []float64       // verdict times (fuzz, hunt)
	hist      *load.Histogram // open-loop op latency in ns (load)
	judged    int64
	done      float64   // schedules judged (fuzz, hunt)
	busyS     float64   // seconds spent judging them
	rates     []float64 // per-configuration throughput (load); default done/busyS
	attempted int64
	failures  []string
	digest    string
}

type workload interface {
	setup(tr *tracer) error
	pass(tr *tracer, workers int) passOut
	layerMetrics(tr, setupTr *tracer, passes, setups int, m map[string]float64)
}

// newWorkload returns the named workload, nil for an unknown name.
func newWorkload(name string, seed int64) workload {
	switch name {
	case "fuzz":
		return &fuzzWL{seed: seed}
	case "hunt":
		return &huntWL{seed: seed}
	case "load":
		return &loadWL{seed: seed}
	}
	return nil
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fuzz, hunt or load")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measure whole passes for at least this long")
	traced := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := newWorkload(*name, *seed)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want fuzz, hunt or load)\n", *name)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0))

	b := &bench{w: w, name: *name, seed: *seed, out: stdout}
	metrics, err := b.measure(time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	res := result{Correct: len(b.failures) == 0, Attempted: b.attempted, Failed: int64(len(b.failures)), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is %v\n", d.name, v)
			return 1
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, f := range b.failures {
		fmt.Fprintf(stdout, "FAILED: %s\n", f)
	}
	fmt.Fprintf(stdout, "error_rate %.6g (%d failed of %d attempted)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench drives one run of one workload.
type bench struct {
	w         workload
	name      string
	seed      int64
	out       io.Writer
	attempted int64
	failures  []string
	refDigest string
	refJudged int64
}

// record adds a pass's checks to the run and compares its deterministic
// outputs with the warm-up pass.
func (b *bench) record(label string, p passOut) {
	b.attempted += p.attempted
	b.failures = append(b.failures, p.failures...)
	if b.refDigest == "" {
		b.refDigest, b.refJudged = p.digest, p.judged
	} else if p.digest != b.refDigest || p.judged != b.refJudged {
		b.failures = append(b.failures, fmt.Sprintf("%s pass is not deterministic: digest %s judged %d, warm-up %s judged %d",
			label, p.digest, p.judged, b.refDigest, b.refJudged))
	}
	fmt.Fprintf(b.out, "pass %-10s wall %8.3fs  cpu %8.3fs  judged %8d  digest %s  failures %d\n",
		label, float64(p.wallNs)/1e9, float64(p.cpuNs)/1e9, p.judged, p.digest, len(p.failures))
}

func (b *bench) timedPass(tr *tracer, workers int) passOut {
	start, cpu0 := time.Now(), cpuTime()
	p := b.w.pass(tr, workers)
	p.wallNs = int64(time.Since(start))
	p.cpuNs = int64(cpuTime() - cpu0)
	return p
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *bench) measure(budget time.Duration, traced bool) (map[string]float64, error) {
	m := map[string]float64{}
	var setupTr *tracer
	if traced {
		setupTr = newTracer()
	}
	var setupS []float64
	var setupTotal time.Duration
	for len(setupS) < minSetups || (setupTotal < setupFor && len(setupS) < maxSetups) {
		start := time.Now()
		if err := b.w.setup(setupTr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		setupTotal += d
		setupS = append(setupS, d.Seconds())
	}
	m["setup_s"] = median(setupS)
	if lw, ok := b.w.(*loadWL); ok {
		p50, _ := percentile(lw.overshootUs, 0.5)
		p99, _ := percentile(lw.overshootUs, 0.99)
		fmt.Fprintf(b.out, "timer calibration: a sleep to a Poisson instant wakes late by p50 %.1fµs, p99 %.1fµs (%d gaps at %d/s)\n",
			p50, p99, len(lw.overshootUs), loadRate)
	}

	b.record("warm-up", b.timedPass(nil, 0))

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var walls, tracedWalls, samples []float64
	hist := &load.Histogram{}
	var rates [][]float64 // per configuration, one rate per pass
	var tracedPasses int
	start := time.Now()
	for i := 0; ; i++ {
		enough := time.Since(start) >= budget && len(walls) >= 1
		if traced {
			enough = enough && tracedPasses >= 1
		} else {
			_, ok := latencyTail(samples, hist)
			enough = enough && ok
		}
		if enough {
			break
		}
		if traced && i%2 == 1 {
			p := b.timedPass(tr, 0)
			b.record("traced", p)
			tracedWalls = append(tracedWalls, float64(p.wallNs)/1e9)
			tracedPasses++
			continue
		}
		p := b.timedPass(nil, 0)
		b.record("measured", p)
		walls = append(walls, float64(p.wallNs)/1e9)
		samples = append(samples, p.samplesMs...)
		if p.hist != nil {
			hist.Merge(p.hist)
		}
		if p.rates == nil && p.busyS > 0 {
			p.rates = []float64{p.done / p.busyS}
		}
		for j, r := range p.rates {
			if j == len(rates) {
				rates = append(rates, nil)
			}
			rates[j] = append(rates[j], r)
		}
	}

	if _, isLoad := b.w.(*loadWL); !isLoad && !traced {
		// The determinism contract: the sequential engine gives the same
		// verdicts and counts as the default worker count.
		b.record("workers=1", b.timedPass(nil, 1))
	}

	m["wall_s"] = median(walls)
	m["peak_rss_mb"] = peakRSSMB()
	m["judged_per_pass"] = float64(b.refJudged)
	// Throughput is the geometric mean over configurations of each
	// configuration's median per-pass rate, so one slow pass moves it less
	// than a sum over passes would.
	logSum := 0.0
	for _, rs := range rates {
		logSum += math.Log(median(rs))
	}
	if len(rates) > 0 {
		m["throughput_per_s"] = math.Exp(logSum / float64(len(rates)))
	}
	if q, ok := latencyTail(samples, hist); ok {
		m["latency_ms_p50"], m["latency_ms_p90"] = q[0], q[1]
	}
	fmt.Fprintf(b.out, "%d measured passes, %d latency samples\n", len(walls), max(len(samples), int(hist.Count())))

	if traced {
		b.w.layerMetrics(tr, setupTr, tracedPasses, len(setupS), m)
		busyNs, selfNs := layerTimes(tr.closed())
		busyNs["problems"] += tr.busyOf("problems.stream").ns
		for _, l := range []string{"explore", "problems", "solutions", "synth", "load"} {
			m[l+".busy_ms"] = float64(busyNs[l]) / 1e6 / float64(tracedPasses)
		}
		m["explore.self_ms"] = float64(selfNs["explore"]) / 1e6 / float64(tracedPasses)
		m["overhead.wall_s"] = median(tracedWalls) - median(walls)
		m["overhead.frac"] = m["overhead.wall_s"] / median(walls)
		dir := filepath.Join(".bench_build", "spans")
		for label, t := range map[string]*tracer{"passes": tr, "setup": setupTr} {
			path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.tsv.gz", b.name, b.seed, label))
			if err := t.dump(path); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
		fmt.Fprintf(b.out, "spans written to %s\n", dir)
	}
	return m, nil
}

// latencyTail returns the p50 and p90 latency in ms — of the verdict samples, or
// of the histogram when the workload reports one — once at least
// minBeyond samples lie beyond p90.
func latencyTail(samples []float64, hist *load.Histogram) ([2]float64, bool) {
	if hist.Count() > 0 {
		p50, ok1 := histQuantile(hist, 0.5)
		p90, ok2 := histQuantile(hist, 0.9)
		return [2]float64{p50 / 1e6, p90 / 1e6}, ok1 && ok2
	}
	p50, ok1 := percentile(samples, 0.5)
	p90, ok2 := percentile(samples, 0.9)
	return [2]float64{p50, p90}, ok1 && ok2
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
