// Command syncload generates traffic against solutions running on the
// real kernel (genuine goroutine concurrency, wall-clock time) and
// measures latency, throughput, and per-class fairness. It is the
// real-runtime leg of the evaluation: the same solutions the simulator
// checks over every schedule, now under load, optionally traced and
// judged by the same oracles.
//
// Usage:
//
//	syncload                                  # full matrix: all mechanisms × canonical trio × poisson+closed
//	syncload -mech monitor -problem fcfs -arrival poisson -rate 5000 -duration 2s
//	syncload -mech all,variants               # include the scalable semaphore variants
//	syncload -arrival closed -clients 16 -think 50
//	syncload -json -o load-raw.json           # machine-readable report (benchjson -load archives it)
//	syncload -soak -duration 10m -interval 10s -json   # stream NDJSON snapshots while running
//	syncload -calibrate                       # archive harness calibration in the report
//	syncload -list
//
// Exit status is 0 when every run completed cleanly, 1 when any run hit
// a kernel error (watchdog expiry — a lost wakeup or deadlock under
// load) or an oracle violation, and 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/load"
	"repro/internal/solutions"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is the parsed command line; a separate struct keeps run
// testable without touching global flag state.
type options struct {
	mechs    []string
	problems []string
	arrivals []load.ArrivalKind

	rate     float64
	burst    int
	clients  int
	think    int64
	duration time.Duration
	ops      int64
	seed     int64
	readFrac float64
	bufCap   int
	yields   int
	watchdog time.Duration

	soak        bool
	interval    time.Duration
	fairnessMin float64
	calibrate   bool

	trace   bool
	jsonOut bool
	outPath string
	quiet   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("syncload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mech := fs.String("mech", "all", "mechanism, comma-separated list, or \"all\"")
	problem := fs.String("problem", "default", "problem, comma list, \"default\" (canonical trio), or \"all\"")
	arrival := fs.String("arrival", "poisson,closed", "arrival models to run, comma list of closed poisson uniform burst diurnal pareto")
	rate := fs.Float64("rate", 1000, "open-loop offered rate, ops/sec")
	burst := fs.Int("burst", 8, "arrivals per burst for -arrival burst")
	clients := fs.Int("clients", 4, "closed-loop client population")
	think := fs.Int64("think", 100, "closed-loop mean think time, kernel ticks")
	duration := fs.Duration("duration", time.Second, "traffic-generation duration per run (0 with -ops: op count governs)")
	ops := fs.Int64("ops", 0, "operation cap per run (0: duration governs)")
	seed := fs.Int64("seed", 1, "traffic seed (offered load is deterministic per seed)")
	readFrac := fs.Float64("read-frac", 0.9, "read share of readers–writers traffic")
	bufCap := fs.Int("cap", 0, "bounded-buffer capacity (0: standard)")
	yields := fs.Int("yields", 2, "yields inside each operation body (contention window width)")
	watchdog := fs.Duration("watchdog", 0, "per-run watchdog (0: duration+30s)")
	soak := fs.Bool("soak", false, "stream an incremental snapshot of each run every -interval")
	interval := fs.Duration("interval", 10*time.Second, "soak snapshot interval")
	fairnessMin := fs.Float64("fairness-min", 0, "soak-only: fail (exit 1) if any snapshot's Jain fairness index drops below this (0: disabled)")
	calibrate := fs.Bool("calibrate", false, "measure histogram harness throughput first and archive it in the report")
	traceFlag := fs.Bool("trace", true, "record each run and judge it with the problem oracle")
	jsonOut := fs.Bool("json", false, "emit the versioned JSON report (human summary goes to stderr)")
	outPath := fs.String("o", "", "write the JSON report here instead of stdout (implies -json)")
	quiet := fs.Bool("quiet", false, "suppress the per-run human summary")
	list := fs.Bool("list", false, "list mechanisms, problems, and arrival models")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		var mechs []string
		for _, s := range solutions.All() {
			mechs = append(mechs, s.Mechanism)
		}
		var variants []string
		for _, s := range solutions.Variants() {
			variants = append(variants, s.Mechanism)
		}
		fmt.Fprintln(stdout, "mechanisms:", strings.Join(mechs, ", "))
		fmt.Fprintln(stdout, "variants:  ", strings.Join(variants, ", "), "(opt in with -mech variants or all,variants)")
		fmt.Fprintln(stdout, "problems:  ", strings.Join(load.LoadProblems(), ", "))
		fmt.Fprintln(stdout, "arrivals:   closed, poisson, uniform, burst, diurnal, pareto")
		return 0
	}

	opt := &options{
		rate: *rate, burst: *burst, clients: *clients, think: *think,
		duration: *duration, ops: *ops, seed: *seed, readFrac: *readFrac,
		bufCap: *bufCap, yields: *yields, watchdog: *watchdog,
		soak: *soak, interval: *interval,
		fairnessMin: *fairnessMin, calibrate: *calibrate,
		trace: *traceFlag, jsonOut: *jsonOut || *outPath != "", outPath: *outPath,
		quiet: *quiet,
	}
	if opt.soak && opt.interval <= 0 {
		fmt.Fprintln(stderr, "syncload: -interval must be positive with -soak")
		return 2
	}
	if opt.fairnessMin != 0 {
		if !opt.soak {
			fmt.Fprintln(stderr, "syncload: -fairness-min only applies to soak snapshots; add -soak")
			return 2
		}
		if opt.fairnessMin < 0 || opt.fairnessMin > 1 {
			fmt.Fprintln(stderr, "syncload: -fairness-min must be in (0, 1] (Jain index range)")
			return 2
		}
	}
	var err error
	if opt.mechs, err = expandMechs(*mech); err == nil {
		if opt.problems, err = expandProblems(*problem); err == nil {
			opt.arrivals, err = expandArrivals(*arrival)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "syncload:", err)
		return 2
	}
	return execute(opt, stdout, stderr)
}

// execute runs the matrix and emits the report. In soak mode each run
// additionally streams incremental snapshots: one-line NDJSON reports to
// stdout under -json (the final indented report then goes to -o, or is
// appended as a last NDJSON line when -o is absent), or compact human soak
// lines with Jain-decay tracking otherwise.
func execute(opt *options, stdout, stderr io.Writer) int {
	human := stdout
	if opt.jsonOut {
		human = stderr
	}
	if opt.quiet {
		human = io.Discard
	}

	rep := load.NewReport()
	if opt.calibrate {
		hr := load.CalibrateHistograms(250 * time.Millisecond)
		rep.Harness = &hr
		fmt.Fprintf(human, "harness: %d cores, %d shards, shared %.2fM rec/s, sharded %.2fM rec/s, speedup %.2fx\n",
			hr.Cores, hr.HistShards, hr.SharedRecordsPerSec/1e6, hr.ShardedRecordsPerSec/1e6, hr.Speedup)
	}
	failed := false
	for _, mech := range opt.mechs {
		for _, problem := range opt.problems {
			for _, arrival := range opt.arrivals {
				cfg := load.Config{
					Mechanism: mech, Problem: problem, Arrival: arrival,
					RatePerSec: opt.rate, BurstSize: opt.burst,
					Clients: opt.clients, ThinkTicks: opt.think,
					Duration: opt.duration, MaxOps: opt.ops, Seed: opt.seed,
					ReadFraction: opt.readFrac, BufferCap: opt.bufCap,
					WorkYields: opt.yields, Watchdog: opt.watchdog,
					Trace: opt.trace,
				}
				if opt.soak {
					cfg.SnapshotEvery = opt.interval
					lastJain := math.NaN()
					cfg.OnSnapshot = func(r *load.Result) {
						if err := emitSnapshot(r, opt, stdout, human, &lastJain); err != nil {
							fmt.Fprintln(stderr, "syncload:", err)
							failed = true
						}
					}
				}
				res, err := load.Run(cfg)
				if err != nil {
					fmt.Fprintln(stderr, "syncload:", err)
					return 2
				}
				if res.Failed() {
					failed = true
				}
				one := load.Report{Schema: load.SchemaVersion, Runs: []load.RunReport{res.Report()}}
				one.Render(human)
				rep.Runs = append(rep.Runs, one.Runs[0])
			}
		}
	}

	if err := rep.Validate(); err != nil {
		fmt.Fprintln(stderr, "syncload: internal error: emitted report invalid:", err)
		return 2
	}
	if opt.jsonOut {
		if opt.outPath != "" {
			buf, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintln(stderr, "syncload:", err)
				return 2
			}
			if err := os.WriteFile(opt.outPath, append(buf, '\n'), 0o644); err != nil {
				fmt.Fprintln(stderr, "syncload:", err)
				return 2
			}
		} else if opt.soak {
			// Keep stdout pure NDJSON: the final report joins the
			// snapshot stream as one more single-line document.
			buf, err := json.Marshal(rep)
			if err != nil {
				fmt.Fprintln(stderr, "syncload:", err)
				return 2
			}
			fmt.Fprintf(stdout, "%s\n", buf)
		} else {
			buf, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintln(stderr, "syncload:", err)
				return 2
			}
			stdout.Write(append(buf, '\n'))
		}
	}
	if failed {
		fmt.Fprintln(stderr, "syncload: FAILED — kernel errors or oracle violations above")
		return 1
	}
	return 0
}

// emitSnapshot validates and emits one incremental soak result: a compact
// NDJSON repro-load/v1 report to stdout under -json, a human soak line
// (with the Jain index's delta since the previous snapshot — the fairness
// decay a long soak exists to surface) otherwise. With -fairness-min set,
// a snapshot whose Jain index falls below the floor is still emitted but
// returns an error, failing the run: the soak keeps streaming so the
// decay trajectory stays observable, while the exit code records that
// the floor was breached.
func emitSnapshot(r *load.Result, opt *options, stdout, human io.Writer, lastJain *float64) error {
	one := load.Report{Schema: load.SchemaVersion, Runs: []load.RunReport{r.Report()}}
	if err := one.Validate(); err != nil {
		return fmt.Errorf("snapshot invalid: %w", err)
	}
	rr := &one.Runs[0]
	if opt.jsonOut {
		buf, err := json.Marshal(&one)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", buf)
		return checkFairnessFloor(rr, opt)
	}
	line := fmt.Sprintf("  soak #%d t=%v completed=%d %.0f ops/s",
		rr.SnapshotSeq, time.Duration(rr.ElapsedNs).Round(time.Millisecond),
		rr.Completed, rr.ThroughputOpsSec)
	var p99 int64
	for i := range rr.Classes {
		if q := rr.Classes[i].Total.P99Ns; q > p99 {
			p99 = q
		}
	}
	line += fmt.Sprintf(" p99=%v", time.Duration(p99).Round(time.Microsecond))
	if len(rr.ClientCompleted) > 0 {
		line += fmt.Sprintf(" jain=%.3f", rr.JainIndex)
		if !math.IsNaN(*lastJain) {
			line += fmt.Sprintf(" (Δ%+.3f)", rr.JainIndex-*lastJain)
		}
		*lastJain = rr.JainIndex
	}
	fmt.Fprintln(human, line)
	return checkFairnessFloor(rr, opt)
}

// checkFairnessFloor enforces -fairness-min against one snapshot. Only
// snapshots with per-client completion data carry a Jain index (closed-
// loop traffic); open-loop snapshots pass vacuously.
func checkFairnessFloor(rr *load.RunReport, opt *options) error {
	if opt.fairnessMin > 0 && len(rr.ClientCompleted) > 0 && rr.JainIndex < opt.fairnessMin {
		return fmt.Errorf("fairness floor breached: %s/%s snapshot #%d jain=%.3f < -fairness-min %.3f",
			rr.Mechanism, rr.Problem, rr.SnapshotSeq, rr.JainIndex, opt.fairnessMin)
	}
	return nil
}

func expandMechs(s string) ([]string, error) {
	var out []string
	for _, m := range splitList(s) {
		switch m {
		case "all":
			for _, suite := range solutions.All() {
				out = append(out, suite.Mechanism)
			}
		case "variants":
			for _, suite := range solutions.Variants() {
				out = append(out, suite.Mechanism)
			}
		default:
			if _, ok := solutions.ByMechanism(m); !ok {
				return nil, fmt.Errorf("unknown mechanism %q", m)
			}
			out = append(out, m)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no mechanisms given")
	}
	return out, nil
}

func expandProblems(s string) ([]string, error) {
	switch s {
	case "default":
		return load.DefaultProblems(), nil
	case "all":
		return load.LoadProblems(), nil
	}
	out := splitList(s)
	for _, p := range out {
		if strings.HasPrefix(p, "synth:") {
			// Generated problem (synth:<seed>); the load engine parses
			// the seed and reports malformed ones.
			continue
		}
		found := false
		for _, known := range load.LoadProblems() {
			if p == known {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("problem %q is not load-generable (want one of %v, or synth:<seed>)", p, load.LoadProblems())
		}
	}
	return out, nil
}

func expandArrivals(s string) ([]load.ArrivalKind, error) {
	var out []load.ArrivalKind
	for _, a := range splitList(s) {
		kind, err := load.ParseArrival(a)
		if err != nil {
			return nil, err
		}
		out = append(out, kind)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no arrival models given")
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
