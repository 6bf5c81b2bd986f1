// Command benchjson converts `go test -bench` text output into a JSON
// document, so benchmark numbers (ns/op, allocs/op, and custom metrics
// like the exploration engine's schedules/sec) can be archived and
// diffed across commits by CI.
//
// With -load it instead ingests a syncload report (internal/load's
// versioned schema), validates it — schema version, histogram/bucket
// consistency, quantile monotonicity — and archives the normalized
// document. Malformed input is rejected with a line-numbered diagnostic
// (JSON syntax/type errors) or a field-path diagnostic (semantic errors
// like a histogram whose buckets disagree with its count).
//
// When -o names an existing report, the new results are merged into it
// rather than replacing it: benchmarks with the same name and cpu count
// are updated in place, everything else is preserved. A partial bench
// run (say, one -bench filter out of several) therefore refreshes its
// own lines in a committed baseline without discarding the rest.
//
// With -load-compare it gates load reports the same way -compare gates
// bench reports: runs are matched by (mechanism, problem, arrival),
// throughput is higher-is-better, per-class wait/total p99 latencies are
// lower-is-better, unmatched runs or empty classes are SKIPped, and the
// exit status is non-zero when any goodness ratio falls below tolerance.
//
// With -compare it gates instead of archiving: given a baseline report
// and a fresh one, every benchmark present in both is checked on the
// gated metrics — schedules/sec and switches/sec (higher is better),
// schedules-to-finding and schedules-to-exhaustion (lower is better) —
// and the run exits non-zero if any goodness ratio fell below tolerance.
// Metrics the baseline predates (pre-DPOR reports have no
// schedules-to-finding) are skipped, not failed. CI runs this after the
// bench smoke so an exploration-engine regression fails the build.
//
// With -ab it compares paired perfbench runs of two trees, as make ab
// records them, on BENCHMARK.json's end-to-end metrics (see ab.go).
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkE1|BenchmarkSimContextSwitch' -benchmem . ./internal/kernel | benchjson -o BENCH_explore.json
//	syncload -json | benchjson -load -o BENCH_load.json
//	syncload -soak -json | benchjson -load -o BENCH_load.json   # NDJSON: every snapshot validated, final archived
//	benchjson -compare -tolerance 0.8 BENCH_explore.json fresh.json
//	benchjson -load-compare -tolerance 0.7 BENCH_load.json fresh_load.json
//	benchjson -ab BENCHMARK.json ab.ndjson
//
// Input lines it understands (everything else passes through untouched):
//
//	goos: linux
//	goarch: amd64
//	pkg: repro
//	BenchmarkE1ExploreThroughput/dfs-seq-pool-8  223  5347102 ns/op  82584 schedules/sec  2629 allocs/op
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/load"
)

// Benchmark is one result line: the sub-benchmark name with its -N cpu
// suffix split off, the iteration count, and every reported metric keyed
// by unit.
type Benchmark struct {
	Name       string             `json:"name"`
	CPUs       int                `json:"cpus,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole document.
type Report struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout; an existing bench report is merged into, not overwritten")
	loadMode := flag.Bool("load", false, "ingest a syncload report instead of bench output")
	compareMode := flag.Bool("compare", false, "compare two reports (baseline.json fresh.json) on the gated metrics (schedules/sec, schedules-to-finding, schedules-to-exhaustion, switches/sec); exit non-zero on regression")
	loadCompareMode := flag.Bool("load-compare", false, "compare two syncload reports (baseline.json fresh.json) on throughput and p99 latency; exit non-zero on regression")
	tolerance := flag.Float64("tolerance", 0.8, "with -compare/-load-compare, minimum acceptable goodness ratio (fresh/baseline, inverted for lower-is-better metrics)")
	abMode := flag.Bool("ab", false, "compare paired perfbench runs (BENCHMARK.json runs.ndjson, as make ab writes them) per end-to-end metric: medians with quartiles, ratio, wins and a verdict; exit non-zero if a metric is worse beyond its bound or a run failed")
	flag.Parse()

	if *abMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -ab wants exactly two arguments: BENCHMARK.json runs.ndjson")
			os.Exit(2)
		}
		ok, err := abReport(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *compareMode || *loadCompareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare wants exactly two arguments: baseline.json fresh.json")
			os.Exit(2)
		}
		cmp := compareReports
		if *loadCompareMode {
			cmp = compareLoadReports
		}
		ok, err := cmp(flag.Arg(0), flag.Arg(1), *tolerance, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var buf []byte
	var err error
	if *loadMode {
		buf, err = ingestLoad(os.Stdin)
	} else {
		buf, err = ingestBench(os.Stdin, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// ingestBench is the original mode: bench text in, JSON document out.
// When dest names an existing report, the parsed results are merged
// into it (mergeReports); a corrupt existing report is an error rather
// than something to silently overwrite — baselines are committed
// artifacts.
func ingestBench(r io.Reader, dest string) ([]byte, error) {
	report, err := parse(bufio.NewScanner(r))
	if err != nil {
		return nil, err
	}
	if len(report.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin (did the bench run produce output?)")
	}
	if dest != "" {
		if data, err := os.ReadFile(dest); err == nil {
			var base Report
			if err := json.Unmarshal(data, &base); err != nil {
				return nil, fmt.Errorf("existing report %s: %v (refusing to overwrite; delete it to start fresh)", dest, err)
			}
			report = mergeReports(base, report)
		}
	}
	return marshal(report)
}

// mergeReports folds the fresh run into the baseline: benchmarks with
// the same name and cpu count are replaced in place (keeping the
// baseline's ordering), new ones are appended, and untouched baseline
// lines survive. Header fields follow the fresh run, which describes
// the machine that produced the newest numbers.
func mergeReports(base, fresh Report) Report {
	type key struct {
		name string
		cpus int
	}
	replaced := make(map[key]bool, len(fresh.Benchmarks))
	byKey := make(map[key]Benchmark, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		byKey[key{b.Name, b.CPUs}] = b
	}
	merged := fresh
	merged.Benchmarks = nil
	for _, b := range base.Benchmarks {
		k := key{b.Name, b.CPUs}
		if nb, ok := byKey[k]; ok {
			merged.Benchmarks = append(merged.Benchmarks, nb)
			replaced[k] = true
			continue
		}
		merged.Benchmarks = append(merged.Benchmarks, b)
	}
	for _, b := range fresh.Benchmarks {
		if !replaced[key{b.Name, b.CPUs}] {
			merged.Benchmarks = append(merged.Benchmarks, b)
		}
	}
	return merged
}

// gatedMetrics are the metrics the -compare gate guards, each with the
// direction that counts as better. schedules/sec is the engine's raw
// throughput; schedules-to-finding is how many schedules the reduced
// search judges before the Figure-1 anomaly (fewer is the whole point
// of DPOR); schedules-to-exhaustion is how many it judges before it
// proves the clean footnote-3 scenario covered; switches/sec is the
// simulated kernel's context-switch rate (BenchmarkSimContextSwitch),
// the layer under every schedule. ns/op is deliberately not gated —
// wall-clock per hunt moves with budget choices, while these are
// figures of merit.
var gatedMetrics = []struct {
	unit         string
	higherBetter bool
}{
	{"schedules/sec", true},
	{"schedules-to-finding", false},
	{"schedules-to-exhaustion", false},
	{"switches/sec", true},
}

// compareReports checks every benchmark present in both reports on each
// gated metric, writing one verdict line per comparison, and reports
// whether the fresh run passed: no goodness ratio (fresh/base for
// higher-is-better metrics, base/fresh for lower-is-better ones) below
// tolerance. Benchmarks or metrics only one side knows are listed as
// SKIP but never fail the gate — so a baseline carrying extra suites
// does not break a narrower CI smoke, and a baseline archived before a
// metric existed (e.g. pre-DPOR reports without schedules-to-finding)
// does not fail a fresh run that reports it.
func compareReports(basePath, freshPath string, tolerance float64, w io.Writer) (bool, error) {
	base, err := readReport(basePath)
	if err != nil {
		return false, err
	}
	fresh, err := readReport(freshPath)
	if err != nil {
		return false, err
	}
	type key struct {
		name string
		cpus int
	}
	freshBy := make(map[key]Benchmark, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		freshBy[key{b.Name, b.CPUs}] = b
	}
	ok, compared := true, 0
	for _, b := range base.Benchmarks {
		nb, found := freshBy[key{b.Name, b.CPUs}]
		for _, m := range gatedMetrics {
			old, has := b.Metrics[m.unit]
			if !has || old <= 0 {
				if found {
					if now, hasNew := nb.Metrics[m.unit]; hasNew && now > 0 {
						fmt.Fprintf(w, "SKIP %s: baseline %s predates the %s metric\n", b.Name, basePath, m.unit)
					}
				}
				continue
			}
			if !found {
				fmt.Fprintf(w, "SKIP %s: not in %s\n", b.Name, freshPath)
				continue
			}
			now, has := nb.Metrics[m.unit]
			if !has {
				fmt.Fprintf(w, "SKIP %s: no %s metric in %s\n", b.Name, m.unit, freshPath)
				continue
			}
			compared++
			ratio := now / old
			if !m.higherBetter {
				ratio = old / now
			}
			verdict := "ok"
			if ratio < tolerance {
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-10s %s: %.4g -> %.4g %s (%.2fx, floor %.2fx)\n",
				verdict, b.Name, old, now, m.unit, ratio, tolerance)
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("no benchmarks with a gated metric in common between %s and %s", basePath, freshPath)
	}
	return ok, nil
}

// readReport loads a JSON report written by this tool.
func readReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

// ingestLoad validates a syncload report and re-emits it normalized.
// JSON syntax and type errors carry the input line; semantic errors
// (internal/load's Validate) carry the offending field's path. Input may
// also be the NDJSON stream of a soak run (one report per line): every
// line — each incremental snapshot — is validated, and the last line (the
// final report) is the one archived.
func ingestLoad(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if lines := ndjsonLines(data); len(lines) > 1 {
		var last load.Report
		for i, line := range lines {
			var rep load.Report
			if err := json.Unmarshal(line, &rep); err != nil {
				return nil, fmt.Errorf("load report: NDJSON line %d: %v", i+1, err)
			}
			if err := rep.Validate(); err != nil {
				return nil, fmt.Errorf("load report: NDJSON line %d: %v", i+1, err)
			}
			last = rep
		}
		return marshal(last)
	}
	var rep load.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		switch e := err.(type) {
		case *json.SyntaxError:
			return nil, fmt.Errorf("load report: line %d: %v", lineAt(data, e.Offset), e)
		case *json.UnmarshalTypeError:
			return nil, fmt.Errorf("load report: line %d: field %q: cannot decode %s into %s",
				lineAt(data, e.Offset), e.Field, e.Value, e.Type)
		}
		return nil, fmt.Errorf("load report: %v", err)
	}
	if err := rep.Validate(); err != nil {
		return nil, fmt.Errorf("load report: %v", err)
	}
	return marshal(rep)
}

// ndjsonLines reports the input's non-empty lines when it looks like an
// NDJSON stream: more than one line, every line a complete JSON object
// (soak streams are written one document per line; an indented document
// never has '{'-prefixed continuation lines).
func ndjsonLines(data []byte) [][]byte {
	var lines [][]byte
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		if line[0] != '{' || line[len(line)-1] != '}' {
			return nil
		}
		lines = append(lines, line)
	}
	return lines
}

// compareLoadReports gates a fresh syncload report against a baseline:
// runs are matched by (mechanism, problem, arrival) — soak snapshots
// (snapshot_seq > 0) are ignored on both sides — and each gated metric
// present and non-zero on both sides must keep its goodness ratio above
// tolerance: throughput is higher-is-better, per-class p99 queueing
// (wait) and end-to-end (total) latency are lower-is-better. Mean and max
// are deliberately not gated — max is a single-sample lottery under real
// scheduling, and mean moves with the arrival mix. Unmatched runs and
// empty classes are SKIPped, never failed, so a narrower CI smoke can
// gate against a fuller committed baseline. Latency comparisons clamp
// both sides up to loadLatencyFloorNs first: a p99 of tens of
// microseconds is scheduler jitter, not queueing, so swings below the
// floor ratio to ~1 instead of flapping the build, while a genuine blowup
// from microseconds to milliseconds still lands far below tolerance and
// fails.
func compareLoadReports(basePath, freshPath string, tolerance float64, w io.Writer) (bool, error) {
	base, err := readLoadReport(basePath)
	if err != nil {
		return false, err
	}
	fresh, err := readLoadReport(freshPath)
	if err != nil {
		return false, err
	}
	finals := func(rep *load.Report) map[string]*load.RunReport {
		out := make(map[string]*load.RunReport)
		for i := range rep.Runs {
			rr := &rep.Runs[i]
			if rr.SnapshotSeq == 0 {
				out[rr.Mechanism+"/"+rr.Problem+"/"+rr.Arrival] = rr
			}
		}
		return out
	}
	const loadLatencyFloorNs = 250_000
	baseBy, freshBy := finals(&base), finals(&fresh)
	ok, compared := true, 0
	for _, key := range sortedKeys(baseBy) {
		brr := baseBy[key]
		frr, found := freshBy[key]
		if !found {
			fmt.Fprintf(w, "SKIP %s: not in %s\n", key, freshPath)
			continue
		}
		check := func(metric string, old, now float64, higherBetter bool) {
			if old <= 0 || now <= 0 {
				fmt.Fprintf(w, "SKIP %s %s: zero on one side (%.4g -> %.4g)\n", key, metric, old, now)
				return
			}
			compared++
			note := ""
			ratio := now / old
			if !higherBetter {
				effOld, effNow := old, now
				if effOld < loadLatencyFloorNs {
					effOld = loadLatencyFloorNs
				}
				if effNow < loadLatencyFloorNs {
					effNow = loadLatencyFloorNs
				}
				if effOld != old || effNow != now {
					note = " [floored]"
				}
				ratio = effOld / effNow
			}
			verdict := "ok"
			if ratio < tolerance {
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(w, "%-10s %s %s: %.4g -> %.4g (%.2fx, floor %.2fx)%s\n",
				verdict, key, metric, old, now, ratio, tolerance, note)
		}
		check("throughput_ops_sec", brr.ThroughputOpsSec, frr.ThroughputOpsSec, true)
		for i := range brr.Classes {
			bc := &brr.Classes[i]
			var fc *load.ClassReport
			for j := range frr.Classes {
				if frr.Classes[j].Name == bc.Name {
					fc = &frr.Classes[j]
					break
				}
			}
			if fc == nil {
				fmt.Fprintf(w, "SKIP %s class %s: not in %s\n", key, bc.Name, freshPath)
				continue
			}
			check(bc.Name+".wait_p99_ns", float64(bc.Wait.P99Ns), float64(fc.Wait.P99Ns), false)
			check(bc.Name+".total_p99_ns", float64(bc.Total.P99Ns), float64(fc.Total.P99Ns), false)
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("no load runs with a gated metric in common between %s and %s", basePath, freshPath)
	}
	return ok, nil
}

func sortedKeys(m map[string]*load.RunReport) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readLoadReport loads and validates a syncload report: a gate against a
// malformed baseline would pass or fail for the wrong reason.
func readLoadReport(path string) (load.Report, error) {
	var r load.Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	if err := r.Validate(); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

// lineAt converts a byte offset of the input into a 1-based line number.
func lineAt(data []byte, off int64) int {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	return 1 + bytes.Count(data[:off], []byte{'\n'})
}

func marshal(v any) ([]byte, error) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// parse reads the bench output. A malformed Benchmark result line —
// truncated mid-write, interleaved with a crash, wrong field count, a
// value JSON cannot encode, bytes that are not UTF-8 (in a header line
// too) — is an error, not a skip: silently dropping lines would let CI
// archive a report that looks complete but is missing data. So is a
// second result for one benchmark and cpu count (a -count above 1):
// reports are keyed by those, and merging or comparing would silently
// keep only one of them.
func parse(sc *bufio.Scanner) (Report, error) {
	type key struct {
		name string
		cpus int
	}
	var r Report
	seen := map[key]bool{}
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		kept := strings.HasPrefix(line, "Benchmark")
		for _, h := range []string{"goos: ", "goarch: ", "pkg: ", "cpu: "} {
			kept = kept || strings.HasPrefix(line, h)
		}
		if kept && !utf8.ValidString(line) {
			// Marshal would replace the bad bytes, so the archive
			// would not hold what was measured.
			return r, fmt.Errorf("line %d: not valid UTF-8: %q", lineno, line)
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			r.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			r.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			// A multi-package run names every package it benchmarked.
			pkg := strings.TrimPrefix(line, "pkg: ")
			if r.Package == "" {
				r.Package = pkg
			} else if !slices.Contains(strings.Split(r.Package, ", "), pkg) {
				r.Package += ", " + pkg
			}
		case strings.HasPrefix(line, "cpu: "):
			r.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBenchLine(line)
			if err != nil {
				return r, fmt.Errorf("line %d: %w: %q", lineno, err, line)
			}
			k := key{b.Name, b.CPUs}
			if seen[k] {
				return r, fmt.Errorf("line %d: second result for %s (run with -count 1): %q", lineno, b.Name, line)
			}
			seen[k] = true
			r.Benchmarks = append(r.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	return r, nil
}

// parseBenchLine parses one result line: name, iterations, then
// value/unit pairs.
func parseBenchLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line (%d fields, want an even count >= 4)", len(fields))
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("malformed iteration count %q", fields[1])
	}
	b := Benchmark{Iterations: iters, Metrics: map[string]float64{}}
	b.Name, b.CPUs = splitCPUSuffix(fields[0])
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("malformed metric value %q", fields[i])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Benchmark{}, fmt.Errorf("non-finite metric value %q (JSON cannot encode it)", fields[i])
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, nil
}

// splitCPUSuffix splits the trailing "-N" GOMAXPROCS marker off a
// benchmark name. Names without one (GOMAXPROCS=1 runs) pass through.
func splitCPUSuffix(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 0
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n <= 0 {
		return name, 0
	}
	return name[:i], n
}
