package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkE1ExploreThroughput/dfs-seq-pool-8         	     223	   5347102 ns/op	     2629 allocs/op	     82584 schedules/sec
BenchmarkE1ExploreThroughput/random                 	     100	  10000000 ns/op
PASS
ok  	repro	12.3s
`

func TestParse(t *testing.T) {
	r, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if r.GoOS != "linux" || r.GoArch != "amd64" || r.Package != "repro" {
		t.Fatalf("header: %+v", r)
	}
	if len(r.Benchmarks) != 2 {
		t.Fatalf("benchmarks: %+v", r.Benchmarks)
	}
	b := r.Benchmarks[0]
	if b.Name != "BenchmarkE1ExploreThroughput/dfs-seq-pool" || b.CPUs != 8 || b.Iterations != 223 {
		t.Fatalf("first line: %+v", b)
	}
	for unit, want := range map[string]float64{
		"ns/op": 5347102, "allocs/op": 2629, "schedules/sec": 82584,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Fatalf("%s = %v, want %v", unit, got, want)
		}
	}
	if b := r.Benchmarks[1]; b.Name != "BenchmarkE1ExploreThroughput/random" || b.CPUs != 0 {
		t.Fatalf("second line: %+v", b)
	}
}

// Truncated or corrupted bench output must be a parse error with a
// diagnostic naming the offending line — never a silently thinner report.
func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"truncated-mid-line", "BenchmarkX-8\t 223\t 5347102\n", "malformed benchmark line"},
		{"odd-field-count", "BenchmarkX-8 223 5347102 ns/op extra\n", "malformed benchmark line"},
		{"bad-iterations", "BenchmarkX-8 fast 5347102 ns/op\n", "malformed iteration count"},
		{"bad-metric-value", "BenchmarkX-8 223 quick ns/op\n", "malformed metric value"},
		{"truncated-after-good-line", sample[:strings.Index(sample, "PASS")] + "BenchmarkY-8 10\n", "malformed benchmark line"},
		{"nan-metric", "BenchmarkX-2 1 NaN ns/op\n", "line 1: non-finite metric value"},
		{"inf-metric", "BenchmarkX-2 1 5 ns/op\nBenchmarkY-2 1 +Inf ns/op\n", "line 2: non-finite metric value"},
		{"second-result", "BenchmarkX-2 1 5 ns/op\nBenchmarkX-2 1 6 ns/op\n", "line 2: second result"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parse(bufio.NewScanner(strings.NewReader(c.in)))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("parse error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// Non-benchmark noise (build logs, PASS/ok lines, blank lines) still
// passes through untouched; an input with only noise yields an empty
// report, which main turns into the "no benchmark lines" diagnostic.
// A bench run over several packages (make bench covers the root package
// and internal/kernel) records each package once, in order.
func TestParseMultiPackage(t *testing.T) {
	in := "pkg: repro\nBenchmarkA-2 1 5 ns/op\npkg: repro/internal/kernel\nBenchmarkB-2 1 7 ns/op\npkg: repro\n"
	r, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if want := "repro, repro/internal/kernel"; r.Package != want {
		t.Fatalf("pkg = %q, want %q", r.Package, want)
	}
	if len(r.Benchmarks) != 2 {
		t.Fatalf("benchmarks: %+v", r.Benchmarks)
	}
}

func TestParseEmptyOutput(t *testing.T) {
	r, err := parse(bufio.NewScanner(strings.NewReader("PASS\nok  \trepro\t1.2s\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 0 {
		t.Fatalf("benchmarks: %+v", r.Benchmarks)
	}
}

func TestSplitCPUSuffix(t *testing.T) {
	cases := []struct {
		in   string
		name string
		cpus int
	}{
		{"BenchmarkX-8", "BenchmarkX", 8},
		{"BenchmarkX/sub-case-16", "BenchmarkX/sub-case", 16},
		{"BenchmarkX/sub-case", "BenchmarkX/sub-case", 0},
		{"BenchmarkX", "BenchmarkX", 0},
	}
	for _, c := range cases {
		if name, cpus := splitCPUSuffix(c.in); name != c.name || cpus != c.cpus {
			t.Fatalf("splitCPUSuffix(%q) = %q, %d; want %q, %d", c.in, name, cpus, c.name, c.cpus)
		}
	}
}

// Merging a fresh run into a baseline replaces matching lines in place,
// appends new ones, and keeps everything the fresh run did not touch,
// the baseline's packages included.
func TestMergeReports(t *testing.T) {
	base := Report{
		GoOS: "linux", CPU: "old-cpu", Package: "repro, repro/internal/kernel",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA", CPUs: 8, Iterations: 10, Metrics: map[string]float64{"schedules/sec": 100}},
			{Name: "BenchmarkB", CPUs: 8, Iterations: 20, Metrics: map[string]float64{"schedules/sec": 200}},
		},
	}
	fresh := Report{
		GoOS: "linux", CPU: "new-cpu", Package: "repro/internal/trace, repro",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkB", CPUs: 8, Iterations: 30, Metrics: map[string]float64{"schedules/sec": 250}},
			{Name: "BenchmarkC", CPUs: 8, Iterations: 40, Metrics: map[string]float64{"schedules/sec": 300}},
		},
	}
	m := mergeReports(base, fresh)
	if m.CPU != "new-cpu" {
		t.Fatalf("header should follow the fresh run: %+v", m)
	}
	if want := "repro, repro/internal/kernel, repro/internal/trace"; m.Package != want {
		t.Fatalf("merged pkg = %q, want %q", m.Package, want)
	}
	names := make([]string, len(m.Benchmarks))
	for i, b := range m.Benchmarks {
		names[i] = b.Name
	}
	if got, want := strings.Join(names, ","), "BenchmarkA,BenchmarkB,BenchmarkC"; got != want {
		t.Fatalf("merged order = %s, want %s", got, want)
	}
	if m.Benchmarks[1].Iterations != 30 || m.Benchmarks[1].Metrics["schedules/sec"] != 250 {
		t.Fatalf("BenchmarkB not replaced by the fresh run: %+v", m.Benchmarks[1])
	}
	if m.Benchmarks[0].Metrics["schedules/sec"] != 100 {
		t.Fatalf("BenchmarkA (untouched) changed: %+v", m.Benchmarks[0])
	}
}

// writeReport marshals r into a fresh temp file and returns its path.
func writeReport(t *testing.T, name string, r Report) string {
	t.Helper()
	buf, err := marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	p := t.TempDir() + "/" + name
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// The -compare gate: within tolerance passes, a drop below tolerance
// fails, benchmarks on one side only are skipped without failing, and
// zero comparable benchmarks is a configuration error.
func TestCompareReports(t *testing.T) {
	bench := func(name string, v float64) Benchmark {
		return Benchmark{Name: name, Iterations: 1, Metrics: map[string]float64{"schedules/sec": v}}
	}
	base := writeReport(t, "base.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkA", 1000), bench("BenchmarkOnlyInBase", 500),
	}})

	var out strings.Builder
	ok, err := compareReports(base, writeReport(t, "good.json", Report{
		Benchmarks: []Benchmark{bench("BenchmarkA", 900)},
	}), 0.8, &out)
	if err != nil || !ok {
		t.Fatalf("within tolerance: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "SKIP BenchmarkOnlyInBase") {
		t.Fatalf("missing skip line:\n%s", out.String())
	}

	out.Reset()
	ok, err = compareReports(base, writeReport(t, "bad.json", Report{
		Benchmarks: []Benchmark{bench("BenchmarkA", 700)},
	}), 0.8, &out)
	if err != nil || ok {
		t.Fatalf("regression not caught: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION BenchmarkA") {
		t.Fatalf("missing regression line:\n%s", out.String())
	}

	if _, err = compareReports(base, writeReport(t, "none.json", Report{
		Benchmarks: []Benchmark{{Name: "BenchmarkUnrelated", Iterations: 1, Metrics: map[string]float64{"ns/op": 1}}},
	}), 0.8, &out); err == nil {
		t.Fatal("zero comparable benchmarks should be an error")
	}
}

// Direction-aware gating: schedules-to-finding and
// schedules-to-exhaustion regress when they grow, and a baseline that
// predates a metric (pre-DPOR reports) skips that metric instead of
// failing.
func TestCompareReportsDirectionAware(t *testing.T) {
	bench := func(m map[string]float64) Benchmark {
		return Benchmark{Name: "BenchmarkE1SchedulesToFinding/dpor-prune", Iterations: 1, Metrics: m}
	}
	base := writeReport(t, "base.json", Report{Benchmarks: []Benchmark{bench(map[string]float64{
		"schedules-to-finding": 100, "schedules-to-exhaustion": 150,
	})}})

	// Fewer schedules to the finding and to exhaustion both count as
	// improvements.
	var out strings.Builder
	ok, err := compareReports(base, writeReport(t, "better.json", Report{Benchmarks: []Benchmark{
		bench(map[string]float64{"schedules-to-finding": 40, "schedules-to-exhaustion": 100}),
	}}), 0.8, &out)
	if err != nil || !ok {
		t.Fatalf("improvement flagged: ok=%v err=%v\n%s", ok, err, out.String())
	}

	// Needing more schedules is a regression even though the number went up.
	out.Reset()
	ok, err = compareReports(base, writeReport(t, "slower.json", Report{Benchmarks: []Benchmark{
		bench(map[string]float64{"schedules-to-finding": 200, "schedules-to-exhaustion": 150}),
	}}), 0.8, &out)
	if err != nil || ok {
		t.Fatalf("schedules-to-finding growth not caught: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "schedules-to-finding") {
		t.Fatalf("missing regression line:\n%s", out.String())
	}

	// So is needing more schedules to exhaustion.
	out.Reset()
	ok, err = compareReports(base, writeReport(t, "longer.json", Report{Benchmarks: []Benchmark{
		bench(map[string]float64{"schedules-to-finding": 100, "schedules-to-exhaustion": 600}),
	}}), 0.8, &out)
	if err != nil || ok {
		t.Fatalf("schedules-to-exhaustion growth not caught: ok=%v err=%v\n%s", ok, err, out.String())
	}

	// A pre-DPOR baseline knows only schedules/sec: the new metrics are
	// SKIPped, the old gate still runs, and nothing fails.
	preDPOR := writeReport(t, "predpor.json", Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkE1SchedulesToFinding/dpor-prune", Iterations: 1,
			Metrics: map[string]float64{"schedules/sec": 1000}},
	}})
	out.Reset()
	ok, err = compareReports(preDPOR, writeReport(t, "post.json", Report{Benchmarks: []Benchmark{
		bench(map[string]float64{"schedules/sec": 950, "schedules-to-finding": 40, "schedules-to-exhaustion": 100}),
	}}), 0.8, &out)
	if err != nil || !ok {
		t.Fatalf("pre-DPOR baseline should pass: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "predates the schedules-to-finding metric") ||
		!strings.Contains(out.String(), "predates the schedules-to-exhaustion metric") {
		t.Fatalf("missing pre-DPOR skip lines:\n%s", out.String())
	}
}

// The kernel's context-switch rate is gated higher-is-better: faster and
// within-tolerance runs pass, a slower one fails, and a baseline row
// archived before the benchmark reported it skips the metric while the
// throughput row beside it still gates.
func TestCompareReportsSwitchesPerSec(t *testing.T) {
	const name, unit, rate = "BenchmarkSimContextSwitch", "switches/sec", 2.5e6
	bench := func(m map[string]float64) Benchmark {
		return Benchmark{Name: name, CPUs: 2, Iterations: 1, Metrics: m}
	}
	base := writeReport(t, "base.json", Report{Benchmarks: []Benchmark{
		bench(map[string]float64{"ns/op": 3e6, unit: rate}),
	}})
	for _, c := range []struct {
		name  string
		ratio float64
		ok    bool
	}{
		{"faster", 1.4, true},
		{"within", 0.84, true},
		{"slower", 0.6, false},
	} {
		var out strings.Builder
		ok, err := compareReports(base, writeReport(t, c.name+".json", Report{Benchmarks: []Benchmark{
			bench(map[string]float64{unit: c.ratio * rate}),
		}}), 0.8, &out)
		if err != nil || ok != c.ok {
			t.Fatalf("%s: ok=%v err=%v, want ok=%v\n%s", c.name, ok, err, c.ok, out.String())
		}
		if !strings.Contains(out.String(), unit) {
			t.Fatalf("%s: no %s verdict:\n%s", c.name, unit, out.String())
		}
	}

	old := writeReport(t, "old.json", Report{Benchmarks: []Benchmark{
		bench(map[string]float64{"ns/op": 1300}),
		{Name: "BenchmarkE1ExploreThroughput/dfs", CPUs: 2, Iterations: 1, Metrics: map[string]float64{"schedules/sec": 1000}},
	}})
	var out strings.Builder
	ok, err := compareReports(old, writeReport(t, "new.json", Report{Benchmarks: []Benchmark{
		bench(map[string]float64{unit: 1.2 * rate}),
		{Name: "BenchmarkE1ExploreThroughput/dfs", CPUs: 2, Iterations: 1, Metrics: map[string]float64{"schedules/sec": 1000}},
	}}), 0.8, &out)
	if err != nil || !ok {
		t.Fatalf("baseline without %s: ok=%v err=%v\n%s", unit, ok, err, out.String())
	}
	if !strings.Contains(out.String(), "predates the "+unit+" metric") {
		t.Fatalf("missing skip line:\n%s", out.String())
	}
}

// ingestBench with an existing destination merges rather than clobbers,
// and refuses to proceed over a corrupt baseline.
func TestIngestBenchMerges(t *testing.T) {
	dir := t.TempDir()
	dest := dir + "/BENCH.json"
	buf, err := marshal(Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkKeep", Iterations: 5, Metrics: map[string]float64{"ns/op": 42}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dest, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := ingestBench(strings.NewReader("BenchmarkNew 7 99 ns/op\n"), dest)
	if err != nil {
		t.Fatal(err)
	}
	var merged Report
	if err := json.Unmarshal(out, &merged); err != nil {
		t.Fatal(err)
	}
	if len(merged.Benchmarks) != 2 || merged.Benchmarks[0].Name != "BenchmarkKeep" || merged.Benchmarks[1].Name != "BenchmarkNew" {
		t.Fatalf("merged = %+v", merged.Benchmarks)
	}

	if err := os.WriteFile(dest, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ingestBench(strings.NewReader("BenchmarkNew 7 99 ns/op\n"), dest); err == nil ||
		!strings.Contains(err.Error(), "refusing to overwrite") {
		t.Fatalf("corrupt baseline: err = %v", err)
	}
}

// A well-formed load report round-trips through -load ingestion and
// comes out normalized (indented, schema intact).
func TestIngestLoadRoundTrip(t *testing.T) {
	in := `{"schema":"repro-load/v1","runs":[{"mechanism":"monitor","problem":"fcfs",
	"arrival":"poisson","rate_per_sec":1000,"seed":1,"elapsed_ns":5000000,
	"issued":2,"completed":2,"throughput_ops_sec":400,"judged":false,
	"lag":{"count":2,"p50_ns":40,"p90_ns":50,"p99_ns":50,"max_ns":50,"mean_ns":45,
	"buckets":[{"index":40,"count":1},{"index":44,"count":1}]},
	"classes":[{"name":"use","issued":2,"completed":2,"completed_share":1,"issued_share":1,
	"wait":{"count":2,"p50_ns":40,"p90_ns":50,"p99_ns":50,"max_ns":50,"mean_ns":45,
	"buckets":[{"index":40,"count":1},{"index":44,"count":1}]},
	"total":{"count":2,"p50_ns":60,"p90_ns":70,"p99_ns":70,"max_ns":70,"mean_ns":65,
	"buckets":[{"index":46,"count":1},{"index":48,"count":1}]}}]}]}`
	out, err := ingestLoad(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"schema": "repro-load/v1"`) {
		t.Fatalf("normalized output missing schema:\n%s", out)
	}
}

// goodLoad is a minimal valid load report: one open-loop run of one
// class, with its generator lag.
const goodLoad = `{"schema":"repro-load/v1","runs":[{"mechanism":"m","problem":"p","arrival":"poisson",
"seed":1,"elapsed_ns":1,"issued":1,"completed":1,"throughput_ops_sec":1,"judged":false,
"lag":{"count":1,"p50_ns":5,"p90_ns":5,"p99_ns":5,"max_ns":5,"mean_ns":5,"buckets":[{"index":5,"count":1}]},
"classes":[{"name":"use","issued":1,"completed":1,"completed_share":1,"issued_share":1,
"wait":{"count":1,"p50_ns":5,"p90_ns":5,"p99_ns":5,"max_ns":5,"mean_ns":5,"buckets":[{"index":5,"count":1}]},
"total":{"count":1,"p50_ns":5,"p90_ns":5,"p99_ns":5,"max_ns":5,"mean_ns":5,"buckets":[{"index":5,"count":1}]}}]}]}`

// Malformed load reports are rejected: syntax and type errors with the
// input line, semantic histogram errors with the field path.
func TestIngestLoadRejectsMalformed(t *testing.T) {
	good := goodLoad
	use := good[strings.Index(good, `{"name":"use"`) : len(good)-len("]}]}")] // the one class
	cases := []struct {
		name string
		in   string
		want string // substring of the error
	}{
		{"syntax", "{\"schema\": \"repro-load/v1\",\n\"runs\": [}", "line 2"},
		{"type", "{\"schema\": \"repro-load/v1\",\n\"runs\": [{\"mechanism\": 7}]}", "line 2"},
		{"schema-version", `{"schema":"repro-load/v0","runs":[]}`, `schema: got "repro-load/v0"`},
		{"no-runs", `{"schema":"repro-load/v1","runs":[]}`, "no runs"},
		{"bucket-sum", strings.Replace(good, `"wait":{"count":1`, `"wait":{"count":3`, 1),
			"runs[0].classes[0].wait: count 3 exceeds issued"},
		{"bucket-index", strings.Replace(good, `"buckets":[{"index":5,"count":1}]},
"total"`, `"buckets":[{"index":99999,"count":1}]},
"total"`, 1), "runs[0].classes[0].wait: bucket index 99999"},
		{"quantile-order", strings.Replace(good, `"p50_ns":5,"p90_ns":5,"p99_ns":5,"max_ns":5,"mean_ns":5,"buckets":[{"index":5,"count":1}]},
"total"`, `"p50_ns":9,"p90_ns":5,"p99_ns":5,"max_ns":5,"mean_ns":5,"buckets":[{"index":5,"count":1}]},
"total"`, 1), "quantiles not monotone"},
		{"class-sum", strings.Replace(good, `"issued":1,"completed":1,"throughput`, `"issued":1,"completed":0,"throughput`, 1),
			"classes sum to"},
		// A second class of the same name once made the load gate
		// compare it with the first, so an archive regressed against
		// itself.
		{"class-duplicate", strings.Replace(good, `"classes":[`, `"classes":[`+use+",", 1),
			`classes[1].name: duplicate "use"`},
		{"lag-over-issued", strings.Replace(good, `"lag":{"count":1`, `"lag":{"count":3`, 1),
			"runs[0].lag: count 3 exceeds issued operations 1"},
		{"lag-missing", strings.Replace(good, `"lag":{"count":1,"p50_ns":5,"p90_ns":5,"p99_ns":5,"max_ns":5,"mean_ns":5,"buckets":[{"index":5,"count":1}]},`, "", 1),
			"runs[0].lag: count 0, want one per issued arrival (1)"},
		{"lag-closed-loop", strings.Replace(good, `"arrival":"poisson"`, `"arrival":"closed"`, 1),
			"runs[0].lag: present on a closed-loop run"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ingestLoad(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

// loadReportJSON builds a minimal valid one-run load report with the given
// throughput and per-class p99s (wait, total share the same value here).
func loadReportJSON(t *testing.T, tput float64, p99 int64) string {
	t.Helper()
	return fmt.Sprintf(`{"schema":"repro-load/v1","runs":[{"mechanism":"monitor","problem":"fcfs",
"arrival":"poisson","seed":1,"elapsed_ns":1000,"issued":1,"completed":1,"throughput_ops_sec":%g,"judged":false,
"lag":{"count":1,"p50_ns":5,"p90_ns":5,"p99_ns":5,"max_ns":5,"mean_ns":5,"buckets":[{"index":5,"count":1}]},
"classes":[{"name":"use","issued":1,"completed":1,"completed_share":1,"issued_share":1,
"wait":{"count":1,"p50_ns":%d,"p90_ns":%d,"p99_ns":%d,"max_ns":%d,"mean_ns":1,"buckets":[{"index":5,"count":1}]},
"total":{"count":1,"p50_ns":%d,"p90_ns":%d,"p99_ns":%d,"max_ns":%d,"mean_ns":1,"buckets":[{"index":5,"count":1}]}}]}]}`,
		tput, p99, p99, p99, p99, p99, p99, p99, p99)
}

// The load gate is direction-aware: lower throughput and higher p99 both
// regress; improvements on either axis pass; unmatched pairings skip.
func TestCompareLoadReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", loadReportJSON(t, 1000, 1_000_000))

	var out strings.Builder
	ok, err := compareLoadReports(base, write("same.json", loadReportJSON(t, 1000, 1_000_000)), 0.8, &out)
	if err != nil || !ok {
		t.Fatalf("identical reports: ok=%v err=%v\n%s", ok, err, out.String())
	}

	out.Reset()
	ok, err = compareLoadReports(base, write("slow.json", loadReportJSON(t, 500, 1_000_000)), 0.8, &out)
	if err != nil || ok {
		t.Fatalf("halved throughput passed: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(out.String(), "throughput_ops_sec") {
		t.Fatalf("missing throughput regression verdict:\n%s", out.String())
	}

	out.Reset()
	ok, err = compareLoadReports(base, write("lat.json", loadReportJSON(t, 1000, 10_000_000)), 0.8, &out)
	if err != nil || ok {
		t.Fatalf("10x p99 passed: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "total_p99_ns") {
		t.Fatalf("missing p99 regression verdict:\n%s", out.String())
	}

	// Better on both axes passes: direction-awareness, not change detection.
	out.Reset()
	ok, err = compareLoadReports(base, write("fast.json", loadReportJSON(t, 2000, 1_000_000)), 0.8, &out)
	if err != nil || !ok {
		t.Fatalf("doubled throughput failed: err=%v\n%s", err, out.String())
	}

	// Microsecond-scale p99 pairs are scheduler jitter, not queueing: a
	// 10x swing below the noise floor ratios to ~1 (both sides clamp up
	// to the floor) instead of flapping the gate.
	tiny := write("tiny-base.json", loadReportJSON(t, 1000, 5_000))
	out.Reset()
	ok, err = compareLoadReports(tiny, write("tiny-fresh.json", loadReportJSON(t, 1000, 50_000)), 0.8, &out)
	if err != nil || !ok {
		t.Fatalf("sub-floor latency jitter failed the gate: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "[floored]") {
		t.Fatalf("sub-floor pair not marked as floored:\n%s", out.String())
	}
	// ...but a genuine blowup past the floor still fails.
	out.Reset()
	ok, err = compareLoadReports(tiny, write("blowup.json", loadReportJSON(t, 1000, 10_000_000)), 0.8, &out)
	if err != nil || ok {
		t.Fatalf("5µs -> 10ms blowup passed: err=%v\n%s", err, out.String())
	}

	// A fresh run of a different pairing shares nothing: SKIP, then error
	// because no metric was compared at all.
	other := strings.Replace(loadReportJSON(t, 1000, 1_000_000), `"problem":"fcfs"`, `"problem":"bounded-buffer"`, 1)
	out.Reset()
	if _, err = compareLoadReports(base, write("other.json", other), 0.8, &out); err == nil {
		t.Fatalf("disjoint reports produced a verdict:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "SKIP") {
		t.Fatalf("disjoint pairing not SKIPped:\n%s", out.String())
	}

	// A corrupt baseline is a hard error, not a silent pass.
	if _, err = compareLoadReports(write("bad.json", `{"schema":"repro-load/v9","runs":[]}`), base, 0.8, io.Discard); err == nil {
		t.Fatal("invalid baseline accepted")
	}
}

// NDJSON soak streams ingest line by line: every snapshot validated, the
// final (last) report archived; one bad line rejects the stream.
func TestIngestLoadNDJSON(t *testing.T) {
	snap := strings.Replace(loadReportJSON(t, 400, 5), `"seed":1`, `"snapshot_seq":1,"seed":1`, 1)
	final := loadReportJSON(t, 900, 5)
	oneLine := func(s string) string { return strings.ReplaceAll(s, "\n", " ") }
	out, err := ingestLoad(strings.NewReader(oneLine(snap) + "\n" + oneLine(final) + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"throughput_ops_sec": 900`) {
		t.Fatalf("archived report is not the final line:\n%s", out)
	}
	if strings.Contains(string(out), "snapshot_seq") {
		t.Fatalf("archived report is a snapshot:\n%s", out)
	}
	bad := strings.Replace(oneLine(snap), "repro-load/v1", "repro-load/v0", 1)
	if _, err := ingestLoad(strings.NewReader(bad + "\n" + oneLine(final) + "\n")); err == nil ||
		!strings.Contains(err.Error(), "NDJSON line 1") {
		t.Fatalf("bad snapshot line accepted: %v", err)
	}
}

// renderBench writes b back as the bench line it was parsed from, its
// metrics in unit order.
func renderBench(b Benchmark) string {
	name := b.Name
	if b.CPUs > 0 {
		name += "-" + strconv.Itoa(b.CPUs)
	}
	units := make([]string, 0, len(b.Metrics))
	for u := range b.Metrics {
		units = append(units, u)
	}
	sort.Strings(units)
	line := fmt.Sprintf("%s\t%d", name, b.Iterations)
	for _, u := range units {
		line += fmt.Sprintf("\t%s %s", strconv.FormatFloat(b.Metrics[u], 'g', -1, 64), u)
	}
	return line + "\n"
}

// FuzzBenchText fuzzes the bench-text boundary: no input panics, a
// report parse accepts marshals, re-marshalling what it unmarshals to is
// byte-identical, and merging a report into itself changes nothing. It
// is seeded with the committed baseline's rows rendered back to bench
// text and with a NaN line, which parse once accepted and marshal then
// refused.
func FuzzBenchText(f *testing.F) {
	data, err := os.ReadFile("../../BENCH_explore.json")
	if err != nil {
		f.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		f.Fatal(err)
	}
	all := fmt.Sprintf("goos: %s\ngoarch: %s\npkg: %s\ncpu: %s\n", base.GoOS, base.GoArch, base.Package, base.CPU)
	for _, b := range base.Benchmarks {
		line := renderBench(b)
		f.Add(line)
		all += line
	}
	f.Add(all + "PASS\n")
	f.Add("BenchmarkX-2 1 NaN ns/op\n")
	f.Fuzz(func(t *testing.T, text string) {
		r, err := parse(bufio.NewScanner(strings.NewReader(text)))
		if err != nil {
			return
		}
		out, err := marshal(r)
		if err != nil {
			t.Fatalf("parse accepted a report marshal refuses: %v", err)
		}
		var back Report
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("marshalled report does not unmarshal: %v", err)
		}
		if again, err := marshal(back); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("re-marshalled report differs (err %v):\n%s\nwant\n%s", err, again, out)
		}
		if merged, err := marshal(mergeReports(r, r)); err != nil || !bytes.Equal(merged, out) {
			t.Fatalf("report merged into itself differs (err %v):\n%s\nwant\n%s", err, merged, out)
		}
	})
}

// FuzzLoadIngest fuzzes the load-report boundary: no input panics,
// an archive ingestLoad accepts re-ingests byte for byte, and the load
// gate compares an accepted archive with itself without a REGRESSION,
// even at tolerance 1; its one allowed error is that no run has a gated
// metric to compare. It is seeded with a one-run report, a two-line
// NDJSON soak (a snapshot, then the final report), and a report whose
// open-loop run carries a generator lag beside a closed-loop run without
// one.
func FuzzLoadIngest(f *testing.F) {
	oneLine := strings.ReplaceAll(goodLoad, "\n", " ")
	snap := strings.Replace(oneLine, `"seed":1`, `"snapshot_seq":1,"seed":1`, 1)
	f.Add([]byte(goodLoad))
	f.Add([]byte(snap + "\n" + oneLine + "\n"))
	run := goodLoad[strings.Index(goodLoad, `{"mechanism"`) : len(goodLoad)-len("]}")]
	lagLine := run[strings.Index(run, `"lag"`):strings.Index(run, `"classes"`)]
	closed := strings.Replace(strings.Replace(run, lagLine, "", 1), `"arrival":"poisson"`, `"arrival":"closed"`, 1)
	f.Add([]byte(`{"schema":"repro-load/v1","runs":[` + run + "," + closed + "]}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := ingestLoad(bytes.NewReader(data))
		if err != nil {
			return
		}
		if again, err := ingestLoad(bytes.NewReader(out)); err != nil || !bytes.Equal(again, out) {
			t.Fatalf("accepted archive does not re-ingest byte for byte (err %v):\n%s\nwant\n%s", err, again, out)
		}
		path := filepath.Join(t.TempDir(), "archive.json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		var w strings.Builder
		ok, err := compareLoadReports(path, path, 1, &w)
		if err != nil {
			if !strings.Contains(err.Error(), "no load runs with a gated metric in common") {
				t.Fatalf("accepted archive compared with itself: %v", err)
			}
			return
		}
		if !ok || strings.Contains(w.String(), "REGRESSION") {
			t.Fatalf("accepted archive regresses against itself:\n%s\narchive:\n%s", w.String(), out)
		}
	})
}
