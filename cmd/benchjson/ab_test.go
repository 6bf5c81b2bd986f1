package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	cases := []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 1.25, 1.5, 1.75},
		{[]float64{5, 1, 3, 2, 4}, 2, 3, 4},
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 3.25, 5.5, 7.75},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestCompareABVerdicts(t *testing.T) {
	higher := abMetric{Name: "throughput_per_s", Better: "higher", Bound: 0.25}
	lower := abMetric{Name: "wall_s", Better: "lower", Bound: 0.25}
	seq := func(from, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = from + step*float64(i)
		}
		return out
	}
	cases := []struct {
		name         string
		m            abMetric
		base, change []float64
		wins         int
		verdict      string
	}{
		// Every pair wins by 20 against a base IQR of 4.5: a gain.
		{"gain", higher, seq(100, 1), seq(120, 1), 10, "gain"},
		// Lower is better: the same shift downwards is a gain too.
		{"gain-lower", lower, seq(120, 1), seq(100, 1), 10, "gain"},
		// 8 wins of 10 is not enough however large the gap.
		{"eight-wins", higher, seq(100, 1), append(seq(120, 1)[:8], 0, 0), 8, "within bound"},
		// All 10 win, but by less than the base's IQR.
		{"gap-inside-iqr", higher, seq(100, 1), seq(101, 1), 10, "within bound"},
		// 30% worse than the base median, beyond the 0.25 bound.
		{"worse", lower, seq(100, 0), seq(130, 0), 0, "worse"},
		{"worse-higher", higher, seq(100, 0), seq(70, 0), 0, "worse"},
		// A 10% loss inside the bound, tight spread.
		{"within", higher, seq(100, 0), seq(90, 0), 0, "within bound"},
		// Identical values tie: no wins for either side.
		{"ties", higher, seq(5, 0), seq(5, 0), 0, "within bound"},
		// The change's runs spread over more than the bound.
		{"unresolved", higher, seq(100, 0), seq(60, 10), 5, "unresolved"},
	}
	for _, c := range cases {
		st := compareAB(c.m, c.base, c.change)
		if st.wins != c.wins || st.verdict != c.verdict || st.n != len(c.base) {
			t.Errorf("%s: wins %d/%d verdict %q, want %d/%d %q", c.name, st.wins, st.n, st.verdict, c.wins, len(c.base), c.verdict)
		}
	}
}

// abLine renders one run line as make ab writes it.
func abLine(workload string, pair int, side string, tput float64, correct bool) string {
	return fmt.Sprintf(`{"workload":%q,"seed":1,"pair":%d,"side":%q,"result":{"correct":%v,"attempted":10,"failed":0,`+
		`"metrics":{"throughput_per_s":{"value":%g,"unit":"1/s"},"wall_s":{"value":2,"unit":"s"}}}}`, workload, pair, side, correct, tput)
}

func TestReadABRunsRejectsMalformed(t *testing.T) {
	good := abLine("fuzz", 1, "base", 100, true)
	cases := []struct {
		name, in, want string
	}{
		{"syntax", good + "\n{\"workload\":\n", "line 2:"},
		{"trailing-garbage", good + "\n\n" + good + "x\n", "line 3:"},
		{"side", good + "\n" + strings.Replace(good, `"base"`, `"left"`, 1), `line 2: side "left"`},
		{"pair", strings.Replace(good, `"pair":1`, `"pair":0`, 1), "line 1: pair 0"},
		{"workload", strings.Replace(good, `"fuzz"`, `""`, 1), "line 1: no workload"},
		{"metrics", `{"workload":"fuzz","pair":1,"side":"base","result":{"correct":true}}`, "line 1: result has no metrics"},
		{"duplicate", good + "\n" + abLine("fuzz", 2, "base", 1, true) + "\n" + good, "line 3: fuzz seed 1 pair 1 base run already on line 1"},
		{"type", strings.Replace(good, `"pair":1`, `"pair":"1"`, 1), "line 1:"},
		{"empty", "\n\n", "no runs"},
		{"negative-metric", good + "\n" + abLine("fuzz", 1, "change", -5, true), `line 2: metric "throughput_per_s" is -5, want 0 or more`},
		{"negative-count", strings.Replace(good, `"failed":0`, `"failed":-1`, 1), "line 1: negative count (attempted 10, failed -1)"},
		{"workload-space", strings.Replace(good, `"fuzz"`, `"fuzz\nhunt"`, 1), `line 1: workload "fuzz\nhunt" has a space or control character`},
	}
	for _, c := range cases {
		_, err := readABRuns([]byte(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestABReport(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end":[`+
		`{"name":"wall_s","unit":"s","better":"lower","bound":0.25},`+
		`{"name":"throughput_per_s","unit":"1/s","better":"higher","bound":0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for p := 1; p <= 10; p++ {
		lines = append(lines, abLine("fuzz", p, "base", 100+float64(p), true), abLine("fuzz", p, "change", 130+float64(p), true))
	}
	lines = append(lines, abLine("fuzz", 11, "base", 1, true)) // an interrupted pair
	runs := filepath.Join(dir, "ab.ndjson")
	write := func(lines []string) {
		if err := os.WriteFile(runs, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(lines)
	var out strings.Builder
	ok, err := abReport(spec, runs, &out)
	if err != nil || !ok {
		t.Fatalf("abReport = %v, %v\n%s", ok, err, out.String())
	}
	for _, want := range []string{
		"fuzz seed 1: 10 pairs (pairs [11] have one side only, skipped)",
		"throughput_per_s   105.5 [103.25-107.75]",
		"1.2844  10/10  gain",
		"wall_s", "1.0000   0/10  within bound",
		"error_rate         base 0 (0 of 100)   change 0 (0 of 100)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}

	// A run that was not correct fails the comparison.
	lines[3] = abLine("fuzz", 2, "change", 132, false)
	write(lines)
	out.Reset()
	if ok, err := abReport(spec, runs, &out); err != nil || ok || !strings.Contains(out.String(), "pair 2 change: run not correct") {
		t.Fatalf("abReport with a failed run = %v, %v\n%s", ok, err, out.String())
	}
}

// A zero base median has no ratio: the report prints "-" where the
// ratio of zero to zero used to print NaN.
func TestABReportZeroBase(t *testing.T) {
	metrics := []abMetric{{Name: "throughput_per_s", Better: "higher", Bound: 0.25}}
	var lines []string
	for p := 1; p <= 3; p++ {
		lines = append(lines, abLine("fuzz", p, "base", 0, true), abLine("fuzz", p, "change", 0, true))
	}
	runs, err := readABRuns([]byte(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	reportAB(metrics, runs, &out)
	if !strings.Contains(out.String(), "0 [0-0]                                  -    0/3  within bound") {
		t.Fatalf("zero base median printed a ratio:\n%s", out.String())
	}
}

// FuzzABIngest fuzzes benchjson's -ab input, readABRuns then the report
// abReport prints, on BENCHMARK.json's end-to-end metrics: no input
// panics, the same bytes give the same report, and no line the report
// makes itself (the indented ones; a workload name holds no space)
// prints NaN or Inf.
func FuzzABIngest(f *testing.F) {
	metrics, err := readABMetrics("../../BENCHMARK.json")
	if err != nil {
		f.Fatal(err)
	}
	full := `{"workload":"fuzz","seed":1,"pair":1,"side":"base","result":{"correct":true,"attempted":4214,"failed":0,"metrics":{`
	for i, m := range metrics {
		if i > 0 {
			full += ","
		}
		full += fmt.Sprintf(`%q:{"value":%d,"unit":"x"}`, m.Name, i+1)
	}
	full += "}}}"
	var pairs []string
	for p := 1; p <= 4; p++ {
		pairs = append(pairs, abLine("fuzz", p, "base", 100+float64(p), true), abLine("fuzz", p, "change", 120, p != 3))
	}
	f.Add([]byte(strings.Join(pairs, "\n") + "\n"))
	f.Add([]byte(full + "\n" + strings.Replace(full, `"base"`, `"change"`, 1) + "\n"))
	f.Add([]byte(abLine("hunt", 1, "base", 0, true) + "\n" + abLine("hunt", 1, "change", 0, true) + "\n"))
	f.Add([]byte(abLine("hunt", 1, "base", 0, true) + "\n" + abLine("hunt", 1, "change", -5, true) + "\n"))
	f.Add([]byte(abLine("load", 1, "base", 5e-324, true) + "\n" + abLine("load", 1, "change", 1e308, true) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := readABRuns(data)
		if err != nil {
			return
		}
		var a, b strings.Builder
		okA := reportAB(metrics, runs, &a)
		again, err := readABRuns(data)
		if err != nil {
			t.Fatalf("second read of the same bytes failed: %v", err)
		}
		if okB := reportAB(metrics, again, &b); okA != okB || a.String() != b.String() {
			t.Fatalf("the same bytes gave two reports (%v, %v):\n%s\n%s", okA, okB, a.String(), b.String())
		}
		for _, line := range strings.Split(a.String(), "\n") {
			if strings.HasPrefix(line, "  ") && (strings.Contains(line, "NaN") || strings.Contains(line, "Inf")) {
				t.Fatalf("report prints a non-finite number:\n%s", a.String())
			}
		}
	})
}
