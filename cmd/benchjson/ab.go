package main

// A/B comparison of perfbench runs: benchjson -ab BENCHMARK.json runs.ndjson.
//
// The NDJSON file is what `make ab` (scripts/ab.sh) appends: one line
// per perfbench run, wrapping perfbench's own JSON result line,
//
//	{"workload":"fuzz","seed":1,"pair":3,"side":"base","result":{...}}
//
// Runs are grouped by (workload, seed), and within a group a base run
// and a change run with the same pair number form a pair. For each
// end-to-end metric BENCHMARK.json declares, the comparison prints both
// sides' medians with quartiles, the median ratio, the change's wins out
// of the pairs (ties count for neither side) and a verdict, taking the
// metric's direction and bound from BENCHMARK.json:
//
//   - gain: at least 9 wins in 10, and the median moved the better way
//     by more than the base's interquartile range
//   - worse: the median moved the worse way by more than the bound
//   - unresolved: either side's interquartile range exceeds the bound
//     relative to its median, so the runs spread too widely to tell
//   - within bound: otherwise

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"unicode"
)

// abMetric is one BENCHMARK.json end-to-end metric.
type abMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// abRun is one NDJSON line.
type abRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Pair     int    `json:"pair"`
	Side     string `json:"side"`
	Result   struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// readABMetrics loads BENCHMARK.json's end-to-end metric list.
func readABMetrics(path string) ([]abMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []abMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	for _, m := range spec.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || !(m.Bound > 0) {
			return nil, fmt.Errorf("%s: metric %q: better must be lower or higher and bound positive", path, m.Name)
		}
	}
	return spec.EndToEnd, nil
}

// readABRuns parses the NDJSON runs, rejecting a malformed line with its
// line number: bad JSON, a workload name with a space or control
// character, an unknown side, a pair number below 1, a negative count, a
// result without metrics or with a negative metric value, or a second run
// for the same workload, seed, pair and side.
func readABRuns(data []byte) ([]abRun, error) {
	var runs []abRun
	seen := map[string]int{}
	for i, line := range bytes.Split(data, []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r abRun
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("line %d: %v", i+1, err)
		}
		switch {
		case r.Workload == "":
			return nil, fmt.Errorf("line %d: no workload", i+1)
		case strings.ContainsFunc(r.Workload, func(c rune) bool { return unicode.IsSpace(c) || unicode.IsControl(c) }):
			return nil, fmt.Errorf("line %d: workload %q has a space or control character", i+1, r.Workload)
		case r.Side != "base" && r.Side != "change":
			return nil, fmt.Errorf("line %d: side %q, want base or change", i+1, r.Side)
		case r.Pair < 1:
			return nil, fmt.Errorf("line %d: pair %d, want 1 or more", i+1, r.Pair)
		case r.Result.Attempted < 0 || r.Result.Failed < 0:
			return nil, fmt.Errorf("line %d: negative count (attempted %d, failed %d)", i+1, r.Result.Attempted, r.Result.Failed)
		case len(r.Result.Metrics) == 0:
			return nil, fmt.Errorf("line %d: result has no metrics", i+1)
		}
		neg, negative := "", false // the first negative metric by name
		for name, m := range r.Result.Metrics {
			if m.Value < 0 && (!negative || name < neg) {
				neg, negative = name, true
			}
		}
		if negative {
			return nil, fmt.Errorf("line %d: metric %q is %g, want 0 or more", i+1, neg, r.Result.Metrics[neg].Value)
		}
		k := fmt.Sprintf("%s seed %d pair %d %s", r.Workload, r.Seed, r.Pair, r.Side)
		if prev, dup := seen[k]; dup {
			return nil, fmt.Errorf("line %d: %s run already on line %d", i+1, k, prev)
		}
		seen[k] = i + 1
		runs = append(runs, r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no runs")
	}
	return runs, nil
}

// quartiles returns the first quartile, median and third quartile of
// vs, interpolating linearly between order statistics.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// abStat is one metric's comparison over n pairs.
type abStat struct {
	base, change [3]float64 // q1, median, q3
	ratio        float64    // change median / base median
	wins, n      int
	verdict      string
}

// compareAB judges one metric over paired values (base[i] pairs with
// change[i]).
func compareAB(m abMetric, base, change []float64) abStat {
	st := abStat{n: len(base)}
	st.base[0], st.base[1], st.base[2] = quartiles(base)
	st.change[0], st.change[1], st.change[2] = quartiles(change)
	lower := m.Better == "lower"
	for i := range base {
		if lower && change[i] < base[i] || !lower && change[i] > base[i] {
			st.wins++
		}
	}
	bm, cm := st.base[1], st.change[1]
	// NaN or +Inf when bm is 0, or +Inf past the float64 range; the
	// report prints no ratio then.
	st.ratio = cm / bm
	gap := cm - bm // how far the change moved the better way
	if lower {
		gap = -gap
	}
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	switch {
	case st.wins*10 >= 9*st.n && gap > st.base[2]-st.base[0]:
		st.verdict = "gain"
	case -gap > m.Bound*math.Abs(bm):
		st.verdict = "worse"
	case spread(st.base) > m.Bound || spread(st.change) > m.Bound:
		st.verdict = "unresolved"
	default:
		st.verdict = "within bound"
	}
	return st
}

// abReport compares every (workload, seed) group in the runs file on
// the end-to-end metrics and reports whether all is well: no metric
// worse beyond its bound and every run correct.
func abReport(metricsPath, runsPath string, w io.Writer) (bool, error) {
	metrics, err := readABMetrics(metricsPath)
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(runsPath)
	if err != nil {
		return false, err
	}
	runs, err := readABRuns(data)
	if err != nil {
		return false, fmt.Errorf("%s: %v", runsPath, err)
	}
	return reportAB(metrics, runs, w), nil
}

// reportAB writes abReport's comparison of runs to w.
func reportAB(metrics []abMetric, runs []abRun, w io.Writer) bool {
	type group struct {
		workload string
		seed     int64
	}
	var groups []group
	byPair := map[group]map[int][2]*abRun{}
	for i := range runs {
		r := &runs[i]
		g := group{r.Workload, r.Seed}
		if byPair[g] == nil {
			byPair[g] = map[int][2]*abRun{}
			groups = append(groups, g)
		}
		p := byPair[g][r.Pair]
		if r.Side == "base" {
			p[0] = r
		} else {
			p[1] = r
		}
		byPair[g][r.Pair] = p
	}
	ok := true
	for _, g := range groups {
		var pairs [][2]*abRun
		var unpaired []int
		for n, p := range byPair[g] {
			if p[0] == nil || p[1] == nil {
				unpaired = append(unpaired, n)
				continue
			}
			pairs = append(pairs, p)
		}
		slices.SortFunc(pairs, func(a, b [2]*abRun) int { return a[0].Pair - b[0].Pair })
		slices.Sort(unpaired)
		fmt.Fprintf(w, "%s seed %d: %d pairs", g.workload, g.seed, len(pairs))
		if len(unpaired) > 0 {
			fmt.Fprintf(w, " (pairs %v have one side only, skipped)", unpaired)
		}
		fmt.Fprintln(w)
		if len(pairs) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-18s %-34s %-34s %7s %6s  %s\n", "metric", "base median [q1-q3]", "change median [q1-q3]", "ratio", "wins", "verdict")
		for _, m := range metrics {
			var base, change []float64
			for _, p := range pairs {
				b, okb := p[0].Result.Metrics[m.Name]
				c, okc := p[1].Result.Metrics[m.Name]
				if okb && okc {
					base = append(base, b.Value)
					change = append(change, c.Value)
				}
			}
			if len(base) < len(pairs) {
				fmt.Fprintf(w, "  %-18s missing from %d of %d pairs, skipped\n", m.Name, len(pairs)-len(base), len(pairs))
				continue
			}
			st := compareAB(m, base, change)
			q := func(v [3]float64) string { return fmt.Sprintf("%.6g [%.6g-%.6g]", v[1], v[0], v[2]) }
			ratio := "-" // a zero base median has no ratio
			if !math.IsNaN(st.ratio) && !math.IsInf(st.ratio, 0) {
				ratio = fmt.Sprintf("%.4f", st.ratio)
			}
			fmt.Fprintf(w, "  %-18s %-34s %-34s %7s %6s  %s\n", m.Name, q(st.base), q(st.change), ratio,
				fmt.Sprintf("%d/%d", st.wins, st.n), st.verdict)
			if st.verdict == "worse" {
				ok = false
			}
		}
		var failed, attempted [2]int64
		for _, p := range pairs {
			for side, r := range p {
				failed[side] += r.Result.Failed
				attempted[side] += r.Result.Attempted
				if !r.Result.Correct {
					ok = false
					fmt.Fprintf(w, "  pair %d %s: run not correct\n", r.Pair, r.Side)
				}
			}
		}
		fmt.Fprintf(w, "  %-18s base %.4g (%d of %d)   change %.4g (%d of %d)\n", "error_rate",
			float64(failed[0])/float64(max(attempted[0], 1)), failed[0], attempted[0],
			float64(failed[1])/float64(max(attempted[1], 1)), failed[1], attempted[1])
		if failed[1]*max(attempted[0], 1) > failed[0]*max(attempted[1], 1) {
			ok = false
		}
	}
	return ok
}
