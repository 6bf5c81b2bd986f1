package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/load"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "explore.run", id: 1, start: 0, end: 100},
		// Overlapping children count once; the part of a child outside
		// its parent is not charged to the parent.
		{name: "problems.oracle", id: 2, parent: 1, start: 10, end: 30},
		{name: "synth.program", id: 3, parent: 1, start: 20, end: 50},
		{name: "synth.program", id: 4, parent: 1, start: 90, end: 120},
		// A grandchild is its parent's child only.
		{name: "problems.oracle", id: 5, parent: 3, start: 25, end: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	busy, selfByLayer := layerTimes(spans)
	if busy["synth"] != 60 || busy["problems"] != 25 || busy["explore"] != 100 {
		t.Errorf("layer busy = %v, want synth 60, problems 25, explore 100", busy)
	}
	if selfByLayer["synth"] != 50 || selfByLayer["problems"] != 30 {
		t.Errorf("layer self = %v, want synth 50, problems 30", selfByLayer)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id := tr.begin("explore.run", 0)
	tr.end(id)
	tr.add("problems.stream", 5)
	if id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	if err := checkDefs(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []metricDef{
		{"_wall", "s", "lower"},
		{"wall s", "s", "lower"},
		{"wall_s", "seconds per op!", "lower"},
		{"wall_s", "s", "smaller"},
	} {
		if checkDefs([]metricDef{bad}) == nil {
			t.Errorf("checkDefs accepted %+v", bad)
		}
	}
	if checkDefs([]metricDef{{"a", "s", "lower"}, {"a", "s", "lower"}}) == nil {
		t.Error("checkDefs accepted a duplicate name")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if newWorkload(w.Name, 1) == nil {
			t.Errorf("workload %s: not recognised by the program", w.Name)
		}
	}
	if newWorkload("nosuch", 1) != nil {
		t.Error("an unknown workload name was accepted")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Error("p90 of 99 samples reported with only 9 beyond it")
	}
	xs = append(xs, 100)
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(xs, 0.5); !ok || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}

	var h load.Histogram
	for i := 1; i <= 99; i++ {
		h.Record(int64(i) * 1000)
	}
	if _, ok := histQuantile(&h, 0.9); ok {
		t.Error("histogram p90 of 99 samples reported with only 9 beyond it")
	}
	h.Record(100_000)
	v, ok := histQuantile(&h, 0.9)
	if !ok || math.Abs(v-90_000)/90_000 > 0.04 {
		t.Errorf("histogram p90 of 1..100 µs = %v ns, %v; want 90000 within the 3%% bucket width", v, ok)
	}
}

// TestPlantedWrongVerdictFails plants a wrong known answer: the Figure-1
// hunt is declared clean, so its finding must count as a failure.
func TestPlantedWrongVerdictFails(t *testing.T) {
	cells, err := huntCells(1)
	if err != nil {
		t.Fatal(err)
	}
	paper := cells[:4]
	b := &bench{out: io.Discard}
	b.record("honest", runHunt(paper, 0, nil, &exploreAcc{}))
	if len(b.failures) != 0 {
		t.Fatalf("the paper's answers fail: %v", b.failures)
	}
	planted := append([]huntCell(nil), paper...)
	planted[0].want = wantClean
	p := runHunt(planted, 0, nil, &exploreAcc{})
	b = &bench{out: io.Discard}
	b.record("planted", p)
	if len(b.failures) != 1 || p.attempted != 4 {
		t.Fatalf("planted wrong verdict: %d failures of %d attempted, want 1 of 4: %v", len(b.failures), p.attempted, b.failures)
	}
}

// TestHuntDeterministicAcrossWorkers is the determinism self-check in
// small: the same cells give the same digest and schedule count at one
// worker and at the default.
func TestHuntDeterministicAcrossWorkers(t *testing.T) {
	cells, err := huntCells(3)
	if err != nil {
		t.Fatal(err)
	}
	cells = cells[:4]
	b := &bench{out: io.Discard}
	b.record("default", runHunt(cells, 0, nil, &exploreAcc{}))
	b.record("workers=1", runHunt(cells, 1, nil, &exploreAcc{}))
	b.record("traced", runHunt(cells, 0, newTracer(), &exploreAcc{}))
	if len(b.failures) != 0 {
		t.Fatal(b.failures)
	}
}

// The metric name and unit grammar of the benchmark contract.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q breaks the name grammar", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %s: unit %q breaks the unit grammar", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, not %q", d.name, d.better)
		}
		if seen[d.name] {
			return fmt.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}
