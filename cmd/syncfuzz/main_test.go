package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/explore"
)

var update = flag.Bool("update", false, "rewrite the golden summary")

// TestSummaryGolden locks the repro-fuzz/v1 summary of the make fuzz
// window (-n 8 -seed 26 at the default budgets) byte for byte. Its
// random-phase schedules are named by seed, so the summary pins the
// seed-to-schedule mapping end to end: a change to the random policy's
// stream, the search, or a mechanism shows up here. Regenerate with
//
//	go test ./cmd/syncfuzz -run TestSummaryGolden -update
func TestSummaryGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-n", "8", "-seed", "26", "-quiet", "-summary", "-"}, &out, &errb); code != 0 {
		t.Fatalf("fuzz: exit %d, stderr: %s", code, errb.String())
	}
	golden := filepath.Join("testdata", "summary.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("summary drifted from %s (run with -update if the change is intended)\n--- got ---\n%s", golden, out.String())
	}
}

// TestSummaryIsWorkersInvariant pins the determinism contract: the same
// corpus seed and budgets produce a byte-identical summary regardless of
// exploration parallelism.
func TestSummaryIsWorkersInvariant(t *testing.T) {
	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "w1.json"), filepath.Join(dir, "w4.json")}
	for i, workers := range []string{"1", "4"} {
		var out, errb bytes.Buffer
		code := run([]string{
			"-n", "4", "-seed", "11", "-runs", "40", "-dfs", "30",
			"-workers", workers, "-quiet", "-summary", paths[i],
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("workers=%s: exit %d, stderr: %s", workers, code, errb.String())
		}
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("summaries differ between -workers 1 and 4:\n--- w1 ---\n%s\n--- w4 ---\n%s", a, b)
	}
	if !strings.Contains(string(a), `"schema": "repro-fuzz/v1"`) {
		t.Fatalf("summary missing schema tag:\n%s", a)
	}
}

// TestSealAndReplayRoundTrip fuzzes a corpus window known to produce
// findings (the naive-gate control is always in the sweep), seals them,
// and verifies every artifact against the program the shared resolver
// (eval.ScenarioProgram, which simtrace -replay uses) rebuilds for it.
func TestSealAndReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "artifacts")
	var out, errb bytes.Buffer
	code := run([]string{
		"-n", "8", "-seed", "26", "-runs", "120", "-dfs", "60",
		"-quiet", "-o", art, "-summary", filepath.Join(dir, "s.json"),
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("fuzz: exit %d, stderr: %s", code, errb.String())
	}
	files, err := filepath.Glob(filepath.Join(art, "*.sched"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no sealed artifacts produced (err %v) — corpus window no longer yields findings?", err)
	}
	for _, path := range files {
		f, err := explore.ReadSchedFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, oracle, err := eval.ScenarioProgram(f.Mechanism, f.Problem, f.Scenario)
		if err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
			continue
		}
		if _, _, err := f.Verify(prog, oracle); err != nil {
			t.Errorf("%s does not verify: %v", filepath.Base(path), err)
		}
	}
}

// TestUsageErrors pins the exit-code contract for bad invocations.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-steps", "-1"},
		{"-mech", "quantum"},
		{"-bogus-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
