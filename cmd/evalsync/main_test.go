package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/explore"
)

var update = flag.Bool("update", false, "rewrite the golden report")

// TestReportGolden locks the T1–T7 text report byte for byte: every
// table, rating, and measured number in the deterministic part of the
// report is part of the reproduction's contract. Regenerate with
//
//	go test ./cmd/evalsync -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, id := range []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7"} {
		contradictions, err := writeReport(&buf, id, false, explore.Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, c := range contradictions {
			t.Errorf("%s: %s", id, c)
		}
	}
	golden := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from %s (run with -update if the change is intended)\n--- got ---\n%s", golden, buf.String())
	}
}

// TestT9Golden locks the T9 table, the synth corpus sweep evalsync shares
// with syncfuzz, byte for byte. T9 is opt-in, so TestReportGolden does
// not reach it. Regenerate with
//
//	go test ./cmd/evalsync -run TestT9Golden -update
func TestT9Golden(t *testing.T) {
	var buf bytes.Buffer
	contradictions, err := writeReport(&buf, "T9", false, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range contradictions {
		t.Errorf("T9: %s", c)
	}
	golden := filepath.Join("testdata", "t9.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("T9 drifted from %s (run with -update if the change is intended)\n--- got ---\n%s", golden, buf.String())
	}
}

// TestUnknownExperiment pins the error path.
func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeReport(&buf, "T99", false, explore.Options{}); err == nil {
		t.Fatal("want error for unknown experiment id")
	}
}
