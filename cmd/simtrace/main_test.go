package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden outputs")

// TestGolden locks simtrace's stdout and exit status byte for byte on the
// Figure-1 hunt (found by the streaming oracle, shrunk to three choices)
// and on the replay of the committed Figure-1 artifact. Regenerate with
//
//	go test ./cmd/simtrace -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		status int
	}{
		{"explore-shrink", []string{"-mech", "pathexpr", "-problem", "readers-priority",
			"-explore", "-shrink", "-quiet", "-workers", "1"}, 1},
		{"replay-figure1", []string{"-replay",
			filepath.Join("..", "..", "internal", "explore", "testdata", "figure1.sched"), "-quiet"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != tc.status {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.status, errb.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output drifted from %s (run with -update if the change is intended)\n--- got ---\n%s", golden, out.String())
			}
		})
	}
}

// TestUsageError pins the exit status of an unknown flag.
func TestUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogus-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
