package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
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

// TestReplayDirectory replays a directory holding sealed artifacts of
// every scenario the repository seals: the committed figure and xcheck
// artifacts beside internal/eval's synth deadlock, naive-gate violation
// and clean standard schedule. Every one must verify; one damaged file
// fails the directory without hiding the others, and an empty directory
// is an error.
func TestReplayDirectory(t *testing.T) {
	dir := t.TempDir()
	n := 0
	for _, src := range []string{
		filepath.Join("..", "..", "internal", "explore", "testdata"),
		filepath.Join("..", "..", "internal", "eval", "testdata"),
	} {
		files, err := filepath.Glob(filepath.Join(src, "*.sched"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-replay", dir, "-quiet"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	if got := strings.Count(out.String(), "replay ok: "); got != n {
		t.Errorf("%d of %d artifacts replayed ok:\n%s", got, n, out.String())
	}
	for _, sc := range []string{"/figure,", "/standard,", "/synth,", "/xcheck,"} {
		if !strings.Contains(out.String(), sc) {
			t.Errorf("no %s artifact replayed:\n%s", sc, out.String())
		}
	}

	damaged, err := explore.ReadSchedFile(filepath.Join(dir, "figure1.sched"))
	if err != nil {
		t.Fatal(err)
	}
	damaged.Fingerprint = "0000000000000000"
	if err := damaged.WriteFile(filepath.Join(dir, "figure1-damaged.sched")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-replay", dir, "-quiet"}, &out, &errb); code != 1 {
		t.Fatalf("with a damaged artifact: exit %d, want 1", code)
	}
	if got := strings.Count(out.String(), "replay ok: "); got != n {
		t.Errorf("with a damaged artifact: %d of %d good artifacts replayed ok", got, n)
	}
	if !strings.Contains(errb.String(), "figure1-damaged.sched") {
		t.Errorf("stderr does not name the damaged artifact: %s", errb.String())
	}

	if code := run([]string{"-replay", t.TempDir()}, &out, &errb); code != 1 {
		t.Errorf("empty directory: exit %d, want 1", code)
	}
}

// TestUsageError pins the exit status of an unknown flag.
func TestUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogus-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}
