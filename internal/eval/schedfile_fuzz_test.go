package eval

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/explore"
)

// fuzzMaxSteps caps the kernel steps of one fuzzed replay, so an
// artifact that names a long or endless run costs milliseconds.
const fuzzMaxSteps = 1 << 14

// verifyCapped resolves a sealed artifact's program, as simtrace -replay
// does, and verifies the artifact against it with MaxSteps capped at
// fuzzMaxSteps.
func verifyCapped(f *explore.SchedFile) error {
	prog, oracle, err := ScenarioProgram(f.Mechanism, f.Problem, f.Scenario)
	if err != nil {
		return err
	}
	capped := *f
	if capped.MaxSteps <= 0 || capped.MaxSteps > fuzzMaxSteps {
		capped.MaxSteps = fuzzMaxSteps
	}
	_, _, err = capped.Verify(prog, oracle)
	return err
}

// FuzzSchedFile drives arbitrary bytes through the sealed-artifact
// boundary: ReadSchedFile, then ScenarioProgram, then Verify. An input
// ReadSchedFile accepts must round-trip: WriteFile and a second read
// give an equal value, and writing that value again gives the same
// bytes. Resolving and verifying it must return a program, nil or an
// error, never panic. The seeds are the committed artifacts, and each
// must verify.
func FuzzSchedFile(f *testing.F) {
	var paths []string
	for _, dir := range []string{"testdata", filepath.Join("..", "explore", "testdata")} {
		found, err := filepath.Glob(filepath.Join(dir, "*.sched"))
		if err != nil {
			f.Fatal(err)
		}
		paths = append(paths, found...)
	}
	if len(paths) < 5 {
		f.Fatalf("want the 5 committed .sched artifacts as seeds, found %v", paths)
	}
	for _, path := range paths {
		sf, err := explore.ReadSchedFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if err := verifyCapped(sf); err != nil {
			f.Fatalf("seed %s does not verify: %v", path, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in, first, second := filepath.Join(dir, "in"), filepath.Join(dir, "first"), filepath.Join(dir, "second")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := explore.ReadSchedFile(in)
		if err != nil {
			return // rejected with a diagnostic
		}
		if err := sf.WriteFile(first); err != nil {
			t.Fatalf("accepted artifact does not write: %v", err)
		}
		again, err := explore.ReadSchedFile(first)
		if err != nil {
			t.Fatalf("written artifact does not read back: %v", err)
		}
		if !reflect.DeepEqual(sf, again) {
			t.Fatalf("round trip changed the artifact:\n%+v\n%+v", sf, again)
		}
		if err := again.WriteFile(second); err != nil {
			t.Fatal(err)
		}
		a, errA := os.ReadFile(first)
		b, errB := os.ReadFile(second)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("second encoding differs:\n%s\n%s", a, b)
		}
		_ = verifyCapped(again) // nil or an error; a panic fails the target
	})
}
