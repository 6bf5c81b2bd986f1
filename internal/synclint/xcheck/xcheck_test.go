package xcheck

import (
	"path/filepath"
	"testing"

	"repro/internal/explore"
	"repro/internal/synclint"
	"repro/internal/synclint/xcheck/cyclicfix"
)

// TestGateEndToEnd runs the whole cross-validation gate with a modest
// budget: the seeded fixture must be flagged statically, confirmed
// dynamically, and sealed as a replayable artifact; the solution
// findings (all reasoned allows) must stay unrealized, backing their
// reasons with a budgeted hunt.
func TestGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rows, err := Run(explore.Options{RandomRuns: 60, DFSRuns: 200}, dir)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var fixture *Row
	for i := range rows {
		r := &rows[i]
		switch r.Mechanism {
		case FixtureMechanism:
			if fixture == nil {
				fixture = r
			}
		default:
			if r.Status == "confirmed" {
				t.Errorf("solution finding unexpectedly realized: %+v", r)
			}
			if r.Status == "unmapped" {
				t.Errorf("solution finding did not map to a standard workload: %+v", r)
			}
		}
	}
	if fixture == nil {
		t.Fatalf("lockorder produced no finding on the seeded fixture; rows: %+v", rows)
	}
	if fixture.Status != "confirmed" {
		t.Fatalf("fixture finding not confirmed by the hunt: %+v", *fixture)
	}
	if fixture.SchedPath == "" {
		t.Fatalf("confirmed fixture finding has no sealed artifact")
	}

	// The sealed artifact must replay with full drift detection.
	f, err := explore.ReadSchedFile(fixture.SchedPath)
	if err != nil {
		t.Fatalf("read sealed artifact: %v", err)
	}
	if f.KernelError != explore.KernelErrDeadlock {
		t.Fatalf("fixture artifact records %q, want deadlock", f.KernelError)
	}
	if _, _, err := f.Verify(cyclicfix.Program, nilOracle); err != nil {
		t.Fatalf("sealed artifact does not replay: %v", err)
	}

	// The miss audit over the sealed artifact must classify it as a
	// statically flagged deadlock.
	audit, err := MissAudit(dir)
	if err != nil {
		t.Fatalf("MissAudit: %v", err)
	}
	if len(audit) != 1 || audit[0].Verdict != "flagged" {
		t.Fatalf("audit of sealed fixture artifact: %+v", audit)
	}
	if Missed(audit) {
		t.Fatalf("unexpected miss: %+v", audit)
	}
}

// TestMissAuditCorpus classifies the repository's existing golden
// counterexamples: ordering violations are dynamic-only, never misses.
func TestMissAuditCorpus(t *testing.T) {
	rows, err := MissAudit(filepath.Join("..", "..", "explore", "testdata"))
	if err != nil {
		t.Fatalf("MissAudit: %v", err)
	}
	if len(rows) == 0 {
		t.Fatalf("no golden .sched artifacts found in the explore corpus")
	}
	if Missed(rows) {
		t.Fatalf("corpus audit reported a miss: %+v", rows)
	}
}

// TestMissAuditSynthDeadlock classifies the eval corpus: a sealed
// deadlock of a generated problem (the make fuzz window's synth-31 under
// ccr) has no solution package behind it, so it is dynamic-only, not a
// MISS; a naive-gate ordering violation is dynamic-only too; and a clean
// standard schedule, which records no rule and no kernel error, is
// clean, not a violation.
func TestMissAuditSynthDeadlock(t *testing.T) {
	rows, err := MissAudit(filepath.Join("..", "..", "eval", "testdata"))
	if err != nil {
		t.Fatalf("MissAudit: %v", err)
	}
	if Missed(rows) {
		t.Fatalf("audit reported a miss: %+v", rows)
	}
	want := map[string][2]string{
		"monitor-bounded-buffer.sched": {"clean", "clean"},
		"synth-28-naive-gate.sched":    {"violation", "dynamic-only"},
		"synth-31-ccr.sched":           {"deadlock", "dynamic-only"},
	}
	for _, r := range rows {
		w, ok := want[r.File]
		if !ok {
			t.Fatalf("unexpected row %+v", r)
		}
		if got := [2]string{r.Class, r.Verdict}; got != w {
			t.Errorf("%s audited as %v (%s), want %v", r.File, got, r.Detail, w)
		}
		delete(want, r.File)
	}
	if len(want) > 0 {
		t.Fatalf("no rows for %v: %+v", want, rows)
	}
}

// TestFixtureFlaggedWithAllowsHonored pins the dual contract: the
// fixture is clean under the normal Run (reasoned allows), but RunAll
// still sees the seeded cycle.
func TestFixtureFlaggedWithAllowsHonored(t *testing.T) {
	pkg, err := synclint.LoadFS(cyclicfix.Source, ".")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	clean, suppressed := synclint.Run(pkg, synclint.Analyzers())
	if len(clean) != 0 {
		t.Fatalf("fixture should be clean with allows honored, got %v", clean)
	}
	if suppressed == 0 {
		t.Fatalf("fixture should have suppressed findings")
	}
	raw := synclint.RunAll(pkg, SeedAnalyzers())
	if len(raw) == 0 {
		t.Fatalf("RunAll should surface the seeded cycle")
	}
}
