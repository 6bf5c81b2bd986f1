// Schedule files: findings as durable, replayable artifacts.
//
// A violating schedule is only worth keeping if it can be replayed later
// — in CI, in a bug report, on a colleague's machine — and if a replay
// that no longer matches the recorded run fails loudly instead of
// silently exploring a different interleaving. A SchedFile carries the
// choice sequence plus everything needed to detect drift: the kernel's
// run fingerprint (a chained hash over the scheduler state and decision
// at every step, kernel.SimKernel.RunFingerprint) sealed at save time,
// and the violation rules the replay must reproduce. Verify re-executes
// the schedule under kernel.ExactReplay — which already aborts if the
// ready set at any decision diverges from the recording — then compares
// the fingerprint and re-judges the trace with the oracle.
//
// Format version policy: Version is checked on read and must equal a
// version this code knows how to interpret (currently only
// SchedFileVersion). Any future format change — new required field,
// changed fingerprint definition, changed choice encoding — bumps the
// version; readers never guess at unknown versions.
package explore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// SchedFileVersion is the current schedule-file format version.
const SchedFileVersion = 1

// schedFileKind marks the file as ours, so -replay rejects arbitrary JSON
// with a useful message.
const schedFileKind = "repro-schedule"

// KernelErrDeadlock and KernelErrOther are the canonical tokens recorded
// in SchedFile.KernelError when the finding is a kernel error rather than
// an oracle violation. Tokens, not error strings: error text is not part
// of the format's compatibility surface.
const (
	KernelErrDeadlock = "deadlock"
	KernelErrOther    = "error"
)

// Scenario names are the SchedFile.Scenario values this repository seals.
// Each says how Mechanism and Problem name the program a replay rebuilds.
const (
	// ScenarioFigure: the footnote-3 arrival pattern on a mechanism's
	// readers-priority or writers-priority solution.
	ScenarioFigure = "figure"
	// ScenarioStandard: a mechanism's solution under the standard
	// workload of a canonical problem.
	ScenarioStandard = "standard"
	// ScenarioSynth: generated problem "synth/<seed>" under a synth
	// adapter, the naive-gate control included.
	ScenarioSynth = "synth"
	// ScenarioXCheck: synclint's seeded cyclic-wait fixture.
	ScenarioXCheck = "xcheck"
)

// SchedFile is the on-disk schedule artifact. Mechanism, Problem, and
// Scenario identify the program to rebuild at replay time; Fingerprint,
// Rules, and KernelError pin what the replay must reproduce.
type SchedFile struct {
	Version     int      `json:"version"`
	Kind        string   `json:"kind"`
	Mechanism   string   `json:"mechanism,omitempty"`
	Problem     string   `json:"problem,omitempty"`
	Scenario    string   `json:"scenario,omitempty"` // one of the Scenario* names
	Note        string   `json:"note,omitempty"`
	MaxSteps    int64    `json:"max_steps,omitempty"`
	Fingerprint string   `json:"fingerprint"` // %016x kernel run fingerprint
	Rules       []string `json:"rules,omitempty"`
	KernelError string   `json:"kernel_error,omitempty"`
	Choices     [][2]int `json:"choices"` // [ready, picked] per decision
}

// NewSchedFile builds an unsealed schedule file for the given schedule.
// Call Seal before writing it out.
func NewSchedFile(mechanism, problem, scenario string, schedule []kernel.Choice) *SchedFile {
	f := &SchedFile{
		Version:   SchedFileVersion,
		Kind:      schedFileKind,
		Mechanism: mechanism,
		Problem:   problem,
		Scenario:  scenario,
		Choices:   make([][2]int, len(schedule)),
	}
	for i, c := range schedule {
		f.Choices[i] = [2]int{c.Ready, c.Picked}
	}
	return f
}

// Schedule converts the file's choices back to a kernel choice sequence.
func (f *SchedFile) Schedule() []kernel.Choice {
	out := make([]kernel.Choice, len(f.Choices))
	for i, c := range f.Choices {
		out[i] = kernel.Choice{Ready: c[0], Picked: c[1]}
	}
	return out
}

func (f *SchedFile) maxSteps() int64 {
	if f.MaxSteps > 0 {
		return f.MaxSteps
	}
	return defaultMaxSteps
}

// validate checks the structural invariants a reader relies on.
func (f *SchedFile) validate() error {
	if f.Kind != schedFileKind {
		return fmt.Errorf("explore: not a schedule file (kind %q, want %q)", f.Kind, schedFileKind)
	}
	if f.Version != SchedFileVersion {
		return fmt.Errorf("explore: unsupported schedule file version %d (this build reads version %d)",
			f.Version, SchedFileVersion)
	}
	for i, c := range f.Choices {
		if c[0] < 1 || c[1] < 0 || c[1] >= c[0] {
			return fmt.Errorf("explore: choice %d out of range: ready=%d picked=%d", i, c[0], c[1])
		}
	}
	return nil
}

// exactReplay runs prog once under strict replay of schedule and returns
// the trace, the kernel run fingerprint, and the run's error. A
// divergence between schedule and program is reported as the policy's
// diagnostic, not as a run outcome.
func exactReplay(prog Program, schedule []kernel.Choice, maxSteps int64) (trace.Trace, uint64, error, error) {
	pol := kernel.NewExactReplay(schedule)
	k := kernel.NewSim(kernel.WithMaxSteps(maxSteps), kernel.WithPolicy(pol))
	r := trace.NewRecorder(k)
	prog(k, r)
	runErr := k.Run()
	if pol.Err() != nil {
		return r.Events(), 0, nil, pol.Err()
	}
	return r.Events(), k.RunFingerprint(), runErr, nil
}

// Seal replays the schedule against prog and records what replays must
// reproduce: the kernel run fingerprint and the oracle's violation rules
// (or the kernel error class). It fails if the schedule does not replay
// exactly against prog — a schedule that cannot survive its own save is
// not an artifact worth writing.
func (f *SchedFile) Seal(prog Program, oracle Oracle) error {
	if err := f.validate(); err != nil {
		return err
	}
	tr, fp, runErr, divErr := exactReplay(prog, f.Schedule(), f.maxSteps())
	if divErr != nil {
		return fmt.Errorf("explore: schedule does not replay against its own program: %w", divErr)
	}
	f.Fingerprint = fmt.Sprintf("%016x", fp)
	f.Rules = nil
	f.KernelError = ""
	if runErr != nil {
		if errors.Is(runErr, kernel.ErrDeadlock) {
			f.KernelError = KernelErrDeadlock
		} else {
			f.KernelError = KernelErrOther
		}
		return nil
	}
	for _, v := range oracle(tr) {
		f.Rules = append(f.Rules, v.Rule)
	}
	return nil
}

// Verify replays the schedule against prog with full drift detection:
// strict replay (ready counts must match the recording at every
// decision), fingerprint comparison, and oracle re-judgement — the
// replayed violations' rules must equal the recorded ones exactly. It
// returns the replayed trace and violations; a non-nil error means the
// artifact did not reproduce (the program drifted since it was saved, or
// the file is damaged).
func (f *SchedFile) Verify(prog Program, oracle Oracle) (trace.Trace, []problems.Violation, error) {
	if err := f.validate(); err != nil {
		return nil, nil, err
	}
	if _, err := strconv.ParseUint(f.Fingerprint, 16, 64); err != nil || len(f.Fingerprint) != 16 {
		return nil, nil, fmt.Errorf("explore: schedule file has no valid fingerprint (%q) — not sealed?", f.Fingerprint)
	}
	tr, fp, runErr, divErr := exactReplay(prog, f.Schedule(), f.maxSteps())
	if divErr != nil {
		return tr, nil, fmt.Errorf("explore: schedule replay diverged — program drifted since save: %w", divErr)
	}
	if got := fmt.Sprintf("%016x", fp); got != f.Fingerprint {
		return tr, nil, fmt.Errorf("explore: kernel fingerprint mismatch: file %s, replay %s — program drifted since save",
			f.Fingerprint, got)
	}
	if runErr != nil {
		switch {
		case f.KernelError == KernelErrDeadlock && errors.Is(runErr, kernel.ErrDeadlock):
			return tr, nil, nil
		case f.KernelError == KernelErrOther && !errors.Is(runErr, kernel.ErrDeadlock):
			return tr, nil, nil
		default:
			return tr, nil, fmt.Errorf("explore: replay produced kernel error %v, file records %q", runErr, f.KernelError)
		}
	}
	if f.KernelError != "" {
		return tr, nil, fmt.Errorf("explore: file records kernel error %q but the replay completed", f.KernelError)
	}
	vs := oracle(tr)
	rules := make([]string, len(vs))
	for i, v := range vs {
		rules[i] = v.Rule
	}
	if len(rules) != len(f.Rules) {
		return tr, vs, fmt.Errorf("explore: replay produced %d violations %v, file records %d %v",
			len(rules), rules, len(f.Rules), f.Rules)
	}
	for i := range rules {
		if rules[i] != f.Rules[i] {
			return tr, vs, fmt.Errorf("explore: replay violation %d is %q, file records %q", i, rules[i], f.Rules[i])
		}
	}
	return tr, vs, nil
}

// WriteFile writes the sealed artifact as indented JSON.
func (f *SchedFile) WriteFile(path string) error {
	if err := f.validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadSchedFile loads and validates a schedule file. Unknown versions and
// malformed choices are rejected here, before any replay is attempted.
func ReadSchedFile(path string) (*SchedFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f SchedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("explore: %s: %w", path, err)
	}
	if err := f.validate(); err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return &f, nil
}
