package kernel

import (
	"errors"
	"fmt"
	"sort"
)

// Snapshot is a passive capture of the scheduler-visible prefix of a
// finished run: the first Depth scheduling decisions together with their
// per-step artifacts (fingerprints, visibility, decision marks) and the
// recorder position at the capture point. It contains no goroutine state
// — Go cannot capture a goroutine's stack, so user closures are excluded
// by construction. What makes a snapshot restorable anyway is the
// kernel's cooperative discipline: a run is fully determined by its
// choice sequence, so re-driving the captured choices re-creates the
// captured state exactly, and the snapshot lets the kernel skip the
// per-step scheduling pipeline while doing so (see WithRestore).
//
// A Snapshot owns its slices (SnapshotAt copies), so it stays valid
// across Reset and may be restored on a different kernel.
type Snapshot struct {
	Depth   int      // number of scheduling decisions captured
	Choices []Choice // the captured prefix, len == Depth
	Fps     []uint64 // state fingerprint at each captured decision point
	Visible []bool   // per-step visibility of each captured step
	Fp      uint64   // state fingerprint at the capture point (decision Depth)
	Marks   []int    // decision mark at each captured decision point
	Events  int      // decision mark (recorder position) at the capture point

	// Dependency-trace records of the captured prefix (see deps.go);
	// nil unless the source kernel ran with WithDepTrace.
	ReadyIDs []int32     // flattened ready-set ids per captured decision
	Causes   []int32     // readying step of each captured pick
	Deps     []DepAccess // object accesses of the captured steps
}

// SnapshotAt captures the first depth scheduling decisions of the run
// that just finished. It is legal only between runs — after Run has
// returned and before the next Reset — and requires decision marks
// (SetDecisionMark) so the recorder position at the capture point is
// known. The run must have made more than depth decisions: the snapshot
// records the state fingerprint *at* decision point depth, which was
// only observed if a decision was made there.
func (k *SimKernel) SnapshotAt(depth int) (*Snapshot, error) {
	if k.started && !k.finished {
		return nil, errors.New("kernel: SnapshotAt mid-run; snapshots are only legal between runs")
	}
	if k.markFn == nil {
		return nil, errors.New("kernel: SnapshotAt requires decision marks (SetDecisionMark)")
	}
	if depth < 0 || depth >= len(k.choices) || depth >= len(k.fps) ||
		depth >= len(k.marks) || depth > len(k.visible) {
		return nil, fmt.Errorf("kernel: SnapshotAt(%d) out of range: run made %d decisions", depth, len(k.choices))
	}
	s := &Snapshot{
		Depth:   depth,
		Choices: append([]Choice(nil), k.choices[:depth]...),
		Fps:     append([]uint64(nil), k.fps[:depth]...),
		Visible: append([]bool(nil), k.visible[:depth]...),
		Fp:      k.fps[depth],
		Marks:   append([]int(nil), k.marks[:depth]...),
		Events:  k.marks[depth],
	}
	if k.depTrace {
		s.ReadyIDs = append([]int32(nil), k.readyIDs[:readyIDOffset(k.choices, depth)]...)
		s.Causes = append([]int32(nil), k.causes[:depth]...)
		s.Deps = append([]DepAccess(nil), k.deps[:depCut(k.deps, depth)]...)
	}
	return s, nil
}

// readyIDOffset is the index into the flattened ready-set ids where
// decision depth's segment begins: the sum of the preceding decisions'
// ready counts.
func readyIDOffset(choices []Choice, depth int) int {
	off := 0
	for _, c := range choices[:depth] {
		off += c.Ready
	}
	return off
}

// depCut is the number of leading dependency accesses performed by steps
// before decision depth; deps is in nondecreasing step order.
func depCut(deps []DepAccess, depth int) int {
	return sort.Search(len(deps), func(i int) bool { return deps[i].Step >= int32(depth) })
}

// Truncate derives the snapshot of a shallower prefix of the same run,
// sharing s's backing arrays instead of copying: the per-step artifacts
// of the first depth decisions are a prefix of s's, and the fingerprint
// and recorder position at the new capture point are s's per-step
// records at index depth. The result is as restorable as s; callers that
// hold many snapshots of one run (the exploration engine checkpoints
// every branch point of a run) pay for one capture.
func (s *Snapshot) Truncate(depth int) (*Snapshot, error) {
	if depth < 0 || depth >= s.Depth {
		return nil, fmt.Errorf("kernel: Truncate(%d) out of range: snapshot depth %d", depth, s.Depth)
	}
	t := &Snapshot{
		Depth:   depth,
		Choices: s.Choices[:depth],
		Fps:     s.Fps[:depth],
		Visible: s.Visible[:depth],
		Fp:      s.Fps[depth],
		Marks:   s.Marks[:depth],
		Events:  s.Marks[depth],
	}
	if s.ReadyIDs != nil || s.Causes != nil || s.Deps != nil {
		t.ReadyIDs = s.ReadyIDs[:readyIDOffset(s.Choices, depth)]
		t.Causes = s.Causes[:depth]
		t.Deps = s.Deps[:depCut(s.Deps, depth)]
	}
	return t, nil
}

// WithRestore arms the next run to resume from s. The kernel re-drives
// the snapshot's choice prefix in restore mode: user code re-executes
// (goroutine stacks cannot be captured, so the prefix interleaving must
// be re-driven), but the per-step scheduling pipeline is skipped — no
// policy consultation and no choice/fingerprint/visibility/mark appends,
// those records being pre-filled from the snapshot instead. When the
// prefix is exhausted the kernel verifies the live state fingerprint
// against the snapshot's and fails the run loudly on divergence, then
// hands the suffix to the configured Policy. Pass it to Reset together
// with WithPolicy for the suffix schedule; a restore arms exactly one
// run and is cleared by the next Reset.
func WithRestore(s *Snapshot) SimOption {
	return func(k *SimKernel) {
		k.restore = s
		k.choices = append(k.choices[:0], s.Choices...)
		k.fps = append(k.fps[:0], s.Fps...)
		k.visible = append(k.visible[:0], s.Visible...)
		k.marks = append(k.marks[:0], s.Marks...)
		k.readyIDs = append(k.readyIDs[:0], s.ReadyIDs...)
		k.causes = append(k.causes[:0], s.Causes...)
		k.deps = append(k.deps[:0], s.Deps...)
	}
}

// Restore is Reset plus WithRestore(s): it returns the kernel to the
// pre-spawn state and arms the next run to resume from s. Like Reset
// and SnapshotAt it is legal only between runs, never from inside a
// running process.
func (k *SimKernel) Restore(s *Snapshot, opts ...SimOption) {
	k.Reset(append([]SimOption{WithRestore(s)}, opts...)...)
}

// SetDecisionMark installs fn to be sampled at every scheduling decision
// point; the sampled values are retrievable via DecisionMarks, aligned
// with ChoicesView. The exploration engine points it at the trace
// recorder's event count, so snapshots know the recorder position at
// each decision. The callback runs inside the scheduler, wherever the
// scheduling decision is made — keep it trivial. It persists across
// Reset; nil removes it.
func (k *SimKernel) SetDecisionMark(fn func() int) {
	k.markFn = fn
}

// DecisionMarks returns the sampled decision marks, aligned with
// ChoicesView. Same aliasing contract as ChoicesView.
func (k *SimKernel) DecisionMarks() []int {
	return k.marks
}
