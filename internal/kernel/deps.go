package kernel

// DepAccess records one shared-object access by a scheduling step. The
// dependency trace — the ordered list of (step, object) accesses of a
// run — is what the exploration engine's partial-order reduction
// consumes to reconstruct a happens-before relation: two steps of
// different processes are dependent iff they access a common object.
//
// Objects are opaque 64-bit identities: a per-process cell models the
// scheduling state one process exposes to others (its park permit,
// sleep timer, and lifecycle), and a single trace cell models the
// recorded event stream (the exploration oracles are sensitive to the
// relative order of *different* event kinds — a reader's Request vs a
// writer's Enter — so any two recording steps conflict unless already
// ordered). Every access is treated as a write; the relation is
// deliberately conservative, and Options.Audit in package explore is
// the correctness gate for it.
type DepAccess struct {
	Step int32  // scheduling step performing the access; -1 before the first decision
	Obj  uint64 // accessed object identity
}

// objProc is the dependency-object identity of the per-process
// scheduling cell of process id.
func objProc(id int) uint64 { return uint64(id) }

// DepObjTrace is the dependency-object identity of the recorded trace —
// the single cell every recording step touches. Exported so consumers
// can tell the conservative recording conflicts from the true
// synchronization edges (per-process cells, readying causes); the
// exploration engine's race detection keeps trace conflicts, because
// oracles are order-sensitive.
const DepObjTrace = uint64(1) << 63

// objTrace is the dependency-object identity of the recorded trace.
const objTrace = DepObjTrace

// WithDepTrace enables dependency-trace recording: the kernel records,
// per run, which shared objects each scheduling step accessed
// (DepAccesses), the ready set at every decision point (ReadySetIDs),
// and the step that readied each picked process (ReadyCauses). Like
// WithRecycle it persists across Reset; the records reuse their buffers,
// so the pooled exploration path stays allocation-free in steady state.
func WithDepTrace() SimOption {
	return func(k *SimKernel) { k.depTrace = true }
}

// noteDep records an access to obj by the step in progress.
// Consecutive duplicate accesses are collapsed. Recording is suppressed
// while a snapshot prefix is re-driven: those records were pre-filled
// from the snapshot (WithRestore).
func (k *SimKernel) noteDep(obj uint64) {
	if !k.depTrace || k.restore != nil {
		return
	}
	step := int32(k.steps) - 1
	if n := len(k.deps); n > 0 && k.deps[n-1].Step == step && k.deps[n-1].Obj == obj {
		return
	}
	k.deps = append(k.deps, DepAccess{Step: step, Obj: obj})
}

// NoteTraceDep records a trace-cell access by the step in progress; the
// trace recorder calls it whenever an event is recorded, alongside
// MarkStepVisible.
func (k *SimKernel) NoteTraceDep() {
	if !k.depTrace || k.restore != nil {
		return
	}
	step := int32(k.steps) - 1
	if n := len(k.deps); n > 0 && k.deps[n-1].Step == step && k.deps[n-1].Obj == objTrace {
		return
	}
	k.deps = append(k.deps, DepAccess{Step: step, Obj: objTrace})
}

// DepAccesses returns the run's dependency trace in nondecreasing step
// order. Empty unless WithDepTrace is enabled. Same aliasing contract
// as ChoicesView.
func (k *SimKernel) DepAccesses() []DepAccess {
	return k.deps
}

// ReadySetIDs returns the process ids of every decision point's ready
// set, flattened in decision order: decision i's segment has length
// ChoicesView()[i].Ready and starts at the sum of the preceding
// decisions' Ready counts. Empty unless WithDepTrace is enabled. Same
// aliasing contract as ChoicesView.
func (k *SimKernel) ReadySetIDs() []int32 {
	return k.readyIDs
}

// ReadyCauses returns, per decision point, the scheduling step that
// readied the picked process (-1 for initial spawns and timer wakes),
// aligned with ChoicesView. Empty unless WithDepTrace is enabled. Same
// aliasing contract as ChoicesView.
func (k *SimKernel) ReadyCauses() []int32 {
	return k.causes
}
