package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// procState is the scheduling state of a simulated process.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateParked
	stateSleeping
	stateDead
)

func (s procState) String() string {
	switch s {
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateParked:
		return "parked"
	case stateSleeping:
		return "sleeping"
	case stateDead:
		return "dead"
	}
	return "invalid"
}

// Policy decides which runnable process runs next. Pick receives the ready
// processes in a deterministic order (ascending readiness, ties by spawn
// order) and returns an index into that slice. A Policy together with the
// program fully determines a SimKernel run.
type Policy interface {
	Pick(ready []*Proc) int
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(ready []*Proc) int

// Pick implements Policy.
func (f PolicyFunc) Pick(ready []*Proc) int { return f(ready) }

// FIFO returns the round-robin policy: always run the process that has
// been ready longest. This is the kernel's default.
func FIFO() Policy { return PolicyFunc(func([]*Proc) int { return 0 }) }

// LIFO returns the most-recently-ready-first policy, useful for provoking
// overtaking behaviors.
func LIFO() Policy { return PolicyFunc(func(ready []*Proc) int { return len(ready) - 1 }) }

// RandomPolicy is the seeded uniformly random policy (see Random). Its
// source seeds in O(1) (randsrc.go), so one policy can be reseeded for
// run after run without allocating. It is not safe for concurrent use.
type RandomPolicy struct {
	src lazySource
	rng *rand.Rand
}

// Random returns a uniformly random policy seeded with seed: its Picks
// are rand.New(rand.NewSource(seed)).Intn(len(ready)), draw for draw, so
// the same seed and program produce the same schedule. That stream,
// pinned by TestRandomMatchesMathRand, is what seed-named schedules,
// simtrace -seed, sealed artifacts and goldens depend on; how it is
// computed is not.
func Random(seed int64) *RandomPolicy {
	p := &RandomPolicy{}
	p.rng = rand.New(&p.src)
	p.Seed(seed)
	return p
}

// Seed restarts the policy's stream as if it were Random(seed). A
// SimKernel consults its policy only inside Run, so a policy may be
// reseeded between runs while a kernel still holds it.
func (p *RandomPolicy) Seed(seed int64) { p.rng.Seed(seed) }

// Pick implements Policy.
func (p *RandomPolicy) Pick(ready []*Proc) int { return p.rng.Intn(len(ready)) }

// Choice records one scheduling decision: how many processes were ready
// and which index was chosen.
type Choice struct {
	Ready  int // number of ready processes at the decision point
	Picked int // index chosen, 0 <= Picked < Ready
}

// Replay returns a policy that follows the given choice sequence, then
// falls back to FIFO when the sequence is exhausted. Out-of-range choices
// are clamped. It is the building block of systematic schedule exploration
// (package explore).
func Replay(choices []Choice) Policy {
	i := 0
	return PolicyFunc(func(ready []*Proc) int {
		if i >= len(choices) {
			return 0
		}
		c := choices[i].Picked
		i++
		if c >= len(ready) {
			c = len(ready) - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	})
}

// ExactReplay is a Policy that follows a recorded choice sequence and
// refuses to improvise: at every decision point the observed ready count
// must equal the recorded Choice.Ready and the recorded pick must be in
// range. On divergence the policy fails the run (by returning an
// out-of-range index, which the kernel reports as an error) and records a
// diagnostic retrievable via Err. Once the recording is exhausted it
// falls back to FIFO, matching Replay, so schedules trimmed of their
// default tail still replay exactly.
//
// Use ExactReplay to re-execute saved schedule artifacts: if the program
// has drifted since the schedule was recorded, the replay fails loudly at
// the first divergent decision instead of silently exploring a different
// interleaving.
type ExactReplay struct {
	choices []Choice
	i       int
	err     error
}

// NewExactReplay returns a strict replay policy over the given recording.
func NewExactReplay(choices []Choice) *ExactReplay {
	return &ExactReplay{choices: choices}
}

// Pick implements Policy.
func (r *ExactReplay) Pick(ready []*Proc) int {
	if r.i >= len(r.choices) {
		return 0
	}
	c := r.choices[r.i]
	if c.Ready != len(ready) || c.Picked < 0 || c.Picked >= len(ready) {
		r.err = fmt.Errorf("kernel: replay diverged at decision %d: recorded %d ready (picked %d), observed %d ready",
			r.i, c.Ready, c.Picked, len(ready))
		return -1
	}
	r.i++
	return c.Picked
}

// Err reports the divergence diagnostic, or nil if the replay has
// followed the recording so far.
func (r *ExactReplay) Err() error { return r.err }

// errShutdown is the panic value used to unwind suspended processes when
// the run is over (deadlock, step limit, Stop, or normal termination with
// daemons still live). It never escapes the kernel: runBody recovers it.
var errShutdown = errors.New("kernel: simulation shut down")

// SimKernel is a deterministic cooperative scheduler. Exactly one process
// executes at a time; control returns to the scheduler at every kernel
// operation (Park, Yield, Sleep, process exit). Virtual time advances only
// when no process is runnable and some process is sleeping.
//
// Each process body runs on a coroutine that Run resumes and suspends.
// When Run returns — normal completion, deadlock, step limit, or Stop —
// every process still suspended in a kernel operation has already been
// unwound and its deferred calls have run; without WithRecycle no
// coroutine outlives Run, so repeated simulation runs do not accumulate
// goroutines.
//
// A SimKernel has no lock: it is confined to its owner, the goroutine
// that spawns its processes, calls Run and reads the results. Every
// method runs either on that goroutine or on the one process coroutine
// Run has resumed, and only one of them runs at a time. iter.Pull's
// switches between them are happens-before edges, annotated for the race
// detector too, so the race detector checks every kernel access without
// a lock to see. An owner may hand a kernel to another goroutine between
// runs, but only through synchronization of its own (package explore's
// slot freelist hands slots over under its lock); two goroutines must
// never use one kernel at once.
type SimKernel struct {
	policy   Policy
	maxSteps int64

	now      int64
	nextID   int
	readySeq int64 // monotonically increasing readiness stamp
	procs    []*simProc
	ready    []*simProc // invariant: sorted ascending by readyAt
	running  *simProc
	steps    int64
	choices  []Choice

	// fp is the incrementally maintained state fingerprint (XOR of
	// per-process contributions; see fingerprint.go). fps records the
	// fingerprint at each decision point, aligned with choices.
	fp  uint64
	fps []uint64

	// stepVisible tracks whether the step in progress performed a visible
	// action (park, unpark, sleep, spawn, exit, or a recorded trace
	// event); a step that only yielded is invisible, which the DFS pruner
	// exploits. visible is aligned with choices.
	stepVisible bool
	visible     []bool

	// readyScratch is reused across scheduling steps to present the ready
	// set to the Policy without a per-step allocation.
	readyScratch []*Proc

	// depTrace enables dependency-trace recording (WithDepTrace): deps
	// holds the per-step object accesses, readyIDs the flattened ready
	// set at each decision, and causes the readying step of each pick
	// (see deps.go).
	depTrace bool
	deps     []DepAccess
	readyIDs []int32
	causes   []int32

	// Process recycling (WithRecycle): procPool holds every process object
	// the kernel has created, indexed by spawn position, with its
	// coroutine, for in-place reuse at the same position — deterministic
	// programs respawn the same processes in the same order, so reuse
	// also recovers the interned name labels and a run starts no
	// coroutine. A process joins the pool when it is created, so the
	// pool and the run's procs never share a backing array and a run
	// that spawns no more processes than the one before allocates
	// nothing for either.
	recycle  bool
	procPool []*simProc

	// locals is the slot-local storage (see Local): what programs keep
	// with this kernel between runs. Reset keeps it; Close drops it.
	locals []local

	// panicked is the first non-shutdown panic raised by a process body
	// in this run; Run re-raises it after unwinding the other processes.
	panicked any

	started       bool
	finished      bool
	stopRequested bool
}

// SimOption configures a SimKernel.
type SimOption func(*SimKernel)

// WithPolicy sets the scheduling policy (default FIFO).
func WithPolicy(p Policy) SimOption {
	return func(k *SimKernel) { k.policy = p }
}

// defaultMaxSteps is the scheduling-step bound of a kernel built without
// WithMaxSteps, or with a bound that is not positive.
const defaultMaxSteps = 10_000_000

// WithMaxSteps bounds the number of scheduling steps Run will take before
// giving up with an error; it guards tests against livelocks. A bound
// that is not positive means the default, ten million steps.
func WithMaxSteps(n int64) SimOption {
	if n <= 0 {
		n = defaultMaxSteps
	}
	return func(k *SimKernel) { k.maxSteps = n }
}

// WithRecycle makes process objects and their coroutines survive Reset:
// spawning reuses the process object earlier runs created at the same
// spawn position, whose coroutine runs the new body, instead of
// allocating a fresh object and starting a fresh coroutine. Meant for run
// pools (package explore) that execute many runs on one kernel; a kernel
// with recycling enabled must be released with Close when it is no longer
// needed, or its suspended coroutines leak.
func WithRecycle() SimOption {
	return func(k *SimKernel) { k.recycle = true }
}

// NewSim creates a SimKernel.
func NewSim(opts ...SimOption) *SimKernel {
	k := &SimKernel{
		policy:   FIFO(),
		maxSteps: defaultMaxSteps,
		choices:  make([]Choice, 0, 64),
	}
	for _, o := range opts {
		o(k)
	}
	return k
}

// local is one slot-local value and the key it was stored under.
type local struct {
	key, val any
}

// Local returns the value stored under key with SetLocal, or nil.
//
// Slot-local storage lets a program keep its own run state with the
// kernel it runs on, the way a recycling kernel (WithRecycle) keeps its
// process objects: a pooled kernel runs one program run after run, so a
// program can build its objects on its first run, store them here, and
// reset them at the start of every later run instead of allocating them
// again. The storage survives Reset and is dropped by Close. Keys are
// compared with ==; a program uses a key only it holds (a pointer it
// allocated), so two programs on one kernel never see each other's
// values. Whatever a program keeps here it must reset on every run,
// since a run cut short (deadlock, step limit, Stop) leaves it mid-use.
func (k *SimKernel) Local(key any) any {
	for _, l := range k.locals {
		if l.key == key {
			return l.val
		}
	}
	return nil
}

// SetLocal stores val under key in the kernel's slot-local storage (see
// Local), replacing any value already stored there.
func (k *SimKernel) SetLocal(key, val any) {
	for i := range k.locals {
		if k.locals[i].key == key {
			k.locals[i].val = val
			return
		}
	}
	k.locals = append(k.locals, local{key: key, val: val})
}

type simProc struct {
	proc       *Proc
	kernel     *SimKernel
	fn         func(p *Proc) // the process body
	daemon     bool
	state      procState
	permit     bool
	wakeAt     int64  // valid when sleeping
	readyAt    int64  // readiness stamp for deterministic ordering
	readyCause int32  // step that readied this process; -1 if none (see deps.go)
	schedCount uint64 // completed scheduling steps (fingerprint PC proxy)
	fpContrib  uint64 // cached fingerprint contribution

	// The process coroutine (see coro.go): resume and stop are its
	// iter.Pull handles, nil until Run first schedules the process, and
	// suspend is the coroutine's yield. inBody reports that the coroutine
	// is inside the body, so the process must be unwound when the run
	// ends.
	resume  func() (decision, bool)
	stop    func()
	suspend func(decision) bool
	inBody  bool
}

// Spawn implements Kernel. The process does not begin executing until the
// scheduler selects it.
func (k *SimKernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, false)
}

// SpawnDaemon implements Kernel: the process is scheduled normally but is
// invisible to termination and deadlock detection. When the last
// non-daemon process finishes, Run returns and remaining daemons are shut
// down: Run unwinds them before it returns.
func (k *SimKernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, true)
}

func (k *SimKernel) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	k.nextID++
	id := k.nextID
	var sp *simProc
	var p *Proc
	if i := id - 1; k.recycle && i < len(k.procPool) {
		// Reuse the previous run's process at the same spawn position.
		// Deterministic programs respawn identically, so the id always
		// matches (ids are positional) and the name almost always does —
		// keeping the label without re-formatting it.
		sp = k.procPool[i]
		p = sp.proc
		if p.name != name {
			p.name = name
			p.label = fmt.Sprintf("%s#%d", name, id)
		}
		sp.daemon = daemon
		sp.state = stateRunnable
		sp.permit = false
		sp.wakeAt = 0
		sp.schedCount = 0
		sp.fpContrib = 0
	} else {
		p = &Proc{id: id, name: name, label: fmt.Sprintf("%s#%d", name, id), k: k}
		sp = &simProc{
			proc:   p,
			kernel: k,
			daemon: daemon,
			state:  stateRunnable,
		}
		p.impl = sp
		if k.recycle {
			k.procPool = append(k.procPool, sp)
		}
	}
	sp.fn = fn
	if k.finished {
		// Spawn after the run is over: the process never runs.
		sp.state = stateDead
		return p
	}
	k.procs = append(k.procs, sp)
	k.stepVisible = true // the spawning step changed the ready set
	k.noteDep(objProc(id))
	k.markReady(sp)
	return p
}

// markReady appends sp to the ready set with a fresh readiness stamp.
// Stamps increase monotonically and removal preserves order, so k.ready is
// always sorted by readyAt without any per-step sorting.
func (k *SimKernel) markReady(sp *simProc) {
	sp.state = stateRunnable
	k.readySeq++
	sp.readyAt = k.readySeq
	sp.readyCause = int32(k.steps) - 1
	k.ready = append(k.ready, sp)
	k.touchFP(sp)
}

// Now implements Kernel: the virtual clock, in ticks.
func (k *SimKernel) Now() Time {
	return k.now
}

// Steps reports how many scheduling decisions the kernel has made.
func (k *SimKernel) Steps() int64 {
	return k.steps
}

// Choices returns the scheduling decisions made so far, in order. The
// slice is a copy; it is the input to Replay-based exploration.
func (k *SimKernel) Choices() []Choice {
	out := make([]Choice, len(k.choices))
	copy(out, k.choices)
	return out
}

// ChoicesView returns the recorded choice sequence without copying. Call
// only after Run has returned; the slice aliases kernel state and is valid
// until the next Reset. The zero-copy sibling of Choices for the
// exploration hot path.
func (k *SimKernel) ChoicesView() []Choice {
	return k.choices
}

// StepFingerprints returns the state fingerprint at each decision point,
// aligned with ChoicesView: element i is the hash of the scheduler state
// from which choice i was made. Same aliasing contract as ChoicesView.
func (k *SimKernel) StepFingerprints() []uint64 {
	if len(k.fps) > len(k.choices) {
		return k.fps[:len(k.choices)]
	}
	return k.fps
}

// StepVisibility reports, for each executed step, whether it performed a
// visible action (park, unpark, sleep, spawn, exit, or a recorded trace
// event) as opposed to a pure yield. Aligned with ChoicesView; same
// aliasing contract.
func (k *SimKernel) StepVisibility() []bool {
	return k.visible
}

// Stop requests that the run finish at the next scheduling step, as if
// the program had completed: Run returns nil with the partial history.
// Streaming oracles use it to cut violating runs short. Call it from a
// running process or (pointlessly, but harmlessly) after Run returned.
func (k *SimKernel) Stop() {
	k.stopRequested = true
}

// Reset returns the kernel to its pristine pre-spawn state, retaining
// every allocation — choice, fingerprint, and scratch buffers keep their
// capacity, and slot-local storage (Local) keeps its values — so a pooled
// kernel runs in zero-allocation steady state. The given options are
// applied on top of the kernel's current configuration (pass WithPolicy
// to change the schedule).
//
// Reset must only be called before any Spawn or after Run has returned
// (Run leaves no process mid-body, so there is nothing to wait for).
// Proc handles and slices obtained from the view accessors become
// invalid.
func (k *SimKernel) Reset(opts ...SimOption) {
	k.now = 0
	k.nextID = 0
	k.readySeq = 0
	// With recycling, every process is already in the pool (see spawn).
	k.procs = k.procs[:0]
	k.ready = k.ready[:0]
	k.running = nil
	k.steps = 0
	k.choices = k.choices[:0]
	k.fp = 0
	k.fps = k.fps[:0]
	k.stepVisible = false
	k.visible = k.visible[:0]
	k.deps = k.deps[:0]
	k.readyIDs = k.readyIDs[:0]
	k.causes = k.causes[:0]
	k.panicked = nil
	k.started = false
	k.finished = false
	k.stopRequested = false
	for _, o := range opts {
		o(k)
	}
}

// Close stops the coroutines a recycling kernel (WithRecycle) keeps
// between runs and drops its slot-local storage (see Local); without
// recycling Run stops every coroutine it started, and Close only drops
// the storage. Call it after Run has returned; the kernel must not be
// used after Close.
func (k *SimKernel) Close() {
	sps := k.procs
	if k.recycle {
		sps = k.procPool // every process the kernel created (see spawn)
	}
	k.procPool, k.procs = nil, nil
	k.locals = nil
	for _, sp := range sps {
		sp.release()
	}
}

// release stops sp's coroutine, if it has one. A process still inside
// its body unwinds first: its pending kernel operation panics
// errShutdown.
func (sp *simProc) release() {
	if sp.stop != nil {
		sp.stop()
		sp.resume, sp.stop = nil, nil
	}
}

// MarkStepVisible marks the scheduling step in progress as visible to the
// DFS pruner (see StepVisibility). It must be called from the running
// process; the trace recorder calls it when an event is recorded, since
// recorded events are exactly what the exploration oracles can observe.
func (k *SimKernel) MarkStepVisible() { k.stepVisible = true }

// finish marks the run over. Every process still suspended in a
// kernel operation is unwound by Run before it returns (see unwind), and
// a kernel operation issued during the unwind panics errShutdown (see
// checkLive).
func (k *SimKernel) finish() { k.finished = true }

// Run implements Kernel: it runs the spawned processes until the run is
// over and returns the outcome. Run must be called exactly once.
//
// Run is a loop on the caller's goroutine. It resumes the coroutine of
// the process the scheduler picked; that process runs until it gives up
// the processor, makes the next scheduling decision itself (schedule),
// and yields the decision back. A context switch therefore costs two
// coroutine switches and no trip through the Go scheduler, and a process
// the scheduler picks again runs on without any switch. When the run is
// over — every process dead, deadlock, step limit, Stop — Run unwinds
// every process still suspended before it returns. If a process body
// panics, the run ends there: the other processes unwind, and Run
// re-raises the panic with its original value.
func (k *SimKernel) Run() error {
	if k.started {
		return fmt.Errorf("kernel: SimKernel.Run called twice")
	}
	k.started = true

	next, fin, err := k.schedule(nil)
	for !fin {
		d := next.run()
		next, fin, err = d.next, d.next == nil, d.err
	}
	k.unwind()
	if r := k.panicked; r != nil {
		panic(r)
	}
	return err
}

// unwind ends the run's processes on Run's goroutine, so the deferred
// calls of every abandoned body have run when Run returns. Without
// recycling it stops every coroutine the run started: a process
// suspended in a kernel operation panics errShutdown there, and a
// finished one just ends. With recycling it resumes each process still
// inside its body; the run is over, so the pending operation panics
// errShutdown, and the coroutine then waits for the next run's process.
func (k *SimKernel) unwind() {
	for _, sp := range k.procs {
		switch {
		case !k.recycle:
			sp.release()
		case sp.inBody:
			sp.resume()
		}
	}
}

// schedule performs one scheduling decision on the caller's stack. self
// is the process giving up the processor (nil for the initial dispatch
// from Run). It returns the process to resume, or fin=true with the run
// outcome when the run is over — in which case finish has marked
// the run finished, and Run unwinds the live processes and returns err.
func (k *SimKernel) schedule(self *simProc) (next *simProc, fin bool, err error) {
	// Close out the previous step's visibility record (the running
	// process has handed control back, so stepVisible is final).
	if len(k.visible) < len(k.choices) {
		k.visible = append(k.visible, k.stepVisible)
	}
	if k.stopRequested {
		// Early exit on request (e.g. a streaming oracle found its
		// violation): finish cleanly with the partial history.
		k.finish()
		return nil, true, nil
	}
	if k.steps >= k.maxSteps {
		k.finish()
		return nil, true, fmt.Errorf("kernel: step limit (%d) exceeded; possible livelock", k.maxSteps)
	}
	if !k.anyNonDaemonLive() {
		// Every real process finished; shut down remaining daemons.
		k.finish()
		return nil, true, nil
	}
	if len(k.ready) == 0 {
		// Try to advance virtual time to the earliest sleeper.
		if !k.wakeSleepers() {
			live := k.parkedNames()
			k.finish()
			return nil, true, fmt.Errorf("%w: %s", ErrDeadlock, strings.Join(live, ", "))
		}
	}
	// k.ready is already in deterministic order (ascending readiness
	// stamp); expose it to the policy through the reusable scratch.
	if cap(k.readyScratch) < len(k.ready) {
		k.readyScratch = make([]*Proc, len(k.ready))
	}
	readyProcs := k.readyScratch[:len(k.ready)]
	for i, sp := range k.ready {
		readyProcs[i] = sp.proc
	}
	// The fingerprint at the decision point, before anything runs.
	k.fps = append(k.fps, k.Fingerprint())
	if k.depTrace {
		for _, sp := range k.ready {
			k.readyIDs = append(k.readyIDs, int32(sp.proc.id))
		}
	}
	idx := k.policy.Pick(readyProcs)
	if idx < 0 || idx >= len(k.ready) {
		k.finish()
		return nil, true, fmt.Errorf("kernel: policy picked %d of %d ready processes", idx, len(readyProcs))
	}
	k.choices = append(k.choices, Choice{Ready: len(readyProcs), Picked: idx})
	k.steps++
	next = k.ready[idx]
	if k.depTrace {
		k.causes = append(k.causes, next.readyCause)
	}
	k.ready = append(k.ready[:idx], k.ready[idx+1:]...)
	next.state = stateRunning
	next.schedCount++
	k.touchFP(next)
	k.stepVisible = false
	k.running = next
	return next, false, nil
}

// handoff gives up the processor: sp (which has already recorded its new
// state) makes the next scheduling decision and suspends
// until Run resumes it. If the scheduler picked sp itself (possible after
// a yield), it keeps running with no coroutine switch at all.
func (sp *simProc) handoff() {
	next, fin, err := sp.kernel.schedule(sp)
	if !fin && next == sp {
		return
	}
	sp.await(decision{next: next, err: err})
}

// wakeSleepers advances the clock to the earliest wake time and
// readies every sleeper due at that time. It reports whether any process
// was woken.
func (k *SimKernel) wakeSleepers() bool {
	var earliest int64
	found := false
	for _, sp := range k.procs {
		if sp.state == stateSleeping && (!found || sp.wakeAt < earliest) {
			earliest = sp.wakeAt
			found = true
		}
	}
	if !found {
		return false
	}
	if earliest > k.now {
		k.now = earliest
	}
	for _, sp := range k.procs {
		if sp.state == stateSleeping && sp.wakeAt <= k.now {
			k.markReady(sp)
			sp.readyCause = -1 // woken by the clock, not by a step
		}
	}
	return true
}

// anyNonDaemonLive reports whether a non-daemon process has not yet
// terminated.
func (k *SimKernel) anyNonDaemonLive() bool {
	for _, sp := range k.procs {
		if !sp.daemon && sp.state != stateDead {
			return true
		}
	}
	return false
}

// parkedNames lists live non-daemon processes (all necessarily
// parked when called) for the deadlock report.
func (k *SimKernel) parkedNames() []string {
	var names []string
	for _, sp := range k.procs {
		if !sp.daemon && sp.state != stateDead {
			names = append(names, sp.proc.String())
		}
	}
	return names
}

// checkLive unwinds the calling process if the run is already over
// — this catches kernel operations issued while a process stack is being
// unwound (e.g. from a deferred cleanup).
func (k *SimKernel) checkLive() {
	if k.finished {
		panic(errShutdown)
	}
}

func (sp *simProc) park() {
	k := sp.kernel
	k.checkLive()
	k.stepVisible = true
	k.noteDep(objProc(sp.proc.id))
	if sp.permit {
		sp.permit = false
		k.touchFP(sp)
		return
	}
	sp.state = stateParked
	k.touchFP(sp)
	sp.handoff()
}

func (sp *simProc) unpark() {
	k := sp.kernel
	if k.finished {
		return
	}
	k.stepVisible = true
	k.noteDep(objProc(sp.proc.id))
	switch sp.state {
	case stateParked:
		k.markReady(sp)
	case stateDead:
		// no-op
	default:
		sp.permit = true
		k.touchFP(sp)
	}
}

func (sp *simProc) yield() {
	// A pure yield is the one invisible kernel operation: it perturbs
	// only the yielder's position in the ready order, which the state
	// fingerprint deliberately ignores.
	k := sp.kernel
	k.checkLive()
	k.markReady(sp)
	sp.handoff()
}

func (sp *simProc) sleep(ticks int64) {
	k := sp.kernel
	k.checkLive()
	k.stepVisible = true
	k.noteDep(objProc(sp.proc.id))
	sp.state = stateSleeping
	sp.wakeAt = k.now + ticks
	k.touchFP(sp)
	sp.handoff()
}

// exited records the end of sp's body and makes the next scheduling
// decision; the caller yields it to Run.
func (sp *simProc) exited() decision {
	k := sp.kernel
	k.checkLive()
	sp.state = stateDead
	k.stepVisible = true
	k.noteDep(objProc(sp.proc.id))
	k.touchFP(sp)
	next, _, err := k.schedule(sp)
	return decision{next: next, err: err}
}
