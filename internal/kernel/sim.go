package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
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
type SimKernel struct {
	policy   Policy
	maxSteps int64

	mu       sync.Mutex
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

	// restore, when non-nil, makes schedule re-drive the snapshot's
	// choice prefix in restore mode (see WithRestore); cleared when the
	// prefix is exhausted and validated, and by Reset.
	restore *Snapshot

	// markFn, when set, is sampled at every decision point into marks,
	// aligned with choices (see SetDecisionMark).
	markFn func() int
	marks  []int

	// depTrace enables dependency-trace recording (WithDepTrace): deps
	// holds the per-step object accesses, readyIDs the flattened ready
	// set at each decision, and causes the readying step of each pick
	// (see deps.go).
	depTrace bool
	deps     []DepAccess
	readyIDs []int32
	causes   []int32

	// Process recycling (WithRecycle): procPool holds every process object
	// earlier runs spawned, with its coroutine, for in-place reuse at the
	// same spawn position — deterministic programs respawn the same
	// processes in the same order, so reuse also recovers the interned
	// name labels and a run starts no coroutine.
	recycle  bool
	procPool []*simProc

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
	k.mu.Lock()
	defer k.mu.Unlock()
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
	}
	sp.fn = fn
	if k.finished {
		// Spawn after the run is over: the process never runs.
		sp.state = stateDead
		return p
	}
	k.procs = append(k.procs, sp)
	k.stepVisible = true // the spawning step changed the ready set
	k.noteDepLocked(objProc(id))
	k.markReadyLocked(sp)
	return p
}

// markReadyLocked appends sp to the ready set with a fresh readiness stamp.
// Stamps increase monotonically and removal preserves order, so k.ready is
// always sorted by readyAt without any per-step sorting.
func (k *SimKernel) markReadyLocked(sp *simProc) {
	sp.state = stateRunnable
	k.readySeq++
	sp.readyAt = k.readySeq
	sp.readyCause = int32(k.steps) - 1
	k.ready = append(k.ready, sp)
	k.touchFPLocked(sp)
}

// Now implements Kernel: the virtual clock, in ticks.
func (k *SimKernel) Now() Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// Steps reports how many scheduling decisions the kernel has made.
func (k *SimKernel) Steps() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.steps
}

// Choices returns the scheduling decisions made so far, in order. The
// slice is a copy; it is the input to Replay-based exploration.
func (k *SimKernel) Choices() []Choice {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]Choice, len(k.choices))
	copy(out, k.choices)
	return out
}

// ChoicesView returns the recorded choice sequence without copying. Call
// only after Run has returned; the slice aliases kernel state and is valid
// until the next Reset. The zero-copy sibling of Choices for the
// exploration hot path.
func (k *SimKernel) ChoicesView() []Choice {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.choices
}

// StepFingerprints returns the state fingerprint at each decision point,
// aligned with ChoicesView: element i is the hash of the scheduler state
// from which choice i was made. Same aliasing contract as ChoicesView.
func (k *SimKernel) StepFingerprints() []uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
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
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.visible
}

// Stop requests that the run finish at the next scheduling step, as if
// the program had completed: Run returns nil with the partial history.
// Streaming oracles use it to cut violating runs short. Safe to call from
// a running process or (pointlessly, but harmlessly) after Run returned.
func (k *SimKernel) Stop() {
	k.mu.Lock()
	k.stopRequested = true
	k.mu.Unlock()
}

// Reset returns the kernel to its pristine pre-spawn state, retaining
// every allocation — choice, fingerprint, and scratch buffers keep their
// capacity — so a pooled kernel runs in zero-allocation steady state. The
// given options are applied on top of the kernel's current configuration
// (pass WithPolicy to change the schedule).
//
// Reset must only be called before any Spawn or after Run has returned
// (Run leaves no process mid-body, so there is nothing to wait for).
// Proc handles and slices obtained from the view accessors become
// invalid.
func (k *SimKernel) Reset(opts ...SimOption) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.now = 0
	k.nextID = 0
	k.readySeq = 0
	// spawn reuses the pool positionally, so the finished run's procs
	// are a prefix of the pool or extend it. Keep the longer as the pool
	// for in-place reuse (see spawn): every pooled coroutine stays
	// reachable for Close.
	if k.recycle && len(k.procs) > len(k.procPool) {
		k.procs, k.procPool = k.procPool[:0], k.procs
	} else {
		k.procs = k.procs[:0]
	}
	k.ready = k.ready[:0]
	k.running = nil
	k.steps = 0
	k.choices = k.choices[:0]
	k.fp = 0
	k.fps = k.fps[:0]
	k.stepVisible = false
	k.visible = k.visible[:0]
	k.restore = nil
	k.marks = k.marks[:0]
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
// between runs; without recycling Run stops every coroutine it started,
// and Close is a no-op. Call it after Run has returned; the kernel must
// not be used after Close.
func (k *SimKernel) Close() {
	k.mu.Lock()
	sps := append(k.procPool, k.procs...)
	k.procPool, k.procs = nil, nil
	k.mu.Unlock()
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

// NowCooperative reads the virtual clock without locking. Safe under the
// cooperative discipline: exactly one process runs at a time and the
// clock only advances inside schedule(), which runs before the coroutine
// switch that resumes the next process. iter.Pull's switches order every
// access, for the race detector too. The trace recorder uses it to stamp
// events without a lock acquisition.
func (k *SimKernel) NowCooperative() Time { return k.now }

// MarkStepVisible marks the scheduling step in progress as visible to the
// DFS pruner (see StepVisibility). It must be called from the running
// process; the trace recorder calls it when an event is recorded, since
// recorded events are exactly what the exploration oracles can observe.
// Unlocked by the same cooperative-discipline argument as NowCooperative.
func (k *SimKernel) MarkStepVisible() { k.stepVisible = true }

// finishLocked marks the run over. Every process still suspended in a
// kernel operation is unwound by Run before it returns (see unwind), and
// a kernel operation issued during the unwind panics errShutdown (see
// checkLiveLocked).
func (k *SimKernel) finishLocked() { k.finished = true }

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
	k.mu.Lock()
	if k.started {
		k.mu.Unlock()
		return fmt.Errorf("kernel: SimKernel.Run called twice")
	}
	k.started = true
	k.mu.Unlock()

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
// outcome when the run is over — in which case finishLocked has marked
// the run finished, and Run unwinds the live processes and returns err.
func (k *SimKernel) schedule(self *simProc) (next *simProc, fin bool, err error) {
	k.mu.Lock()
	// Close out the previous step's visibility record (the running
	// process has handed control back, so stepVisible is final).
	if len(k.visible) < len(k.choices) {
		k.visible = append(k.visible, k.stepVisible)
	}
	if k.stopRequested {
		// Early exit on request (e.g. a streaming oracle found its
		// violation): finish cleanly with the partial history.
		k.finishLocked()
		k.mu.Unlock()
		return nil, true, nil
	}
	if k.steps >= k.maxSteps {
		k.finishLocked()
		k.mu.Unlock()
		return nil, true, fmt.Errorf("kernel: step limit (%d) exceeded; possible livelock", k.maxSteps)
	}
	if !k.anyNonDaemonLiveLocked() {
		// Every real process finished; shut down remaining daemons.
		k.finishLocked()
		k.mu.Unlock()
		return nil, true, nil
	}
	if len(k.ready) == 0 {
		// Try to advance virtual time to the earliest sleeper.
		if !k.wakeSleepersLocked() {
			live := k.parkedNamesLocked()
			k.finishLocked()
			k.mu.Unlock()
			return nil, true, fmt.Errorf("%w: %s", ErrDeadlock, strings.Join(live, ", "))
		}
	}
	if k.restore != nil {
		if k.steps < int64(k.restore.Depth) {
			// Restore re-drive: follow the snapshot's prefix directly.
			// The per-step pipeline is skipped — no policy consultation
			// and no choice/fingerprint/visibility/mark appends; those
			// records were pre-filled from the snapshot (WithRestore), so
			// the close-out append above naturally stays idle until the
			// prefix is exhausted.
			c := k.restore.Choices[k.steps]
			if c.Ready != len(k.ready) || c.Picked < 0 || c.Picked >= len(k.ready) {
				k.finishLocked()
				k.mu.Unlock()
				return nil, true, fmt.Errorf("kernel: snapshot restore diverged at step %d: snapshot has %d ready (picked %d), observed %d ready",
					k.steps, c.Ready, c.Picked, len(k.ready))
			}
			k.steps++
			next = k.ready[c.Picked]
			k.ready = append(k.ready[:c.Picked], k.ready[c.Picked+1:]...)
			next.state = stateRunning
			next.schedCount++
			k.touchFPLocked(next)
			k.stepVisible = false
			k.running = next
			k.mu.Unlock()
			return next, false, nil
		}
		// Prefix exhausted: the re-driven state must hash to the
		// snapshot's capture-point fingerprint, or the program diverged
		// from the run the snapshot was taken from.
		if got := k.fingerprintLocked(); got != k.restore.Fp {
			k.finishLocked()
			k.mu.Unlock()
			return nil, true, fmt.Errorf("kernel: snapshot restore diverged: state fingerprint %#x after re-driving %d steps, snapshot has %#x",
				got, k.restore.Depth, k.restore.Fp)
		}
		k.restore = nil
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
	k.fps = append(k.fps, k.fingerprintLocked())
	if k.markFn != nil {
		k.marks = append(k.marks, k.markFn())
	}
	if k.depTrace {
		for _, sp := range k.ready {
			k.readyIDs = append(k.readyIDs, int32(sp.proc.id))
		}
	}
	idx := k.policy.Pick(readyProcs)
	if idx < 0 || idx >= len(k.ready) {
		k.finishLocked()
		k.mu.Unlock()
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
	k.touchFPLocked(next)
	k.stepVisible = false
	k.running = next
	k.mu.Unlock()
	return next, false, nil
}

// handoff gives up the processor: sp (which has already recorded its new
// state under k.mu) makes the next scheduling decision and suspends
// until Run resumes it. If the scheduler picked sp itself (possible after
// a yield), it keeps running with no coroutine switch at all.
func (sp *simProc) handoff() {
	next, fin, err := sp.kernel.schedule(sp)
	if !fin && next == sp {
		return
	}
	sp.await(decision{next: next, err: err})
}

// wakeSleepersLocked advances the clock to the earliest wake time and
// readies every sleeper due at that time. It reports whether any process
// was woken.
func (k *SimKernel) wakeSleepersLocked() bool {
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
			k.markReadyLocked(sp)
			sp.readyCause = -1 // woken by the clock, not by a step
		}
	}
	return true
}

// anyNonDaemonLiveLocked reports whether a non-daemon process has not yet
// terminated.
func (k *SimKernel) anyNonDaemonLiveLocked() bool {
	for _, sp := range k.procs {
		if !sp.daemon && sp.state != stateDead {
			return true
		}
	}
	return false
}

// parkedNamesLocked lists live non-daemon processes (all necessarily
// parked when called) for the deadlock report.
func (k *SimKernel) parkedNamesLocked() []string {
	var names []string
	for _, sp := range k.procs {
		if !sp.daemon && sp.state != stateDead {
			names = append(names, sp.proc.String())
		}
	}
	return names
}

// checkLiveLocked unwinds the calling process if the run is already over
// — this catches kernel operations issued while a process stack is being
// unwound (e.g. from a deferred cleanup).
func (k *SimKernel) checkLiveLocked() {
	if k.finished {
		k.mu.Unlock()
		panic(errShutdown)
	}
}

func (sp *simProc) park() {
	k := sp.kernel
	k.mu.Lock()
	k.checkLiveLocked()
	k.stepVisible = true
	k.noteDepLocked(objProc(sp.proc.id))
	if sp.permit {
		sp.permit = false
		k.touchFPLocked(sp)
		k.mu.Unlock()
		return
	}
	sp.state = stateParked
	k.touchFPLocked(sp)
	k.mu.Unlock()
	sp.handoff()
}

func (sp *simProc) unpark() {
	k := sp.kernel
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.finished {
		return
	}
	k.stepVisible = true
	k.noteDepLocked(objProc(sp.proc.id))
	switch sp.state {
	case stateParked:
		k.markReadyLocked(sp)
	case stateDead:
		// no-op
	default:
		sp.permit = true
		k.touchFPLocked(sp)
	}
}

func (sp *simProc) yield() {
	// A pure yield is the one invisible kernel operation: it perturbs
	// only the yielder's position in the ready order, which the state
	// fingerprint deliberately ignores.
	k := sp.kernel
	k.mu.Lock()
	k.checkLiveLocked()
	k.markReadyLocked(sp)
	k.mu.Unlock()
	sp.handoff()
}

func (sp *simProc) sleep(ticks int64) {
	k := sp.kernel
	k.mu.Lock()
	k.checkLiveLocked()
	k.stepVisible = true
	k.noteDepLocked(objProc(sp.proc.id))
	sp.state = stateSleeping
	sp.wakeAt = k.now + ticks
	k.touchFPLocked(sp)
	k.mu.Unlock()
	sp.handoff()
}

// exited records the end of sp's body and makes the next scheduling
// decision; the caller yields it to Run.
func (sp *simProc) exited() decision {
	k := sp.kernel
	k.mu.Lock()
	k.checkLiveLocked()
	sp.state = stateDead
	k.stepVisible = true
	k.noteDepLocked(objProc(sp.proc.id))
	k.touchFPLocked(sp)
	k.mu.Unlock()
	next, _, err := k.schedule(sp)
	return decision{next: next, err: err}
}
