// The exploration engine's search loops and the executor they share.
//
// Both phases have a canonical order in which verdicts are taken —
// ascending seed for the random phase, LIFO frontier order for DFS — and
// one driver goroutine takes every verdict in that order. Because every
// schedule is deterministic given its policy, the reported Result —
// Schedule, Runs, Violations, Stats — is independent of the worker count.
//
// The random phase runs on Options.Workers−1 helper goroutines beside the
// driver. Its schedules are known up front, so every worker claims seeds
// from one atomic cursor, runs them on private kernels and judges each
// where it ran; a clean run's slot goes back to the pool at once. Runs
// past a finding are wasted work, never a different answer, and
// randomLead bounds how many there can be.
//
// The DFS phase runs on the driver alone. Each run replays its prefix
// from the root, its children come from the run before, and LIFO order
// pushes them above anything a helper could have claimed ahead; measured
// speculation cost more CPU than it saved (DESIGN.md §6.5). But the DFS
// reads no random verdict, so while the helpers sample seeds the driver
// runs the DFS (overlap), on a tracker of its own, and takes the published
// random verdicts in seed order between DFS nodes. A random finding stops
// the DFS and is the Result; once the DFS is done the driver joins the
// remaining seeds, running the next unclaimed seed itself whenever the
// verdict it must take next is still being made elsewhere. The DFS Result
// counts only when every seed is clean. At Workers 1 there is no helper,
// so the driver samples every seed before it starts the DFS, and a random
// finding pays for no DFS run.
//
// All schedule-space pruning (fingerprint dedup, the invisible-step rule,
// DPOR) happens on the driver in canonical order, so pruning decisions are
// independent of the worker count too.
package explore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// runOut is the outcome of executing one schedule. The slices are
// zero-copy views into the executing slot's buffers: valid until the slot
// is released (executor.release) and must be copied before escaping into
// a Result.
type runOut struct {
	schedule []kernel.Choice
	tr       trace.Trace
	err      error
	fps      []uint64 // state fingerprint at each decision point
	visible  []bool   // per-step visibility (false = pure yield)
	// Dependency-trace views (empty unless Options.DPOR): per-step object
	// accesses, the flattened ready-set ids per decision, and the readying
	// step of each pick. See kernel/deps.go.
	deps     []kernel.DepAccess
	readyIDs []int32
	causes   []int32
	slot     *runSlot
}

// violations is the run's verdict: the streaming checker's findings when
// one judged the run event by event, else the batch oracle's. Like the
// other views, a streamed verdict is valid only until the slot is
// released.
func (out runOut) violations(oracle Oracle) []problems.Violation {
	if out.slot.stream != nil {
		return out.slot.vs
	}
	return oracle(out.tr)
}

// runSlot bundles the per-run machinery — a kernel, its recorder, and
// optionally a streaming checker wired to cut violating runs short. Slots
// are recycled through Reset instead of reallocated, so the steady-state
// cost of a run is the run itself, not its setup.
type runSlot struct {
	k      *kernel.SimKernel
	r      *trace.Recorder
	stream problems.StreamChecker
	vs     []problems.Violation
}

// executor runs schedules on recycled slots, attaching a streaming
// checker when Options.Stream is set. It is safe for concurrent use; each
// run executes on a private slot. A slot, and the SimKernel confined to
// it, passes between goroutines only under the freelist's lock or, for a
// random-phase finding, through the seed ring's atomic publish.
type executor struct {
	maxSteps  int64
	newStream func() problems.StreamChecker
	dpor      bool

	// slots counts runSlots ever created; reuses counts runs served by a
	// recycled slot. Atomics because random-phase workers acquire
	// concurrently; they feed Stats observability fields only, never the
	// deterministic Result.
	slots  atomic.Int64
	reuses atomic.Int64

	mu   sync.Mutex
	free []*runSlot
	all  []*runSlot // every slot ever created, for close()
}

func newExecutor(opts Options) *executor {
	return &executor{maxSteps: opts.MaxSteps, newStream: opts.Stream, dpor: opts.DPOR}
}

// poolStats reports (slots created, runs served by a recycled slot) for
// Stats snapshots.
func (e *executor) poolStats() (int, int) {
	return int(e.slots.Load()), int(e.reuses.Load())
}

func (e *executor) acquire() *runSlot {
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.mu.Unlock()
		e.reuses.Add(1)
		return s
	}
	e.mu.Unlock()
	e.slots.Add(1)
	kopts := []kernel.SimOption{kernel.WithMaxSteps(e.maxSteps), kernel.WithRecycle()}
	if e.dpor {
		kopts = append(kopts, kernel.WithDepTrace())
	}
	s := &runSlot{k: kernel.NewSim(kopts...)}
	s.r = trace.NewRecorder(s.k)
	e.mu.Lock()
	e.all = append(e.all, s)
	e.mu.Unlock()
	if e.newStream != nil {
		s.stream = e.newStream()
		s.r.SetObserver(func(ev trace.Event) {
			if vs := s.stream.Observe(ev); len(vs) > 0 {
				s.vs = append(s.vs, vs...)
				s.k.Stop()
			}
		})
	}
	return s
}

// release returns out's slot to the freelist. Call only once every view
// in out (schedule, trace, fingerprints, visibility) has been consumed or
// copied; a released slot's next run overwrites them all.
func (e *executor) release(out runOut) {
	e.mu.Lock()
	e.free = append(e.free, out.slot)
	e.mu.Unlock()
}

// close releases every slot's recycled process coroutines. Call once, when
// no run is in flight (the random phase waits out its helpers before
// returning).
func (e *executor) close() {
	for _, s := range e.all {
		s.k.Close()
	}
}

// run executes prog once under the given policy on a recycled slot and
// returns the outcome as views into the slot's buffers. Safe to call from
// multiple goroutines concurrently.
func (e *executor) run(prog Program, policy kernel.Policy) runOut {
	s := e.acquire()
	s.k.Reset(kernel.WithPolicy(policy))
	s.r.Reset()
	if s.stream != nil {
		s.stream.Reset()
		s.vs = s.vs[:0]
	}
	prog(s.k, s.r)
	err := s.k.Run()
	return runOut{
		schedule: s.k.ChoicesView(),
		tr:       s.r.Snapshot(),
		err:      err,
		fps:      s.k.StepFingerprints(),
		visible:  s.k.StepVisibility(),
		deps:     s.k.DepAccesses(),
		readyIDs: s.k.ReadySetIDs(),
		causes:   s.k.ReadyCauses(),
		slot:     s,
	}
}

// randomLead is how many seeds per worker the random phase's claims may
// run ahead of the driver, which takes verdicts in seed order. It bounds
// the runs wasted past a finding at randomLead×Workers, and the slots a
// phase holds at Workers plus the findings it has not reached.
const randomLead = 4

// randSlot holds one random-phase verdict. seq, stored last, is the
// 1-based seed the verdict belongs to. A finding keeps its run (out, vs)
// and the run's slot until the driver takes it or the phase ends.
type randSlot struct {
	seq   atomic.Int64
	found bool
	out   runOut
	vs    []problems.Violation
}

// seedRing is the random phase over seeds 1..n. Workers claim seeds from
// cursor and publish each verdict in slot seed mod lead. A seed is claimed
// only while fewer than lead claimed seeds are untaken, so its slot is
// always free. The driver opens the phase (startRandom), takes verdicts in
// seed order (take, finish) and ends it (stop).
type seedRing struct {
	e       *executor
	prog    Program
	oracle  Oracle
	n, lead int64
	helpers int // goroutines claiming seeds beside the driver
	wg      sync.WaitGroup
	slots   []randSlot
	cursor  atomic.Int64
	taken   atomic.Int64 // verdicts the driver has taken; written by the driver only
	stopped atomic.Bool

	// Slow path: a helper parked on a full lead, or the driver waiting on
	// a seed a helper is still running. sleepers lets wake skip the lock
	// when nobody sleeps.
	mu       sync.Mutex
	cond     sync.Cond
	sleepers atomic.Int32
}

// startRandom opens the random phase and starts its helpers,
// min(Workers, RandomRuns)−1 goroutines that claim seeds and judge each
// where it ran until every seed is claimed or the phase stops. It returns
// nil when there is no random phase. Each worker reseeds one
// kernel.RandomPolicy per claimed seed: the kernel consults its policy only
// inside Run, so a slot still holding the policy after its run never draws
// from it again.
func startRandom(e *executor, prog Program, oracle Oracle, opts Options, t *tracker) *seedRing {
	n := opts.RandomRuns
	if n == 0 {
		return nil
	}
	t.phase("random")
	workers := min(opts.Workers, n)
	r := &seedRing{e: e, prog: prog, oracle: oracle, n: int64(n), lead: int64(randomLead * workers), helpers: workers - 1}
	r.slots = make([]randSlot, r.lead)
	r.cond.L = &r.mu
	room := func() bool { return r.stopped.Load() || r.cursor.Load()-r.taken.Load() < r.lead }
	r.wg.Add(r.helpers)
	for range r.helpers {
		go func() {
			defer r.wg.Done()
			policy := kernel.Random(0)
			for !r.stopped.Load() {
				switch i := r.claim(); {
				case i == r.n:
					return
				case i < 0:
					r.sleep(room)
				default:
					r.runSeed(i, policy)
				}
			}
		}()
	}
	return r
}

// claim takes the next unclaimed seed. It returns -1 while the lead is
// full and n once every seed is claimed.
func (r *seedRing) claim() int64 {
	for {
		c := r.cursor.Load()
		if c >= r.n {
			return r.n
		}
		if c-r.taken.Load() >= r.lead {
			return -1
		}
		if r.cursor.CompareAndSwap(c, c+1) {
			return c
		}
	}
}

func (r *seedRing) published(i int64) bool { return r.slots[i%r.lead].seq.Load() == i+1 }

// runSeed runs seed i+1 and judges it where it ran. A clean run's slot
// goes back to the pool at once; a finding keeps its slot for the
// driver.
func (r *seedRing) runSeed(i int64, policy *kernel.RandomPolicy) {
	policy.Seed(i + 1)
	out := r.e.run(r.prog, policy)
	vs, found := verdict(out, r.oracle)
	if !found {
		r.e.release(out)
		out, vs = runOut{}, nil
	}
	s := &r.slots[i%r.lead]
	s.found, s.out, s.vs = found, out, vs
	s.seq.Store(i + 1)
	r.wake()
}

// sleep blocks until ready holds. Every change ready can observe is an
// atomic store followed by wake, and sleep counts itself in sleepers
// before testing ready, so a wake-up is never lost.
func (r *seedRing) sleep(ready func() bool) {
	r.mu.Lock()
	r.sleepers.Add(1)
	for !ready() {
		r.cond.Wait()
	}
	r.sleepers.Add(-1)
	r.mu.Unlock()
}

func (r *seedRing) wake() {
	if r.sleepers.Load() > 0 {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// take takes the verdicts already published, in seed order, up to the
// first seed still unpublished, and returns the first finding among them:
// the lowest-seed finding, whatever the worker count. It neither runs nor
// waits for a seed.
func (r *seedRing) take(t *tracker) (Result, bool) {
	for next := r.taken.Load(); next < r.n && r.published(next); next++ {
		t.ran()
		if s := &r.slots[next%r.lead]; s.found {
			return finding(s.out, s.vs, t.st.Runs), true
		}
		r.taken.Store(next + 1)
		r.wake()
	}
	return Result{}, false
}

// done reports whether every seed's verdict has been taken, all clean.
func (r *seedRing) done() bool { return r.taken.Load() == r.n }

// finish takes the remaining verdicts in seed order and returns the first
// finding. When the verdict it must take next is still being made on a
// helper, the driver runs the next unclaimed seed itself and checks again;
// it blocks only when nothing is left to claim.
func (r *seedRing) finish(t *tracker) (Result, bool) {
	var policy *kernel.RandomPolicy
	for {
		if res, found := r.take(t); found || r.done() {
			return res, found
		}
		next := r.taken.Load()
		if i := r.claim(); i >= 0 && i < r.n {
			if policy == nil {
				policy = kernel.Random(0)
			}
			r.runSeed(i, policy)
		} else {
			r.sleep(func() bool { return r.published(next) })
		}
	}
}

// stop ends the phase. It stops the helpers and waits for them, so no
// goroutine outlives the phase (in-flight runs are bounded by MaxSteps),
// then returns to the pool the slots of findings the driver did not take.
func (r *seedRing) stop() {
	r.stopped.Store(true)
	r.wake()
	r.wg.Wait()
	for i := r.taken.Load(); i < min(r.cursor.Load(), r.n); i++ {
		if s := &r.slots[i%r.lead]; s.found {
			r.e.release(s.out)
		}
	}
}

// overlap runs the DFS phase on the driver while the helpers sample seeds.
// The DFS reads no random verdict, so it runs on a tracker of its own that
// counts from 1+RandomRuns, where a DFS after a clean random phase starts.
// Between DFS nodes the driver takes the published verdicts in seed
// order; a finding stops the DFS at the next node boundary and is the
// Result. Once the DFS is done, the driver joins the remaining seeds. The
// DFS Result counts only when every seed is clean: the driver then adopts
// the DFS tracker and emits one "dfs" snapshot, mid-DFS if the random
// phase ends first.
func overlap(r *seedRing, opts Options, t *tracker) Result {
	dt := t.silent()
	dt.st.Runs += opts.RandomRuns
	var rres Result
	found, adopted := false, false
	adopt := func() {
		adopted = true
		dt.progress = t.progress
		dt.emit()
	}
	res := dfsPhase(r.e, r.prog, r.oracle, opts, dt, func() bool {
		if !found && !adopted {
			if rres, found = r.take(t); !found && r.done() {
				adopt()
			}
		}
		return found
	})
	if !found && !adopted {
		if rres, found = r.finish(t); !found {
			adopt()
		}
	}
	if found {
		return rres
	}
	t.st = dt.st
	return res
}

// auditSet summarizes what a DFS pass found, for the Audit cross-check:
// the distinct violation rules plus canonical tokens for kernel errors.
type auditSet map[string]bool

func (s auditSet) addRun(out runOut, oracle Oracle) {
	if out.err != nil {
		if errors.Is(out.err, kernel.ErrDeadlock) {
			s["kernel-error:deadlock"] = true
		} else {
			s["kernel-error"] = true
		}
		return
	}
	for _, v := range out.violations(oracle) {
		s[v.Rule] = true
	}
}

// dfsPhase enumerates choice prefixes in LIFO frontier order with an
// explicit DFS-run budget, dispatching to the audit harness when a
// reduction is on and Options.Audit asks for the cross-check. stop, when
// not nil, is asked before every DFS node; once it returns true the search
// ends at once and its Result is to be discarded.
func dfsPhase(e *executor, prog Program, oracle Oracle, opts Options, t *tracker, stop func() bool) Result {
	t.phase("dfs")
	if opts.Audit && (opts.Prune || opts.DPOR) {
		return dfsAudit(e, prog, oracle, opts, t, stop)
	}
	res, _ := dfsScan(e, prog, oracle, opts, t, opts.Prune, opts.DPOR, false, stop)
	return res
}

// dfsAudit cross-checks reduction: it runs the DFS budget twice in
// collect mode — once with the configured reductions (Prune and/or
// DPOR), once fully unreduced — and fails with ErrAuditFailed if the
// unreduced frontier surfaced any violation rule the reduced search
// missed. On success the result is exactly what a plain reduced DFS
// would have reported (collect mode behaves identically up to the first
// finding). A stop that fires during the reduced pass also ends the
// reference pass before its first run.
func dfsAudit(e *executor, prog Program, oracle Oracle, opts Options, t *tracker, stop func() bool) Result {
	// The reference pass uses a silent tracker: its runs are not part of
	// the canonical counter stream the Result (and Progress) reports.
	ref0 := t.silent()
	res, got := dfsScan(e, prog, oracle, opts, t, opts.Prune, opts.DPOR, true, stop)
	_, ref := dfsScan(e, prog, oracle, opts, ref0, false, false, true, stop)
	var missing []string
	for rule := range ref {
		if !got[rule] {
			missing = append(missing, rule)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		res.Found = true
		res.Err = fmt.Errorf("%w: reduced search missed %s", ErrAuditFailed, strings.Join(missing, ", "))
	}
	return res
}

// dfsScan is the DFS engine. prune enables fingerprint-based subtree
// skipping; dpor replaces exhaustive branching with happens-before
// driven backtrack points (see dpor.go); collect runs the full budget
// recording every finding's rule (for the audit) instead of returning
// at the first one. The returned Result is the first finding either
// way, so collect=false and collect=true agree on everything a caller
// of Run can observe. stop is dfsPhase's hook: once it returns true the
// scan returns at once, before its next node.
func dfsScan(e *executor, prog Program, oracle Oracle, opts Options, t *tracker, prune, dpor, collect bool, stop func() bool) (Result, auditSet) {
	found := auditSet{}
	if opts.DFSRuns <= 0 {
		return Result{Runs: t.st.Runs}, found
	}
	stack := [][]kernel.Choice{nil}

	// seen dedups frontier prefixes by compact binary key; dedup happens
	// at pop time (not push time) to preserve the LIFO exploration order
	// exactly. expanded dedups *states*: a decision point whose
	// fingerprint was already branched from is not branched again,
	// killing subtrees that differ only in how they arrived.
	seen := map[string]bool{}
	var expanded map[uint64]bool
	if prune {
		expanded = map[uint64]bool{}
	}
	// The DPOR state (sleep-set memory and analysis scratch) is per-scan
	// like the pruner's maps, so the audit's reference pass shares
	// nothing with the reduced pass.
	var dp *dporState
	if dpor {
		dp = newDPORState()
	}
	pruned := 0
	var keyBuf []byte
	var first Result
	dfsRuns := 0 // explicit budget counter: at most DFSRuns schedules execute
	for dfsRuns < opts.DFSRuns && len(stack) > 0 {
		if stop != nil && stop() {
			return Result{}, found
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.st.Frontier = len(stack)

		keyBuf = appendScheduleKey(keyBuf[:0], prefix)
		if seen[string(keyBuf)] {
			continue
		}
		seen[string(keyBuf)] = true

		out := e.run(prog, kernel.Replay(prefix))
		dfsRuns++
		if cut(out.schedule, opts.DFSDepth, dpor) {
			t.st.CutRuns++
		}
		t.st.Pruned = pruned
		t.ran()
		res, isFinding := judge(out, oracle, t.st.Runs)
		if isFinding {
			if !collect {
				e.release(out) // judge copied what the Result keeps
				res.Pruned = pruned
				return res, found
			}
			found.addRun(out, oracle)
			if !first.Found {
				first = res
				first.Pruned = pruned
			}
		}

		// Branch: for each decision point within depth (at or beyond the
		// prefix), schedule the alternatives not taken — or, with DPOR,
		// only the backtrack points the run's dependency trace demands —
		// in ascending depth, so LIFO pops explore the deepest first.
		var children [][]kernel.Choice
		if dp != nil {
			var blocked int
			children, blocked = dp.expand(prefix, out, opts.DFSDepth, expanded, &pruned)
			t.st.BacktrackPoints += len(children)
			t.st.DPORBlocked += blocked
		} else {
			children = expandDFS(prefix, out, opts.DFSDepth, expanded, &pruned)
		}
		e.release(out)
		stack = append(stack, children...)
		t.st.Frontier = len(stack)
	}
	t.st.Frontier = 0
	// The frontier emptied before the budget ran out, and no run left a
	// decision point unbranched: every schedule the (possibly reduced)
	// search tells apart has been run.
	t.st.Exhausted = len(stack) == 0 && t.st.CutRuns == 0
	if !first.Found {
		first.Runs = t.st.Runs
		first.Pruned = pruned
	}
	return first, found
}

// cut reports whether the search cannot branch on every decision point
// of a run: one lies at or past the depth bound, where the DFS runs
// FIFO, or, with DPOR, the run is longer than the race pass walks
// (dporAnalysisCap), so a race whose later step lies past the cap is
// never proposed.
func cut(schedule []kernel.Choice, depth int, dpor bool) bool {
	if dpor && len(schedule) > dporAnalysisCap {
		return true
	}
	for i := max(depth, 0); i < len(schedule); i++ {
		if schedule[i].Ready >= 2 {
			return true
		}
	}
	return false
}

// expandDFS builds the branch nodes of a completed run: every alternative
// choice not taken at each decision point from the end of the prefix up
// to the depth bound.
//
// With pruning (expanded non-nil) two classes of decision point are
// skipped wholesale:
//
//   - Invisible steps: if the step taken at point i was a pure yield, the
//     alternatives at i commute with it — the same picks are available,
//     from an equivalent state, at point i+1 — so the siblings at i are
//     redundant with the expansion one step later (the sleep-set idea
//     specialized to the one invisible operation the kernel has).
//   - Visited states: if some earlier run already branched from a
//     fingerprint-equal state, the alternatives here lead into subtrees
//     the search has already scheduled; branching again re-explores them
//     with a different arrival history.
//
// Skipped sibling counts accumulate into *pruned for reporting. The
// fingerprint is a heuristic abstraction (see kernel.Fingerprint);
// Options.Audit cross-checks that pruning lost no violation.
func expandDFS(prefix []kernel.Choice, out runOut, depth int, expanded map[uint64]bool, pruned *int) [][]kernel.Choice {
	schedule := out.schedule
	limit := len(schedule)
	if limit > depth {
		limit = depth
	}
	if expanded != nil {
		// Defensive: views are aligned on every judged path, but never
		// index past what the kernel recorded.
		if limit > len(out.visible) {
			limit = len(out.visible)
		}
		if limit > len(out.fps) {
			limit = len(out.fps)
		}
	}
	var children [][]kernel.Choice
	for i := len(prefix); i < limit; i++ {
		if schedule[i].Ready < 2 {
			continue // no alternatives existed
		}
		if expanded != nil {
			if !out.visible[i] {
				*pruned += schedule[i].Ready - 1
				continue
			}
			if expanded[out.fps[i]] {
				*pruned += schedule[i].Ready - 1
				continue
			}
			expanded[out.fps[i]] = true
		}
		for alt := 0; alt < schedule[i].Ready; alt++ {
			if alt == schedule[i].Picked {
				continue
			}
			branch := make([]kernel.Choice, i+1)
			copy(branch, schedule[:i])
			branch[i] = kernel.Choice{Ready: schedule[i].Ready, Picked: alt}
			children = append(children, branch)
		}
	}
	return children
}

// appendScheduleKey appends a compact binary encoding of the choice
// sequence: two uvarints per choice. The encoding is injective (uvarints
// are self-delimiting), so key equality is exactly prefix equality — the
// property the old fmt.Sprint key bought with O(prefix) reflection-based
// formatting per DFS node.
func appendScheduleKey(b []byte, cs []kernel.Choice) []byte {
	for _, c := range cs {
		b = binary.AppendUvarint(b, uint64(c.Ready))
		b = binary.AppendUvarint(b, uint64(c.Picked))
	}
	return b
}
