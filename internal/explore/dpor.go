// Dynamic partial-order reduction for the DFS phase (Options.DPOR).
//
// The plain DFS branches at every visible decision point, then relies on
// fingerprint pruning to dedup states after the fact. DPOR avoids
// scheduling the redundant siblings in the first place: after each run
// the driver reconstructs a happens-before relation from the kernel's
// dependency trace (kernel.WithDepTrace) via per-step vector clocks, and
// for every pair of conflicting steps not ordered by happens-before it
// pushes a backtrack point at the earlier step's branch group — schedule
// the later step's process there instead (a persistent set). If that
// process was not enabled at the branch group, every alternative is
// pushed (the conservative fallback). Runs whose steps all commute with
// their siblings push nothing, so independent interleavings are never
// enumerated.
//
// A sleep-set memory spans the scan: for each branch group the engine
// remembers which processes have already been scheduled from it — by an
// executed run passing through or by a proposal already pushed.
// Re-proposing such a process would re-run a continuation the search
// already owns, so it is suppressed. Without Prune a branch group is a
// choice prefix (byte-exact: identical prefixes drive identical runs, so
// the suppression loses nothing). With Prune it is a state fingerprint:
// equivalent states have equivalent continuations, so a (state, process)
// pair needs branching only once no matter how many prefixes reach the
// state — the two reductions compose per (state, process) pair rather
// than per decision point. Suppressing a whole point because its state
// was expanded before (what plain pruned DFS does) would be unsound
// here: the earlier expansion pushed only the siblings its own races
// demanded, not all of them.
//
// Everything here runs on the driver, over completed runs, in canonical
// LIFO order, so the reduced search is byte-deterministic at every
// Workers count. The dependency relation itself is deliberately
// conservative but heuristic (see kernel/deps.go); Options.Audit is the
// correctness gate, the same cross-check that keeps Prune honest.
package explore

import (
	"sort"

	"repro/internal/kernel"
)

// dporAnalysisCap bounds the number of scheduling steps the vector-clock
// pass walks per run. Runs longer than this (possible only with very
// deep scenarios) have races past the cap ignored; backtrack points can
// only land within Options.DFSDepth anyway, and the audit covers the
// loss like every other approximation here.
const dporAnalysisCap = 4096

// dporProposal is one backtrack point: branch to alternative alt at
// decision point i.
type dporProposal struct{ i, alt int }

// dporState is the per-scan reduction state: the sleep-set memory plus
// reusable analysis scratch, all mutated on the driver only.
type dporState struct {
	// groupSeen maps a branch group — the binary key of the choice
	// prefix before a decision point — to the process ids already
	// scheduled from it. Used without Prune.
	groupSeen map[string][]int32
	// stateSeen is groupSeen keyed by state fingerprint instead of
	// prefix. Used with Prune: equivalent states share one sleep set.
	stateSeen map[uint64][]int32

	// Per-run scratch, reused across runs.
	off      []int   // readyIDs offset per decision point
	stepProc []int32 // executing process id per step
	lastOf   []int32 // process id -> its latest step so far, -1 if none
	clocks   []int32 // flat per-step vector clocks, stride = max id + 1
	pclock   []int32 // pre-access clock of the step under analysis
	lastAcc  []int32 // object slot -> its latest accessing step, -1 if none
	props    []dporProposal
	propSeen map[int64]bool
	pushedAt map[int]int
	keyBuf   []byte
}

func newDPORState() *dporState {
	return &dporState{
		groupSeen: map[string][]int32{},
		stateSeen: map[uint64][]int32{},
		propSeen:  map[int64]bool{},
		pushedAt:  map[int]int{},
	}
}

// addGroupSeen records that process p has been scheduled from the branch
// group key; it reports false if p was already known there.
func (d *dporState) addGroupSeen(key []byte, p int32) bool {
	set := d.groupSeen[string(key)]
	for _, q := range set {
		if q == p {
			return false
		}
	}
	d.groupSeen[string(key)] = append(set, p)
	return true
}

// addStateSeen is addGroupSeen keyed by state fingerprint.
func (d *dporState) addStateSeen(fp uint64, p int32) bool {
	set := d.stateSeen[fp]
	for _, q := range set {
		if q == p {
			return false
		}
	}
	d.stateSeen[fp] = append(set, p)
	return true
}

// join folds the stored clock of step into dst (component-wise max).
func (d *dporState) join(dst []int32, step int) {
	src := d.clocks[step*len(dst) : (step+1)*len(dst)]
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// expand is DPOR's replacement for expandDFS: it analyzes the completed
// run's dependency trace and returns only the backtrack points the
// detected races demand, sorted like expandDFS's output (ascending
// branch depth, so checkpoint registration and LIFO pop order are
// unchanged). blocked counts the sibling alternatives within the node's
// own suffix that plain branching would have pushed and the reduction
// did not.
func (d *dporState) expand(prefix []kernel.Choice, out runOut, depth int, expanded map[uint64]bool, pruned *int) ([][]kernel.Choice, int) {
	schedule := out.schedule
	limit := len(schedule)
	if limit > depth {
		limit = depth
	}
	if limit > len(out.visible) {
		limit = len(out.visible)
	}
	if limit > len(out.fps) {
		limit = len(out.fps)
	}

	// Offsets of each decision's segment in the flattened ready-set ids.
	d.off = d.off[:0]
	off := 0
	for _, c := range schedule {
		d.off = append(d.off, off)
		off += c.Ready
	}
	if off > len(out.readyIDs) || len(out.causes) < len(schedule) {
		// No dependency records (defensive; the executor enables
		// WithDepTrace whenever DPOR is on): fall back to plain branching.
		return expandDFS(prefix, out, depth, expanded, pruned), 0
	}
	var maxID int32
	for _, p := range out.readyIDs {
		if p > maxID {
			maxID = p
		}
	}
	d.stepProc = d.stepProc[:0]
	for i, c := range schedule {
		d.stepProc = append(d.stepProc, out.readyIDs[d.off[i]+c.Picked])
	}

	// Sleep-set bookkeeping: every branchable decision this run passed
	// through has scheduled its picked process from that branch group —
	// a state with Prune (expanded non-nil), a choice prefix without.
	if expanded != nil {
		for i := 0; i < limit; i++ {
			if schedule[i].Ready >= 2 && out.visible[i] {
				d.addStateSeen(out.fps[i], d.stepProc[i])
			}
		}
	} else {
		d.keyBuf = d.keyBuf[:0]
		for i := 0; i < limit; i++ {
			if schedule[i].Ready >= 2 {
				d.addGroupSeen(d.keyBuf, d.stepProc[i])
			}
			d.keyBuf = appendScheduleKey(d.keyBuf, schedule[i:i+1])
		}
	}

	// Forward vector-clock pass. A step's clock is the join of its
	// process's previous step, the step that readied the process
	// (unpark/spawn edges), and the last accesses of the objects it
	// touches; component p holds the latest step of process p known to
	// happen before. A pair (i, j) accessing a common object from
	// different processes races iff i is not in j's pre-access clock.
	steps := len(schedule)
	if steps > dporAnalysisCap {
		steps = dporAnalysisCap
	}
	stride := int(maxID) + 1
	if need := steps * stride; cap(d.clocks) < need {
		d.clocks = make([]int32, need)
	} else {
		d.clocks = d.clocks[:need]
	}
	if cap(d.pclock) < stride {
		d.pclock = make([]int32, stride)
	}
	d.pclock = d.pclock[:stride]
	if cap(d.lastOf) < stride {
		d.lastOf = make([]int32, stride)
	}
	d.lastOf = d.lastOf[:stride]
	for i := range d.lastOf {
		d.lastOf[i] = -1
	}
	// Dependency objects are dense: process cells by id, then the trace
	// cell in the last slot. Size from the accesses, not the ready sets:
	// a spawn touches its child's cell before the child appears in any
	// ready set, and a run cut short can end right there.
	deps := out.deps
	traceSlot := 0
	for _, a := range deps {
		if a.Obj != kernel.DepObjTrace && int(a.Obj) >= traceSlot {
			traceSlot = int(a.Obj) + 1
		}
	}
	if cap(d.lastAcc) <= traceSlot {
		d.lastAcc = make([]int32, traceSlot+1)
	}
	d.lastAcc = d.lastAcc[:traceSlot+1]
	for i := range d.lastAcc {
		d.lastAcc[i] = -1
	}
	objSlot := func(obj uint64) int {
		if obj == kernel.DepObjTrace {
			return traceSlot
		}
		return int(obj)
	}
	d.props = d.props[:0]
	clear(d.propSeen)

	di := 0
	for di < len(deps) && deps[di].Step < 0 {
		di++ // pre-run accesses precede every decision; nothing to backtrack
	}
	for j := 0; j < steps; j++ {
		q := d.stepProc[j]
		pc := d.pclock
		if last := d.lastOf[q]; last >= 0 {
			copy(pc, d.clocks[int(last)*stride:(int(last)+1)*stride])
		} else {
			for i := range pc {
				pc[i] = -1
			}
		}
		if c := out.causes[j]; c >= 0 && int(c) < j {
			d.join(pc, int(c))
		}
		start := di
		for di < len(deps) && deps[di].Step == int32(j) {
			if i := d.lastAcc[objSlot(deps[di].Obj)]; i >= 0 {
				p := d.stepProc[i]
				if p != q && pc[p] < i {
					d.propose(int(i), q, out, limit, expanded, pruned)
				}
			}
			di++
		}
		jc := d.clocks[j*stride : (j+1)*stride]
		copy(jc, pc)
		for k := start; k < di; k++ {
			if i := d.lastAcc[objSlot(deps[k].Obj)]; i >= 0 {
				d.join(jc, int(i))
			}
		}
		jc[q] = int32(j)
		d.lastOf[q] = int32(j)
		for k := start; k < di; k++ {
			d.lastAcc[objSlot(deps[k].Obj)] = int32(j)
		}
	}

	// Materialize the surviving proposals as frontier nodes, ascending
	// (depth, alternative) like expandDFS's push order.
	sort.Slice(d.props, func(a, b int) bool {
		if d.props[a].i != d.props[b].i {
			return d.props[a].i < d.props[b].i
		}
		return d.props[a].alt < d.props[b].alt
	})
	var children [][]kernel.Choice
	clear(d.pushedAt)
	for _, pr := range d.props {
		branch := make([]kernel.Choice, pr.i+1)
		copy(branch, schedule[:pr.i])
		branch[pr.i] = kernel.Choice{Ready: schedule[pr.i].Ready, Picked: pr.alt}
		children = append(children, branch)
		d.pushedAt[pr.i]++
	}
	blocked := 0
	for i := len(prefix); i < limit; i++ {
		if schedule[i].Ready >= 2 {
			blocked += schedule[i].Ready - 1 - d.pushedAt[i]
		}
	}
	return children, blocked
}

// propose adds a backtrack point at decision i, the earlier step of a
// detected race, aiming to schedule process q there. Proposals may land
// anywhere in the run — inside the node's inherited prefix too, which
// grows an ancestor's backtrack set; the scan's pop-time dedup keeps
// duplicates from re-running.
func (d *dporState) propose(i int, q int32, out runOut, limit int, expanded map[uint64]bool, pruned *int) {
	schedule := out.schedule
	if i < 0 || i >= limit || schedule[i].Ready < 2 {
		return
	}
	// With Prune, invisible decision points are not branchable (same
	// visibility reduction expandDFS applies): the step left no mark on
	// the recorded trace, so reordering it cannot change a verdict.
	if expanded != nil && !out.visible[i] {
		*pruned++
		return
	}
	ids := out.readyIDs[d.off[i] : d.off[i]+schedule[i].Ready]
	target := -1
	for a, id := range ids {
		if id == q {
			target = a
			break
		}
	}
	if target == schedule[i].Picked {
		return // the race partner is the step already taken here
	}
	if target >= 0 {
		d.proposeAlt(i, target, q, out, expanded, pruned)
		return
	}
	// q was not enabled at i: the persistent-set fallback branches every
	// alternative, since some enabled process must lead to q running.
	for a, id := range ids {
		if a != schedule[i].Picked {
			d.proposeAlt(i, a, id, out, expanded, pruned)
		}
	}
}

// proposeAlt records proposal (i, alt) targeting process p unless the
// run already proposed it or the sleep-set memory shows p was already
// scheduled from that branch group (a state with Prune, a prefix
// without; state-keyed suppressions count as pruned schedules).
func (d *dporState) proposeAlt(i, alt int, p int32, out runOut, expanded map[uint64]bool, pruned *int) {
	schedule := out.schedule
	key := int64(i)<<32 | int64(alt)
	if d.propSeen[key] {
		return
	}
	d.propSeen[key] = true
	if expanded != nil {
		if !d.addStateSeen(out.fps[i], p) {
			*pruned++
			return
		}
	} else {
		d.keyBuf = appendScheduleKey(d.keyBuf[:0], schedule[:i])
		if !d.addGroupSeen(d.keyBuf, p) {
			return
		}
	}
	d.props = append(d.props, dporProposal{i: i, alt: alt})
}
