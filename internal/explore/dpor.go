// Dynamic partial-order reduction for the DFS phase (Options.DPOR).
//
// The plain DFS branches at every visible decision point, then relies on
// fingerprint pruning to dedup states after the fact. DPOR avoids
// scheduling the redundant siblings in the first place: after each run
// the driver reconstructs a happens-before relation from the kernel's
// dependency trace (kernel.WithDepTrace), and for every pair of
// conflicting steps not ordered by happens-before it pushes a backtrack
// point at the earlier step's branch group — schedule the later step's
// process there instead (a persistent set). If that process was not
// enabled at the branch group, every alternative is pushed (the
// conservative fallback). Runs whose steps all commute with their
// siblings push nothing, so independent interleavings are never
// enumerated.
//
// Backtrack points can only land on branch points: decision points
// inside the depth bound with two or more ready processes. So the race
// pass tracks happens-before only into those. Each branch point gets one
// bit, and each step carries the bitset of branch points that happen
// before it: ⌈B/64⌉ words per step for a run with B branch points, one
// word whenever DFSDepth is at most 64. A join is a word OR and the race
// test a bit test. The pass is exact: a process's steps are chained in
// program order, so a branch point i happens before step j exactly when
// a per-process vector clock of j would hold a step of i's process at or
// after i.
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
	"cmp"
	"slices"

	"repro/internal/kernel"
)

// dporAnalysisCap bounds the number of scheduling steps the race pass
// walks per run. Runs longer than this (possible only with very deep
// scenarios) have races past the cap ignored, so the scan counts them as
// cut (StatsCore.CutRuns) and such a search never claims Exhausted.
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
	off       []int    // readyIDs offset per decision point
	stepProc  []int32  // executing process id per step
	lastOf    []int32  // process id -> its latest step so far, -1 if none
	lastAcc   []int32  // object slot -> its latest accessing step, -1 if none
	traceSlot int      // lastAcc slot of kernel.DepObjTrace
	bit       []int32  // branch point -> its bit, -1 for other decision points
	hb        []uint64 // per step, the bitset of branch points before it
	pre       []uint64 // pre-access bitset of the step under analysis
	props     []dporProposal
	propSeen  map[int64]bool
	pushedAt  map[int]int
	keyBuf    []byte
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

// expand is DPOR's replacement for expandDFS: it analyzes the completed
// run's dependency trace and returns only the backtrack points the
// detected races demand, sorted like expandDFS's output (ascending
// branch depth, so checkpoint registration and LIFO pop order are
// unchanged). blocked counts the sibling alternatives within the node's
// own suffix that plain branching would have pushed and the reduction
// did not.
func (d *dporState) expand(prefix []kernel.Choice, out runOut, depth int, expanded map[uint64]bool, pruned *int) ([][]kernel.Choice, int) {
	limit, ok := d.prepare(out, depth, expanded)
	if !ok {
		// No dependency records (defensive; the executor enables
		// WithDepTrace whenever DPOR is on): fall back to plain branching.
		return expandDFS(prefix, out, depth, expanded, pruned), 0
	}
	d.races(out, limit, expanded, pruned)
	return d.children(prefix, out, limit)
}

// prepare readies the per-run scratch for a race pass over out and does
// the run's sleep-set bookkeeping. It returns the branching limit, the
// decision points below which the search branches, and false when out
// carries no dependency records.
func (d *dporState) prepare(out runOut, depth int, expanded map[uint64]bool) (int, bool) {
	schedule := out.schedule
	limit := min(len(schedule), depth, len(out.visible), len(out.fps))

	// Offsets of each decision's segment in the flattened ready-set ids.
	d.off = d.off[:0]
	off := 0
	for _, c := range schedule {
		d.off = append(d.off, off)
		off += c.Ready
	}
	if off > len(out.readyIDs) || len(out.causes) < len(schedule) {
		return limit, false
	}
	var maxID int32
	for _, p := range out.readyIDs {
		maxID = max(maxID, p)
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

	d.lastOf = resize(d.lastOf, int(maxID)+1)
	for i := range d.lastOf {
		d.lastOf[i] = -1
	}
	// Dependency objects are dense: process cells by id, then the trace
	// cell in the last slot. Size from the accesses, not the ready sets:
	// a spawn touches its child's cell before the child appears in any
	// ready set, and a run cut short can end right there.
	d.traceSlot = 0
	for _, a := range out.deps {
		if a.Obj != kernel.DepObjTrace && int(a.Obj) >= d.traceSlot {
			d.traceSlot = int(a.Obj) + 1
		}
	}
	d.lastAcc = resize(d.lastAcc, d.traceSlot+1)
	for i := range d.lastAcc {
		d.lastAcc[i] = -1
	}
	d.props = d.props[:0]
	clear(d.propSeen)
	return limit, true
}

// slot maps a dependency object to its lastAcc slot.
func (d *dporState) slot(obj uint64) int {
	if obj == kernel.DepObjTrace {
		return d.traceSlot
	}
	return int(obj)
}

// races is the race pass, a forward walk over the run's first
// dporAnalysisCap steps. Step j races with i, the previous access of an
// object j touches, when i is a branch point of another process that
// does not happen before j: i is in neither the bitset of the previous
// step of j's process nor that of the step that readied the process
// (unpark and spawn edges). Each race is proposed as a backtrack point
// at i. Step j's own bitset then adds the bitsets of those previous
// accesses, and j's bit if j is a branch point.
func (d *dporState) races(out runOut, limit int, expanded map[uint64]bool, pruned *int) {
	schedule := out.schedule
	steps := min(len(schedule), dporAnalysisCap)
	// Number the branch points. propose acts on no other decision point,
	// so a race whose earlier step is not one needs no bit.
	nbits := int32(0)
	d.bit = d.bit[:0]
	for i := 0; i < min(limit, steps); i++ {
		b := int32(-1)
		if schedule[i].Ready >= 2 {
			b = nbits
			nbits++
		}
		d.bit = append(d.bit, b)
	}
	if nbits == 0 {
		return
	}
	w := int(nbits+63) / 64
	d.hb = resize(d.hb, steps*w)
	d.pre = resize(d.pre, w)
	hb, pre := d.hb, d.pre

	deps := out.deps
	di := 0
	for di < len(deps) && deps[di].Step < 0 {
		di++ // pre-run accesses precede every decision; nothing to backtrack
	}
	for j := 0; j < steps; j++ {
		q := d.stepProc[j]
		last, cause := int(d.lastOf[q]), int(out.causes[j])
		for k := range pre {
			var v uint64
			if last >= 0 {
				v = hb[last*w+k]
			}
			if cause >= 0 && cause < j {
				v |= hb[cause*w+k]
			}
			pre[k] = v
		}
		start := di
		for ; di < len(deps) && deps[di].Step == int32(j); di++ {
			i := d.lastAcc[d.slot(deps[di].Obj)]
			if i < 0 || int(i) >= len(d.bit) || d.stepProc[i] == q {
				continue
			}
			if b := d.bit[i]; b >= 0 && pre[b>>6]&(1<<(b&63)) == 0 {
				d.propose(int(i), q, out, limit, expanded, pruned)
			}
		}
		h := hb[j*w : (j+1)*w]
		copy(h, pre)
		for k := start; k < di; k++ {
			if i := int(d.lastAcc[d.slot(deps[k].Obj)]); i >= 0 {
				for x := range h {
					h[x] |= hb[i*w+x]
				}
			}
		}
		if j < len(d.bit) {
			if b := d.bit[j]; b >= 0 {
				h[b>>6] |= 1 << (b & 63)
			}
		}
		d.lastOf[q] = int32(j)
		for k := start; k < di; k++ {
			d.lastAcc[d.slot(deps[k].Obj)] = int32(j)
		}
	}
}

// children materializes the surviving proposals as frontier nodes,
// ascending (depth, alternative) like expandDFS's push order, and counts
// the siblings in the node's own suffix the reduction blocked.
func (d *dporState) children(prefix []kernel.Choice, out runOut, limit int) ([][]kernel.Choice, int) {
	schedule := out.schedule
	slices.SortFunc(d.props, func(a, b dporProposal) int {
		return cmp.Or(cmp.Compare(a.i, b.i), cmp.Compare(a.alt, b.alt))
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

// resize returns s with length n, reallocating only when its capacity
// is short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
