// Checkpoint-tree DFS: sibling schedules share their common prefix
// through kernel snapshots instead of replaying it from the root. This is
// how the DFS phase always runs; a node whose checkpoint was never
// registered or was evicted replays from the root, the same path with a
// registry miss.
//
// Every DFS child node branches at the last choice of its prefix, so the
// deepest snapshot that can serve it sits exactly at that branch point —
// captured from the parent run that pushed it. After each clean judged
// run the driver registers one checkpoint per decision point the run
// branched from (the kernel part via kernel.SnapshotAt, the trace prefix
// as a copy), keyed by the binary prefix key the frontier dedup already
// uses. When a node is popped, the driver consumes its branch-point
// entry and forks: kernel.WithRestore re-drives the prefix with the
// per-step pipeline skipped, the recorder serves prefix events from the
// snapshot, and a streaming checker is brought to the fork point by
// re-feeding it the prefix.
//
// Everything here runs on the driver in canonical pop order, so
// registration, consumption, and eviction — and therefore the
// CheckpointForks/SavedSteps/ReplayedSteps counters — are independent of
// the worker count, and every DFS run that finds a live checkpoint forks.
// Restore-and-re-drive is observationally identical to replay by
// determinism (pinned by TestCheckpointMatchesReplay, which compares
// against a registry that keeps nothing), so checkpointing never changes
// what is judged, only what it costs.
package explore

import (
	"repro/internal/kernel"
	"repro/internal/trace"
)

// ckptEntry is one live checkpoint: the kernel snapshot and trace prefix
// at a branch point, plus the bookkeeping that drives eviction.
type ckptEntry struct {
	key     string // binary key of the choice prefix (appendScheduleKey)
	depth   int    // decision points captured
	pending int    // sibling schedules not yet popped from the frontier
	lastUse int64  // registry tick of the most recent consumption
	snap    *kernel.Snapshot
	events  trace.Trace // recorder prefix at the capture point (owned copy)
}

// ckptGroupsPerRun caps how many branch points one run registers,
// counted from the deepest. The frontier pops LIFO, so the next runs
// fork from a run's deepest branch points; shallower ones would usually
// be evicted before their subtree's turn comes, and a miss only costs a
// full replay (which then registers its own deepest branch points).
const ckptGroupsPerRun = 3

// ckptBudget bounds the live checkpoints of one DFS scan. Each holds
// copies of its prefix's schedule, per-step artifacts, and trace events.
// Over budget, the least valuable checkpoint is evicted: fewest pending
// sibling schedules first — LRU weighted by remaining subtree size — with
// ties broken least-recently-forked.
const ckptBudget = 256

// ckptRegistry is the driver-side checkpoint store for one DFS scan.
type ckptRegistry struct {
	budget int
	tick   int64
	byKey  map[string]*ckptEntry
	order  []*ckptEntry // registration order: deterministic eviction scans
	keyBuf []byte       // scratch for key encoding, reused across runs
}

// newCkptRegistry returns a registry holding at most budget checkpoints;
// with a budget below 1 it keeps none, and every take misses.
func newCkptRegistry(budget int) *ckptRegistry {
	return &ckptRegistry{budget: budget, byKey: make(map[string]*ckptEntry, max(budget, 0))}
}

// take consumes one pending sibling of the checkpoint covering
// branchKey, returning the entry to fork from (nil when no checkpoint
// covers the prefix — never registered, or evicted). A fully consumed
// entry leaves the registry but stays valid for the caller: its snapshot
// and events are owned copies.
func (g *ckptRegistry) take(branchKey []byte) *ckptEntry {
	ent := g.byKey[string(branchKey)]
	if ent == nil {
		return nil
	}
	g.tick++
	ent.lastUse = g.tick
	ent.pending--
	if ent.pending <= 0 {
		g.remove(ent)
	}
	return ent
}

// registerRun captures checkpoints for a judged run's deepest branch
// points (ckptGroupsPerRun of them): one per decision point that
// expandDFS branched from, each serving the sibling schedules pushed
// there. children arrive in ascending branch order. The run is captured
// once, at the deepest branch point; the shallower branch points are
// zero-copy truncations of that snapshot (kernel.Snapshot.Truncate)
// sub-slicing the same trace copy, and their map keys come from one
// shared encoding pass (the key encoding is concatenative), so a run
// with several branch points costs little more than one. Only clean
// runs register — a violating or errored run may have been cut short
// (Options.Stream stops violating runs mid-flight), so its trace is not
// a sound prefix to resume from.
func (g *ckptRegistry) registerRun(out runOut, children [][]kernel.Choice) {
	if g.budget < 1 {
		return
	}
	// Collect the deepest groups, scanning from the tail.
	var depths, pendings [ckptGroupsPerRun]int
	n := 0
	for i := len(children); i > 0 && n < ckptGroupsPerRun; {
		d := len(children[i-1]) - 1
		j := i
		for j > 0 && len(children[j-1])-1 == d {
			j--
		}
		if d >= 1 { // forking at the root saves nothing
			depths[n], pendings[n] = d, i-j
			n++
		}
		i = j
	}
	if n == 0 {
		return
	}
	deepest := depths[0]
	deep, err := out.slot.k.SnapshotAt(deepest)
	if err != nil || deep.Events > len(out.tr) {
		return // defensive: never block the search on a capture failure
	}
	events := append(trace.Trace(nil), out.tr[:deep.Events]...)
	// One encoding pass over the deepest prefix, byte offsets per group.
	var offs [ckptGroupsPerRun]int
	buf, prev := g.keyBuf[:0], 0
	for i := n - 1; i >= 0; i-- { // ascending depth order
		buf = appendScheduleKey(buf, out.schedule[prev:depths[i]])
		offs[i], prev = len(buf), depths[i]
	}
	g.keyBuf = buf
	for i := n - 1; i >= 0; i-- {
		d := depths[i]
		snap, evs := deep, events
		if d < deepest {
			if snap, err = deep.Truncate(d); err != nil || snap.Events > len(events) {
				continue
			}
			evs = events[:snap.Events]
		}
		g.register(string(buf[:offs[i]]), d, pendings[i], snap, evs)
	}
}

func (g *ckptRegistry) register(key string, depth, pending int, snap *kernel.Snapshot, events trace.Trace) {
	if ent := g.byKey[key]; ent != nil {
		// A previous run already covers this prefix; its copy serves the
		// new siblings too (they are frontier duplicates and will be
		// dedup-skipped, but each pop still consumes a pending slot).
		ent.pending += pending
		return
	}
	for len(g.order) >= g.budget {
		g.evict()
	}
	g.tick++
	g.byKey[key] = &ckptEntry{
		key:     key,
		depth:   depth,
		pending: pending,
		lastUse: g.tick,
		snap:    snap,
		events:  events,
	}
	g.order = append(g.order, g.byKey[key])
}

// evict removes the least valuable checkpoint: fewest pending siblings
// (smallest remaining subtree) first, ties broken by least recent use.
// The scan runs over registration order, so eviction is deterministic.
func (g *ckptRegistry) evict() {
	if len(g.order) == 0 {
		return
	}
	victim := g.order[0]
	for _, e := range g.order[1:] {
		if e.pending < victim.pending ||
			(e.pending == victim.pending && e.lastUse < victim.lastUse) {
			victim = e
		}
	}
	g.remove(victim)
}

func (g *ckptRegistry) remove(ent *ckptEntry) {
	delete(g.byKey, ent.key)
	for i, e := range g.order {
		if e == ent {
			g.order = append(g.order[:i], g.order[i+1:]...)
			return
		}
	}
}
