package synclint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockOrderAnalyzer builds a static lock-order graph over the package's
// discipline objects and reports potential cyclic waits. Nodes are the
// typed lock identities of the summary layer (a monitor field, a split
// semaphore, a serializer, a region); a directed edge a→b is recorded
// whenever b is acquired — directly or through any chain of local
// helpers — while a is held. A cycle in this graph is the classic
// deadlock precondition: two processes can each hold one lock of the
// cycle and wait forever for the next. Each edge keeps its acquisition
// path (function, position, helper chain), so the report reads as an
// executable recipe, which is exactly what the xcheck hunt feeds to the
// schedule explorer.
//
// Waits, enqueues, and joins on components of a held mechanism release
// their owner by construction and never form edges; re-acquisition of
// the same lock (a self-edge) is holdwait's finding, not ours.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "cyclic lock-acquisition order across the package (potential deadlock)",
	run:  runLockOrder,
}

// lockEdge is one recorded "to acquired while from held" fact, with the
// first acquisition path seen.
type lockEdge struct {
	from, to LockRef
	pos      token.Pos
	fn       string
	path     []string
}

func (e *lockEdge) describe(fset *token.FileSet) string {
	s := fmt.Sprintf("%s acquired while %s held at %s in %s",
		lockDisp(e.to), lockDisp(e.from), shortPos(fset, e.pos), e.fn)
	if len(e.path) > 0 {
		s += " via " + strings.Join(e.path, " → ")
	}
	return s
}

// lockDisp renders a lock key for humans.
func lockDisp(r LockRef) string {
	key := r.Key
	for _, p := range []string{"field:", "global:", "local:", "expr:"} {
		if rest, ok := strings.CutPrefix(key, p); ok {
			return rest
		}
	}
	if rest, ok := strings.CutPrefix(key, "param:"); ok {
		return "param " + rest
	}
	if r.Disp != "" {
		return r.Disp
	}
	return key
}

// qualifyRef pins unsubstituted parameter refs, and parameter owners, to
// their function so they never collide across functions in the package
// graph.
func qualifyRef(ref LockRef, fnKey string) LockRef {
	if i, ok := paramIndex(ref.Key); ok {
		ref.Key = fmt.Sprintf("param:%s:%d", fnKey, i)
	}
	if i, ok := paramIndex(ref.Owner); ok {
		ref.Owner = fmt.Sprintf("param:%s:%d", fnKey, i)
	}
	return ref
}

func runLockOrder(pass *Pass) {
	m := pass.Model
	type edgeKey struct{ from, to string }
	edges := map[edgeKey]*lockEdge{}
	addEdge := func(from, to LockRef, pos token.Pos, fn string, path []string) {
		if from.Key == to.Key {
			return
		}
		k := edgeKey{from.Key, to.Key}
		if edges[k] == nil {
			edges[k] = &lockEdge{from: from, to: to, pos: pos, fn: fn, path: path}
		}
	}

	// Every acquisition, direct or through a callee, orders after
	// everything held at that point, a P'd semaphore included.
	for _, f := range m.frames {
		fn := f.fn.Name
		m.replay(f, func(_ *summaryEvent, sites, held []AcqSite) {
			for _, site := range sites {
				if parkLike(site.Op) {
					continue
				}
				to := qualifyRef(site.Ref, fn)
				for _, h := range held {
					addEdge(qualifyRef(h.Ref, fn), to, site.Pos, fn, site.Path)
				}
			}
		})
	}

	// Assemble the graph with sorted adjacency for deterministic cycle
	// extraction.
	adj := map[string][]string{}
	for k := range edges {
		adj[k.from] = append(adj[k.from], k.to)
	}
	for _, tos := range adj {
		sort.Strings(tos)
	}

	for _, cycle := range findCycles(adj) {
		// Render the cycle's edges in order; the finding anchors at the
		// first edge's acquisition site.
		var parts, names []string
		var first *lockEdge
		for i := range cycle {
			e := edges[edgeKey{cycle[i], cycle[(i+1)%len(cycle)]}]
			if e == nil {
				continue
			}
			if first == nil {
				first = e
			}
			names = append(names, lockDisp(e.from))
			parts = append(parts, e.describe(pass.Pkg.Fset))
		}
		if first == nil {
			continue
		}
		names = append(names, names[0])
		pass.reportf(first.pos, "potential cyclic wait: %s (%s)",
			strings.Join(names, " → "), strings.Join(parts, "; "))
	}
}

// findCycles returns one representative cycle per non-trivial strongly
// connected component, deterministically: components are discovered over
// sorted node order and each cycle starts at its component's smallest
// node, following smallest-neighbor-first edges.
func findCycles(adj map[string][]string) [][]string {
	var nodes []string
	seenNode := map[string]bool{}
	addNode := func(n string) {
		if !seenNode[n] {
			seenNode[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, tos := range adj {
		addNode(from)
		for _, to := range tos {
			addNode(to)
		}
	}
	sort.Strings(nodes)

	// Tarjan's SCC, iterative over sorted roots.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sort.Strings(comp)
				sccs = append(sccs, comp)
			}
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })

	var cycles [][]string
	for _, comp := range sccs {
		inComp := map[string]bool{}
		for _, n := range comp {
			inComp[n] = true
		}
		if cycle := extractCycle(adj, comp[0], inComp); cycle != nil {
			cycles = append(cycles, cycle)
		}
	}
	return cycles
}

// extractCycle finds a path start → … → start inside one component,
// preferring smaller node names at each step.
func extractCycle(adj map[string][]string, start string, inComp map[string]bool) []string {
	var path []string
	onPath := map[string]bool{}
	var dfs func(v string) bool
	dfs = func(v string) bool {
		path = append(path, v)
		onPath[v] = true
		for _, w := range adj[v] {
			if !inComp[w] {
				continue
			}
			if w == start && len(path) > 1 {
				return true
			}
			if !onPath[w] {
				if dfs(w) {
					return true
				}
			}
		}
		path = path[:len(path)-1]
		onPath[v] = false
		return false
	}
	if dfs(start) {
		return path
	}
	return nil
}
