// Analytic schedule-space coverage (Options.DPOR).
//
// The baseline run's dependency trace induces a partial order on its
// steps — the same happens-before relation DPOR backtracks on — and the
// scenario's interleavings are exactly that order's linear extensions.
// Counting them follows the "Combinatorics of Barrier Synchronization"
// program: per-process step chains plus cross-process edges. Processes
// linked by edges form a component; components compose in parallel, so
// the count is the shuffle multinomial S! / Π s_c! times each
// component's own count. A chain counts 1; a component of several
// processes is counted by dynamic programming over its down-sets,
// vectors of chain positions (Π(n_p + 1) states, not 2^s_c), or, past
// the state budget, bounded by its chain multinomial s_c! / Π n_p!.
//
// The DAG deliberately uses only the *synchronization* edges of the
// dependency trace — readying causes and per-process cells (park/unpark,
// grants, hand-offs) — and drops the global trace-cell conflicts
// (kernel.DepObjTrace). Those conflicts exist to make the race detection
// conservative about oracle order-sensitivity; folding them into the
// denominator would serialize every recording step and collapse the
// count toward 1, understating the space the search actually ranges
// over.
package explore

import (
	"math"
	"slices"

	"repro/internal/kernel"
)

// maxCovStates caps the down-set DP's summed state spaces (Π(n_p + 1)
// per component). ~2M float64 memo entries ≈ 16 MB, transient.
const maxCovStates = 1 << 21

// pred names a step by its process and its position in that chain.
type pred struct{ proc, pos int32 }

// coverageOf measures the schedule space of the scenario from a
// completed baseline run: log2 of the number of linear extensions of its
// happens-before order, and whether that is exact or an upper bound.
func coverageOf(out runOut) (log2 float64, exact bool) {
	if order, ok := orderOf(out); ok {
		return countExtensions(order)
	}
	return 0, false // no dependency records; nothing to count
}

// orderOf extracts a whole run's happens-before order in chain form:
// order[p][n] lists the cross-process predecessors of process p's n-th
// step, so len(order[p]) is p's chain length.
func orderOf(out runOut) (order [][][]pred, ok bool) {
	at := make([]pred, len(out.schedule)) // each step's process and position
	off := 0
	for i, c := range out.schedule {
		if off+c.Ready > len(out.readyIDs) || i >= len(out.causes) {
			return nil, false
		}
		p := out.readyIDs[off+c.Picked]
		off += c.Ready
		if int(p) >= len(order) {
			order = append(order, make([][][]pred, int(p)+1-len(order))...)
		}
		at[i] = pred{p, int32(len(order[p]))}
		order[p] = append(order[p], nil)
	}

	// Cross-process predecessor edges: readying causes plus same-object
	// last-access adjacency (transitively sufficient — each step need
	// only wait for the latest prior access of each object it touches).
	addPred := func(j, i int) {
		if i < 0 || i >= j || at[i].proc == at[j].proc {
			return // same-chain edges are implied by chain order
		}
		if preds := &order[at[j].proc][at[j].pos]; !slices.Contains(*preds, at[i]) {
			*preds = append(*preds, at[i])
		}
	}
	lastAcc := map[uint64]int32{} // 1 + the latest step that touched obj
	deps := out.deps
	for j := range out.schedule {
		if c := out.causes[j]; c >= 0 {
			addPred(j, int(c))
		}
		// Accesses before the first step (Step < 0) order nothing.
		for ; len(deps) > 0 && deps[0].Step <= int32(j); deps = deps[1:] {
			if obj := deps[0].Obj; obj != kernel.DepObjTrace && deps[0].Step >= 0 {
				addPred(j, int(lastAcc[obj])-1)
				lastAcc[obj] = int32(j) + 1
			}
		}
	}
	return order, true
}

// countExtensions returns log2 of the number of linear extensions of an
// order in orderOf's chain form, and whether it is exact. Terms are
// summed in log2: a one-component order's multinomial term is exactly 0.
func countExtensions(order [][][]pred) (log2 float64, exact bool) {
	// Quick-find union-find: comp[p] is the smallest process of p's
	// component, relabelled on each of the at most P-1 merges.
	comp := make([]int32, len(order))
	for p := range comp {
		comp[p] = int32(p)
	}
	steps := 0
	for p, chain := range order {
		for _, preds := range chain {
			for _, q := range preds {
				if a, b := max(comp[p], comp[q.proc]), min(comp[p], comp[q.proc]); a != b {
					for r := range comp {
						if comp[r] == a {
							comp[r] = b
						}
					}
				}
			}
		}
		steps += len(chain)
	}
	comps := make([][]int32, len(order))
	for p, chain := range order {
		if len(chain) > 0 {
			comps[comp[p]] = append(comps[comp[p]], int32(p))
		}
	}

	// Each component's count: exact while the summed DP state spaces fit
	// maxCovStates, else its chain multinomial, and the count inexact.
	multi := lgamma(float64(steps) + 1)
	exact, budget := true, maxCovStates
	for _, procs := range comps {
		size, states := 0, 1
		for _, p := range procs {
			size += len(order[p])
			if states <= budget {
				states *= len(order[p]) + 1
			}
		}
		multi -= lgamma(float64(size) + 1)
		if len(procs) < 2 {
			continue // a chain, or no component
		}
		if states <= budget {
			budget -= states
			if n := extensions(order, procs); !math.IsInf(n, 1) && n > 0 {
				log2 += math.Log2(n)
				continue
			}
		}
		bound := lgamma(float64(size) + 1)
		for _, p := range procs {
			bound -= lgamma(float64(len(order[p])) + 1)
		}
		log2 += bound / math.Ln2
		exact = false
	}
	return multi/math.Ln2 + log2, exact
}

// extensions counts the linear extensions of order restricted to procs,
// processes no cross edge leaves, by memoized DP over down-sets: a state
// is the per-process vector of completed chain positions in mixed radix,
// f(state) the number of linear extensions of the remaining steps. A
// process's next step is schedulable when every cross predecessor
// (q, pos) is done: done[q] > pos. Every reachable down-set has an
// extension, so a zero memo entry is one not yet computed.
func extensions(order [][][]pred, procs []int32) float64 {
	stride, done := make([]int, len(order)), make([]int32, len(order))
	states := 1
	for _, p := range procs {
		stride[p] = states
		states *= len(order[p]) + 1
	}
	memo := make([]float64, states)
	var f func(idx int) float64
	f = func(idx int) float64 {
		if idx == states-1 {
			return 1 // every step done
		}
		if v := memo[idx]; v > 0 {
			return v
		}
		total := 0.0
	next:
		for _, p := range procs {
			chain := order[p]
			if int(done[p]) >= len(chain) {
				continue
			}
			for _, q := range chain[done[p]] {
				if done[q.proc] <= q.pos {
					continue next
				}
			}
			done[p]++
			total += f(idx + stride[p])
			done[p]--
			if math.IsInf(total, 1) {
				break
			}
		}
		memo[idx] = total
		return total
	}
	return f(0)
}

// lgamma is math.Lgamma without the sign (arguments here are ≥ 1).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// exploredFraction is the judged share of the schedule space: runs out
// of 2^log2Total, clamped to 1, and exactly 1 when the DFS frontier was
// exhausted — a reduced search that empties its frontier has covered
// every happens-before equivalence class regardless of raw run count.
func exploredFraction(runs int, exhausted bool, log2Total float64) float64 {
	if exhausted {
		return 1
	}
	if runs <= 0 {
		return 0
	}
	f := math.Exp2(math.Log2(float64(runs)) - log2Total)
	if f > 1 {
		return 1
	}
	return f
}
