package synth

// The Gate is the reference admission policy for a constraint Set: which
// waiting candidate may start, given the populations the conditions
// consult. Every mechanism adapter (resource.go) implements the same
// policy with its own primitives — the Gate holds the shared state and
// decision logic; the adapters contribute only blocking and wakeup. The
// state is a population, the same type the derived oracle advances
// through a recorded trace (oracle.go), so the Gate and the oracle
// evaluate every condition against the same counts. It
// is deliberately not thread-safe: each adapter serializes access with
// the mechanism under test (monitor possession, region exclusion, a
// mutex, the CSP server process), which is exactly the encapsulation the
// paper's modularity criteria talk about.

import "slices"

// Waiter is one pending or admitted operation known to a Gate. A process
// has at most one operation in flight, so an adapter can keep one Waiter
// per process and enqueue it again for every operation (Enqueue).
type Waiter struct {
	Cand
	// Aux carries the adapter's per-process payload (a condition
	// variable, a private semaphore, a grant channel, closures bound to
	// the process). Enqueue leaves it alone, so it is built on the
	// process's first operation and reused.
	Aux any
	// Hooks are the waiter's own record points. Grant fires their Enter
	// inside the adapter's critical section, so the recorded Enter
	// event is atomic with the admission decision and the trace the
	// oracle judges shows exactly the state the Gate decided on. The
	// event names the waiter's process even when another process (a
	// releaser, the CSP server) makes the grant.
	Hooks   Hooks
	granted bool
}

// Granted reports whether the waiter has been admitted.
func (w *Waiter) Granted() bool { return w.granted }

// population is the state the constraint conditions consult: per class,
// how many operations wait, execute, have started and have finished,
// plus the slot counter and the class started last. The Gate advances it
// as operations arrive, are granted and release; the derived oracle
// advances it through a recorded trace's requests, Enters and Exits
// (oracle.go), so both judge a condition against the same counts.
//
// It is a StateView as one candidate sees it: the candidate's own request
// is left out of its class's waiting count, since the candidate does not
// wait for itself. self is that class, -1 when no waiting candidate is
// under judgment.
type population struct {
	set    *Set
	counts [][CountDone + 1]int // per class, by CountKind
	slots  int
	last   int
	self   int
}

// reset zeroes the population for set, keeping its buffer.
func (p *population) reset(set *Set) {
	p.set = set
	p.counts = slices.Grow(p.counts[:0], len(set.Classes))[:len(set.Classes)]
	clear(p.counts)
	p.slots, p.last, p.self = 0, -1, -1
}

// request counts a new waiting operation of class.
func (p *population) request(class int) { p.counts[class][CountWaiting]++ }

// grant admits an operation of class: it starts and is active, and no
// longer waits if it was counted as waiting.
func (p *population) grant(class int, waited bool) {
	c := &p.counts[class]
	if waited {
		c[CountWaiting]--
	}
	c[CountActive]++
	c[CountStarted]++
	p.last = class
}

// release completes an active operation of class and applies its slot
// delta.
func (p *population) release(class int) {
	c := &p.counts[class]
	c[CountActive]--
	c[CountDone]++
	p.slots += p.set.Classes[class].SlotDelta
}

// count is the population of class of the given kind, the candidate
// included.
func (p *population) count(class int, kind CountKind) int {
	if kind < 0 || kind > CountDone {
		return 0
	}
	return p.counts[class][kind]
}

// Count implements StateView, leaving the candidate out.
func (p *population) Count(class int, kind CountKind) int {
	n := p.count(class, kind)
	if kind == CountWaiting && class == p.self {
		n--
	}
	return n
}

// Slots implements StateView.
func (p *population) Slots() int { return p.slots }

// LastStarted implements StateView.
func (p *population) LastStarted() int { return p.last }

// Gate tracks the constraint-relevant state of one generated resource:
// its waiting candidates in arrival order and their population.
type Gate struct {
	set     *Set
	stamp   int64
	waiting []*Waiter // arrival (stamp) order
	pop     population
}

// NewGate creates a Gate for the set.
func NewGate(set *Set) *Gate {
	g := &Gate{set: set}
	g.pop.reset(set)
	return g
}

// Reset returns the Gate to the state NewGate left it in, keeping its
// capacity: no waiter, zero populations and slots, no class started. A
// run cut short leaves waiters behind, so a recycled program resets its
// Gate at the start of every run.
func (g *Gate) Reset() {
	g.stamp = 0
	clear(g.waiting)
	g.waiting = g.waiting[:0]
	g.pop.reset(g.set)
}

// Count implements StateView.
func (g *Gate) Count(class int, kind CountKind) int { return g.pop.count(class, kind) }

// Slots implements StateView.
func (g *Gate) Slots() int { return g.pop.slots }

// LastStarted implements StateView.
func (g *Gate) LastStarted() int { return g.pop.last }

// viewOf is the population as w's conditions see it, w left out of its
// class's waiting count. The Gate lends its one population to each
// candidate in turn, so judging a candidate allocates nothing.
func (g *Gate) viewOf(w *Waiter) StateView {
	g.pop.self = w.Class
	return &g.pop
}

// Arrive registers a new candidate and returns its waiter, a fresh one.
func (g *Gate) Arrive(class int, arg int64, hasArg bool) *Waiter {
	w := &Waiter{}
	g.Enqueue(w, class, arg, hasArg)
	return w
}

// Enqueue registers w as a new candidate: it overwrites w's candidate and
// grant state and keeps its Aux (and Hooks, which the caller sets). w
// must not be waiting already; a process's Waiter is free again once its
// operation is granted.
func (g *Gate) Enqueue(w *Waiter, class int, arg int64, hasArg bool) {
	g.stamp++
	w.Cand = Cand{Class: class, Arg: arg, HasArg: hasArg, Stamp: g.stamp}
	w.granted = false
	g.waiting = append(g.waiting, w)
	g.pop.request(class)
}

// Admissible reports whether any exclusion rule currently bars w.
func (g *Gate) Admissible(w *Waiter) bool {
	v := g.viewOf(w)
	for _, x := range g.set.Excludes {
		if x.Class == w.Class && x.Cond.Eval(v, w.Cand, nil) {
			return false
		}
	}
	return true
}

// MayStart reports whether w may be admitted now: it is admissible and
// no other waiting candidate holds a priority rule over it. The check is
// deliberately conservative — a favored waiter blocks w even while the
// favored waiter is itself inadmissible — mirroring the derived oracle's
// release-window rule (trace.Overtakings), which has no admissibility
// escape either.
func (g *Gate) MayStart(w *Waiter) bool {
	if !g.Admissible(w) {
		return false
	}
	v := g.viewOf(w)
	for _, r := range g.set.Priorities {
		if r.B != w.Class {
			continue
		}
		for _, o := range g.waiting {
			if o == w || o.Class != r.A {
				continue
			}
			if r.Cond.Eval(v, o.Cand, &w.Cand) {
				return false
			}
		}
	}
	return true
}

// Grant admits w: waiting → active, stamped into history.
func (g *Gate) Grant(w *Waiter) {
	for i, o := range g.waiting {
		if o == w {
			g.waiting = append(g.waiting[:i], g.waiting[i+1:]...)
			break
		}
	}
	g.pop.grant(w.Class, true)
	w.granted = true
	w.Hooks.enter()
}

// Release completes an operation of class: active → done, slot delta
// applied.
func (g *Gate) Release(class int) { g.pop.release(class) }

// NextGrant returns the first waiting candidate in arrival order that
// MayStart, or nil. Arrival order breaks ties the priority rules leave
// open, so every adapter (and the feasibility witness) agrees on the
// default admission order.
func (g *Gate) NextGrant() *Waiter {
	for _, w := range g.waiting {
		if g.MayStart(w) {
			return w
		}
	}
	return nil
}

// WaitingCount is the number of unadmitted candidates.
func (g *Gate) WaitingCount() int { return len(g.waiting) }
