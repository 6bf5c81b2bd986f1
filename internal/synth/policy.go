package synth

// The Gate is the reference admission policy for a constraint Set: which
// waiting candidate may start, given the populations the conditions
// consult. Every mechanism adapter (resource.go) implements the same
// policy with its own primitives — the Gate holds the shared state and
// decision logic; the adapters contribute only blocking and wakeup. It
// is deliberately not thread-safe: each adapter serializes access with
// the mechanism under test (monitor possession, region exclusion, a
// mutex, the CSP server process), which is exactly the encapsulation the
// paper's modularity criteria talk about.

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

// Gate tracks the constraint-relevant state of one generated resource.
type Gate struct {
	set      *Set
	stamp    int64
	waiting  []*Waiter // arrival (stamp) order
	waitingN []int
	active   []int
	started  []int
	done     []int
	slots    int
	last     int
	view     gateView // the one view Admissible and MayStart lend their conditions
}

// NewGate creates a Gate for the set.
func NewGate(set *Set) *Gate {
	n := len(set.Classes)
	g := &Gate{
		set:      set,
		waitingN: make([]int, n),
		active:   make([]int, n),
		started:  make([]int, n),
		done:     make([]int, n),
		last:     -1,
	}
	g.view.g = g
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
	clear(g.waitingN)
	clear(g.active)
	clear(g.started)
	clear(g.done)
	g.slots = 0
	g.last = -1
	g.view.self = nil
}

// Count implements StateView.
func (g *Gate) Count(class int, kind CountKind) int {
	switch kind {
	case CountWaiting:
		return g.waitingN[class]
	case CountActive:
		return g.active[class]
	case CountStarted:
		return g.started[class]
	case CountDone:
		return g.done[class]
	}
	return 0
}

// Slots implements StateView.
func (g *Gate) Slots() int { return g.slots }

// LastStarted implements StateView.
func (g *Gate) LastStarted() int { return g.last }

// gateView is the Gate as a candidate's condition sees it: the candidate
// itself is excluded from the waiting population, matching the derived
// oracle, which excludes the candidate's own interval from the state at
// its admission point. The Gate keeps one and points it at each
// candidate in turn, so judging a candidate allocates nothing.
type gateView struct {
	g    *Gate
	self *Waiter
}

func (v *gateView) Count(class int, kind CountKind) int {
	n := v.g.Count(class, kind)
	if kind == CountWaiting && v.self != nil && v.self.Class == class {
		n--
	}
	return n
}
func (v *gateView) Slots() int       { return v.g.Slots() }
func (v *gateView) LastStarted() int { return v.g.LastStarted() }

// viewOf points the Gate's view at w.
func (g *Gate) viewOf(w *Waiter) *gateView {
	g.view.self = w
	return &g.view
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
	g.waitingN[class]++
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
// release-window rule, which has no admissibility escape either.
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
	g.waitingN[w.Class]--
	g.active[w.Class]++
	g.started[w.Class]++
	g.last = w.Class
	w.granted = true
	w.Hooks.enter()
}

// Release completes an operation of class: active → done, slot delta
// applied.
func (g *Gate) Release(class int) {
	g.active[class]--
	g.done[class]++
	g.slots += g.set.Classes[class].SlotDelta
}

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
