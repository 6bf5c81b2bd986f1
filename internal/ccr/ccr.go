// Package ccr implements Brinch Hansen's conditional critical regions
// ("Operating System Principles", 1973 — the paper's reference [6]):
//
//	region v when B do S
//
// A process enters the region when no other process is inside it and the
// guard B holds; otherwise it waits. Whenever a process leaves the region,
// the guards of waiting processes are re-evaluated (under the region's
// exclusion) and the longest-waiting process whose guard now holds is
// admitted.
//
// Discipline: guards must depend only on state protected by this region.
// Under that discipline the implementation is complete without polling —
// protected state can change only inside the region, so guards can change
// truth value only at region exit, which is exactly when they are
// re-evaluated. (A guard reading unprotected state could become true
// without any exit; such a guard is a bug in the caller, mirroring the
// language rule that region variables are only touched inside regions.)
//
// CCRs are evaluated alongside the paper's three mechanisms because they
// are the era's main "automatic signalling" alternative to monitors: they
// trade the explicit-signal total ordering the paper criticizes in §5.2
// for guard re-evaluation cost, the same trade serializers make.
package ccr

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
)

// Region is one conditional critical region protecting one shared
// variable bundle.
type Region struct {
	name string

	mu       sync.Mutex
	occupant *kernel.Proc
	waiters  kernel.WaitList // tags are guard functions
}

// New creates a region. The name appears in misuse panics.
func New(name string) *Region { return &Region{name: name} }

// Name reports the region's name.
func (r *Region) Name() string { return r.name }

// True is the always-true guard: `region v do S` (unconditional critical
// region).
func True() bool { return true }

// Execute runs body inside the region once guard holds: the Go rendering
// of `region v when guard do body`. The guard is evaluated only with the
// region's exclusion held. Nested Execute by the same process panics.
func (r *Region) Execute(p *kernel.Proc, guard func() bool, body func()) {
	r.mu.Lock()
	if r.occupant == p {
		r.mu.Unlock()
		panic(fmt.Sprintf("ccr %s: %s nested region entry", r.name, p))
	}
	if r.occupant == nil && guard() {
		r.occupant = p
		r.mu.Unlock()
	} else {
		r.waiters.PushTagged(p, 0, guard)
		r.mu.Unlock()
		p.Park()
		// Admitted by an exiting process, which verified our guard under
		// exclusion and installed us as occupant.
	}

	defer r.exit(p)
	body()
}

// exit releases the region and admits the longest-waiting process whose
// guard now holds, if any.
func (r *Region) exit(p *kernel.Proc) {
	r.mu.Lock()
	if r.occupant != p {
		r.mu.Unlock()
		panic(fmt.Sprintf("ccr %s: exit by non-occupant %s", r.name, p))
	}
	// Re-evaluate guards in arrival order and admit the first that holds;
	// the others keep their places. We still hold the region
	// conceptually, so guards may safely read protected state.
	admitted := r.waiters.PopWhere(guardHolds)
	r.occupant = admitted
	r.mu.Unlock()
	if admitted != nil {
		admitted.Unpark()
	}
}

// guardHolds evaluates a waiter's guard, the tag Execute queued it with.
func guardHolds(tag any) bool { return tag.(func() bool)() }

// Reset empties the region — no occupant, no waiter — keeping the wait
// list's capacity. A run cut short (deadlock, Stop) leaves processes
// queued on their guards; a simulation that reuses the region for its
// next run resets it first. Never call it while processes of a live run
// use it.
func (r *Region) Reset() {
	r.mu.Lock()
	r.occupant = nil
	r.waiters.Reset()
	r.mu.Unlock()
}

// Occupied reports whether a process is inside the region; advisory under
// the real kernel.
func (r *Region) Occupied() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.occupant != nil
}

// Waiting reports how many processes are blocked on guards.
func (r *Region) Waiting() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.waiters.Len()
}

// Await blocks until guard holds, then runs body — sugar for the common
// pattern of a region used purely as a condition synchronizer.
func (r *Region) Await(p *kernel.Proc, guard func() bool) {
	r.Execute(p, guard, func() {})
}
