// Package semaphore implements Dijkstra counting and binary semaphores on
// the kernel substrate.
//
// Semaphores are the paper's "low level" baseline (§1: "the need for a
// mechanism that is higher level than semaphores … is widely recognized")
// and double as the compile target for path expressions: the
// Campbell–Habermann translation realizes every path operator with P/V
// prologues and epilogues (package pathexpr).
//
// The implementation is strictly FIFO and barge-free: V hands the permit
// directly to the longest-waiting process instead of incrementing the
// count, so a late arrival can never overtake a waiter. Longest-waiting
// wakeup is the selection assumption the paper makes in §5.1, and the FIFO
// guarantee is what makes semaphore-built schedulers (and the path
// expression translation) deterministic under the simulated kernel.
package semaphore

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
)

// Semaphore is a FIFO counting semaphore.
type Semaphore struct {
	mu      sync.Mutex
	init    int64 // the count New gave it, restored by Reset
	count   int64
	waiters kernel.WaitList
}

// New creates a semaphore with the given initial count. Negative initial
// counts are rejected (they have no Dijkstra interpretation).
func New(initial int64) *Semaphore {
	if initial < 0 {
		panic(fmt.Sprintf("semaphore: negative initial count %d", initial))
	}
	return &Semaphore{init: initial, count: initial}
}

// Reset returns the semaphore to the state New left it in: its initial
// count and no waiters, keeping the wait list's capacity. A run cut
// short (deadlock, Stop) can leave processes parked in P and permits
// unconsumed; a simulation that reuses the semaphore for its next run
// resets it first. Never call it while processes of a live run use it.
func (s *Semaphore) Reset() {
	s.mu.Lock()
	s.count = s.init
	s.waiters.Reset()
	s.mu.Unlock()
}

// P (Dijkstra's "proberen"; acquire) decrements the semaphore, blocking the
// calling process while the count is zero. Waiters are admitted strictly
// first-come-first-served.
func (s *Semaphore) P(p *kernel.Proc) {
	s.mu.Lock()
	if s.count > 0 && s.waiters.Len() == 0 {
		s.count--
		s.mu.Unlock()
		return
	}
	s.waiters.Push(p)
	s.mu.Unlock()
	p.Park()
}

// TryP attempts to decrement without blocking, reporting success. It
// respects FIFO fairness: it fails if any process is already waiting, even
// when the count is positive.
func (s *Semaphore) TryP() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.count > 0 && s.waiters.Len() == 0 {
		s.count--
		return true
	}
	return false
}

// V (Dijkstra's "verhogen"; release) increments the semaphore. If a
// process is waiting, the permit is handed directly to the
// longest-waiting one, which resumes inside its P.
func (s *Semaphore) V() {
	s.mu.Lock()
	if w := s.waiters.Pop(); w != nil {
		s.mu.Unlock()
		w.Unpark()
		return
	}
	s.count++
	s.mu.Unlock()
}

// Value reports the current count. It is advisory: by the time the caller
// inspects it, it may have changed. Tests use it on the simulated kernel,
// where it is exact between scheduling points.
func (s *Semaphore) Value() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Waiting reports the number of processes blocked in P.
func (s *Semaphore) Waiting() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters.Len()
}

// Mutex is a binary semaphore with owner tracking: a convenience for
// mutual-exclusion use, with misuse detection that a bare Semaphore cannot
// provide (unlocking a mutex one does not hold panics).
type Mutex struct {
	mu      sync.Mutex
	owner   *kernel.Proc
	waiters kernel.WaitList
}

// NewMutex creates an unlocked Mutex.
func NewMutex() *Mutex { return &Mutex{} }

// Reset unlocks the mutex and drops its waiters, keeping the wait list's
// capacity; the same contract as Semaphore.Reset.
func (m *Mutex) Reset() {
	m.mu.Lock()
	m.owner = nil
	m.waiters.Reset()
	m.mu.Unlock()
}

// Lock acquires the mutex FIFO, blocking while another process holds it.
// Recursive locking panics (the 1979 constructs are all non-reentrant).
func (m *Mutex) Lock(p *kernel.Proc) {
	m.mu.Lock()
	if m.owner == nil {
		m.owner = p
		m.mu.Unlock()
		return
	}
	if m.owner == p {
		m.mu.Unlock()
		panic(fmt.Sprintf("semaphore: recursive Lock by %s", p))
	}
	m.waiters.Push(p)
	m.mu.Unlock()
	p.Park()
}

// Unlock releases the mutex, handing it to the longest waiter if any.
// Unlocking a mutex not held by p panics.
func (m *Mutex) Unlock(p *kernel.Proc) {
	m.mu.Lock()
	if m.owner != p {
		owner := m.owner
		m.mu.Unlock()
		panic(fmt.Sprintf("semaphore: %s unlocking mutex owned by %v", p, owner))
	}
	next := m.waiters.Pop()
	m.owner = next
	m.mu.Unlock()
	if next != nil {
		next.Unpark()
	}
}

// Holder reports the current owner (nil when unlocked); advisory, exact
// only under the simulated kernel.
func (m *Mutex) Holder() *kernel.Proc {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owner
}
