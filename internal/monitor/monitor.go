// Package monitor implements Hoare monitors ("Monitors: An Operating
// System Structuring Concept", CACM 17(10), 1974 — the paper's reference
// [13]) on the kernel substrate.
//
// The semantics are Hoare's original, which the paper's analysis depends
// on:
//
//   - At most one process is inside the monitor (the occupant).
//   - Signal is "signal-and-urgent-wait": if a process is waiting on the
//     condition, the signaller immediately hands the monitor to the
//     longest-waiting (or lowest-rank) waiter and parks on the monitor's
//     urgent queue. The signalled process therefore resumes with the
//     condition it waited for still true — no re-check loop is needed,
//     and none of the solutions in package solutions use one.
//   - When the occupant leaves (Exit or Wait), urgent waiters are resumed
//     in preference to new entrants.
//   - Conditions support Hoare's "priority wait": Wait(rank) enqueues
//     ordered by ascending rank, and MinRank exposes the head's rank (the
//     disk-head scheduler in [13] is built on exactly this pair).
//
// Misuse (exiting a monitor one is not inside, signalling from outside,
// waiting on another monitor's condition) panics: these are compile-time
// errors in a language with monitors, and the paper's modularity analysis
// assumes they cannot happen silently.
package monitor

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
)

// Monitor is a Hoare monitor.
type Monitor struct {
	name string

	mu       sync.Mutex
	occupant *kernel.Proc
	entry    kernel.WaitList
	urgent   kernel.WaitList
}

// New creates a monitor. The name appears in misuse panics and traces.
func New(name string) *Monitor { return &Monitor{name: name} }

// Name reports the monitor's name.
func (m *Monitor) Name() string { return m.name }

// Enter acquires the monitor, blocking while another process occupies it.
// Entry is FIFO among entrants, but processes on the urgent queue (parked
// signallers) are always admitted first when the monitor is released.
func (m *Monitor) Enter(p *kernel.Proc) {
	m.mu.Lock()
	if m.occupant == nil {
		m.occupant = p
		m.mu.Unlock()
		return
	}
	if m.occupant == p {
		m.mu.Unlock()
		panic(fmt.Sprintf("monitor %s: %s re-entered (monitors are not reentrant)", m.name, p))
	}
	m.entry.Push(p)
	m.mu.Unlock()
	p.Park()
}

// Exit releases the monitor: the longest-parked signaller (urgent queue)
// resumes if there is one, otherwise the longest-waiting entrant is
// admitted.
func (m *Monitor) Exit(p *kernel.Proc) {
	m.mu.Lock()
	m.checkOccupantLocked(p, "Exit", "")
	next := m.releaseLocked()
	m.mu.Unlock()
	if next != nil {
		next.Unpark()
	}
}

// Do runs body with the monitor held; it is Enter/Exit with panic safety.
func (m *Monitor) Do(p *kernel.Proc, body func()) {
	m.Enter(p)
	defer m.Exit(p)
	body()
}

// releaseLocked picks the next occupant (urgent first, then entry) and
// installs it, or marks the monitor free. It returns the process to
// unpark, if any.
func (m *Monitor) releaseLocked() *kernel.Proc {
	if w := m.urgent.Pop(); w != nil {
		m.occupant = w
		return w
	}
	if w := m.entry.Pop(); w != nil {
		m.occupant = w
		return w
	}
	m.occupant = nil
	return nil
}

// checkOccupantLocked panics unless p occupies the monitor. The
// operation's label, op or op(cond), is formatted only on failure, so
// the check costs no allocation on the paths that pass it.
func (m *Monitor) checkOccupantLocked(p *kernel.Proc, op, cond string) {
	if m.occupant != p {
		if cond != "" {
			op += "(" + cond + ")"
		}
		panic(fmt.Sprintf("monitor %s: %s called %s while occupant is %v", m.name, p, op, m.occupant))
	}
}

// Reset empties the monitor — no occupant, no entrant or urgent waiter —
// keeping its queues' capacity. A run cut short (deadlock, Stop) leaves
// processes queued; a simulation that reuses the monitor for its next run
// resets it, and each of its conditions (Condition.Reset), first. Never
// call it while processes of a live run use it.
func (m *Monitor) Reset() {
	m.mu.Lock()
	m.occupant = nil
	m.entry.Reset()
	m.urgent.Reset()
	m.mu.Unlock()
}

// Occupied reports whether some process is inside the monitor. Advisory
// under the real kernel; exact between scheduling points under SimKernel.
func (m *Monitor) Occupied() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.occupant != nil
}

// EntryWaiting reports how many processes are blocked at Enter.
func (m *Monitor) EntryWaiting() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entry.Len()
}

// Condition is a Hoare condition variable bound to a monitor. The paper
// identifies condition queues as the monitor's construct for request-time
// and request-type information (§4.1), and priority ranks as its construct
// for parameter information.
type Condition struct {
	m       *Monitor
	name    string
	waiters kernel.WaitList
}

// NewCondition creates a condition variable on m.
func (m *Monitor) NewCondition(name string) *Condition {
	return &Condition{m: m, name: name}
}

// Name reports the condition's name.
func (c *Condition) Name() string { return c.name }

// Reset drops the condition's waiters, keeping the queue's capacity; see
// Monitor.Reset.
func (c *Condition) Reset() {
	c.m.mu.Lock()
	c.waiters.Reset()
	c.m.mu.Unlock()
}

// Wait releases the monitor and blocks until signalled, FIFO among
// waiters. The caller must occupy the monitor; it occupies it again when
// Wait returns.
func (c *Condition) Wait(p *kernel.Proc) { c.WaitRank(p, 0) }

// WaitRank is Hoare's priority wait: waiters are resumed in ascending rank
// order (arrival order among equal ranks). The disk-head scheduler waits
// with the requested cylinder as rank.
func (c *Condition) WaitRank(p *kernel.Proc, rank int64) {
	m := c.m
	m.mu.Lock()
	m.checkOccupantLocked(p, "Wait", c.name)
	c.waiters.PushRank(p, rank)
	next := m.releaseLocked()
	m.mu.Unlock()
	if next != nil {
		next.Unpark()
	}
	p.Park()
	// On resume the signaller (or releaser) has installed us as occupant.
}

// Signal wakes the highest-priority waiter, if any, handing it the monitor
// immediately; the signaller parks on the urgent queue and resumes when
// the monitor is next released. Signalling an empty condition is a no-op
// (Hoare semantics) and the signaller keeps the monitor.
func (c *Condition) Signal(p *kernel.Proc) {
	m := c.m
	m.mu.Lock()
	m.checkOccupantLocked(p, "Signal", c.name)
	w := c.waiters.Pop()
	if w == nil {
		m.mu.Unlock()
		return
	}
	m.urgent.Push(p)
	m.occupant = w
	m.mu.Unlock()
	w.Unpark()
	p.Park()
	// On resume we occupy the monitor again (installed by a releaser).
}

// SignalAll drains the condition by signalling until no waiter remains.
// Each signalled process runs (under Hoare semantics) before the next is
// woken. This is an extension — Hoare monitors have no broadcast — used by
// tests and examples, never by the paper's solutions.
func (c *Condition) SignalAll(p *kernel.Proc) {
	for c.Waiting() > 0 {
		c.Signal(p)
	}
}

// Waiting reports the number of processes waiting on the condition —
// Hoare's "condition.queue" boolean, generalized to a count. Callers
// should hold the monitor for an exact answer.
func (c *Condition) Waiting() int {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	return c.waiters.Len()
}

// Queue reports whether any process waits on the condition (Hoare's
// `cond.queue` primitive, used by the alarm-clock and disk-head monitors).
func (c *Condition) Queue() bool { return c.Waiting() > 0 }

// MinRank reports the rank of the next waiter to be resumed; ok is false
// when no process is waiting. This is Hoare's `condition.minrank`.
func (c *Condition) MinRank() (int64, bool) {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	return c.waiters.MinRank()
}
