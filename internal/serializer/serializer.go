// Package serializer implements Atkinson–Hewitt serializers
// ("Synchronization and Proof Techniques for Serializers", IEEE TSE 5(1),
// 1979 — the paper's reference [3]) on the kernel substrate.
//
// A serializer is a monitor-like envelope with three differences the paper
// analyzes (§5.2):
//
//   - Automatic signalling. There is no Signal. A process waits with
//     Enqueue(queue, guarantee); whenever possession of the serializer is
//     released, the guarantees of queue heads are re-evaluated and an
//     eligible waiter resumes. Waiting processes therefore cannot be
//     "forgotten", and no total signalling order must be designed.
//   - Queues hold processes waiting for *different* conditions in one FIFO
//     line: order information and type information are carried separately
//     (the guarantee distinguishes the type), which is how serializers
//     dissolve the monitor's request-type/request-time queue conflict.
//     Only the head of a queue is eligible: a later waiter never overtakes
//     the head, which is exactly what makes single-queue FCFS schemes
//     exact.
//   - Crowds. JoinCrowd releases possession for the duration of the
//     resource access and records membership, so "how many processes are
//     currently reading" is mechanism state (synchronization state
//     information, §3 category 4) rather than hand-maintained counts, and
//     the resource runs *outside* the serializer — resolving the nested
//     monitor call problem structurally.
//
// Possession transfer on release is deterministic: crowd leavers wanting
// to rejoin resume first (they only need to record their departure), then
// the longest-waiting eligible queue head, then entrants FIFO.
package serializer

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
)

// Serializer is one serializer instance.
type Serializer struct {
	name string

	mu        sync.Mutex
	possessor *kernel.Proc
	entry     kernel.WaitList
	rejoin    kernel.WaitList
	queues    []*Queue
	crowds    []*Crowd
	stamp     int64
}

// New creates a serializer. The name appears in misuse panics.
func New(name string) *Serializer { return &Serializer{name: name} }

// Name reports the serializer's name.
func (s *Serializer) Name() string { return s.name }

// Enter gains possession of the serializer, FIFO among entrants. Waiting
// queue heads whose guarantees hold are admitted in preference to
// entrants at every release, so entrants cannot barge past woken waiters.
func (s *Serializer) Enter(p *kernel.Proc) {
	s.mu.Lock()
	// Invariant: when the serializer is idle, no queue head is eligible —
	// guaranteed state changes only under possession, and every release
	// admits eligible heads before going idle. So an idle serializer can
	// be entered directly.
	if s.possessor == nil {
		s.possessor = p
		s.mu.Unlock()
		return
	}
	if s.possessor == p {
		s.mu.Unlock()
		panic(fmt.Sprintf("serializer %s: %s re-entered", s.name, p))
	}
	s.entry.Push(p)
	s.mu.Unlock()
	p.Park()
}

// Exit releases possession.
func (s *Serializer) Exit(p *kernel.Proc) {
	s.mu.Lock()
	s.checkPossessorLocked(p, "Exit", "")
	next := s.releaseLocked()
	s.mu.Unlock()
	if next != nil {
		next.Unpark()
	}
}

// Do runs body with possession held; Enter/Exit with panic safety.
func (s *Serializer) Do(p *kernel.Proc, body func()) {
	s.Enter(p)
	defer s.Exit(p)
	body()
}

// checkPossessorLocked panics unless p holds possession. The operation's
// label, op or op(name), is formatted only on failure, so the check costs
// no allocation on the paths that pass it.
func (s *Serializer) checkPossessorLocked(p *kernel.Proc, op, name string) {
	if s.possessor != p {
		if name != "" {
			op += "(" + name + ")"
		}
		panic(fmt.Sprintf("serializer %s: %s called %s while possessor is %v", s.name, p, op, s.possessor))
	}
}

// Reset empties the serializer — no possessor; no entrant, rejoiner or
// queued waiter; every crowd empty — and restarts its arrival stamps,
// keeping the queues' capacity. A run cut short (deadlock, Stop) leaves
// processes queued and crowds populated; a simulation that reuses the
// serializer for its next run resets it first. Never call it while
// processes of a live run use it.
func (s *Serializer) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.possessor = nil
	s.entry.Reset()
	s.rejoin.Reset()
	for _, q := range s.queues {
		q.waiters.Reset()
	}
	for _, c := range s.crowds {
		clear(c.members)
	}
	s.stamp = 0
}

// releaseLocked selects the next possessor: rejoining crowd leavers, then
// the longest-waiting eligible queue head, then entrants. Returns the
// process to unpark, or nil if the serializer goes idle.
func (s *Serializer) releaseLocked() *kernel.Proc {
	if w := s.rejoin.Pop(); w != nil {
		s.possessor = w
		return w
	}
	var bestQ *Queue
	var bestStamp int64
	for _, q := range s.queues {
		if !q.headEligibleLocked() {
			continue
		}
		st := q.headStampLocked()
		if bestQ == nil || st < bestStamp {
			bestQ, bestStamp = q, st
		}
	}
	if bestQ != nil {
		w := bestQ.waiters.Pop()
		s.possessor = w
		return w
	}
	if w := s.entry.Pop(); w != nil {
		s.possessor = w
		return w
	}
	s.possessor = nil
	return nil
}

// Possessed reports whether some process holds the serializer; advisory
// under the real kernel.
func (s *Serializer) Possessed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.possessor != nil
}

// Queue is a FIFO wait queue inside a serializer. Waiters may wait for
// different guarantees; only the head is ever eligible to resume.
type Queue struct {
	s       *Serializer
	name    string
	waiters kernel.WaitList // tags: guarantees; stamps: the serializer's arrival clock
}

// NewQueue creates a queue on s.
func (s *Serializer) NewQueue(name string) *Queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := &Queue{s: s, name: name}
	s.queues = append(s.queues, q)
	return q
}

// Name reports the queue's name.
func (q *Queue) Name() string { return q.name }

func (q *Queue) headEligibleLocked() bool {
	tag := q.waiters.PeekTag()
	if tag == nil {
		return false
	}
	return tag.(func() bool)()
}

func (q *Queue) headStampLocked() int64 {
	return q.waiters.PeekStamp()
}

// Enqueue releases possession and blocks until the caller is at the head
// of q and guarantee holds; it then resumes holding possession again. The
// guarantee is evaluated only under the serializer's state lock at
// possession-release points, so it must depend only on state protected by
// the serializer (including queue and crowd states) and must not call
// locking accessors such as Len or Size (use the *G helpers).
func (q *Queue) Enqueue(p *kernel.Proc, guarantee func() bool) {
	q.EnqueueRank(p, 0, guarantee)
}

// EnqueueRank is Enqueue into a priority queue: waiters are ordered by
// ascending rank (arrival order among equal ranks) and, as always, only
// the head is eligible. Priority queues are the extension Bloom notes was
// added to serializers to handle request-parameter information ("local
// variables and priority queues had to be added later", §5.2); the
// disk-head and alarm-clock solutions need them.
func (q *Queue) EnqueueRank(p *kernel.Proc, rank int64, guarantee func() bool) {
	s := q.s
	s.mu.Lock()
	s.checkPossessorLocked(p, "Enqueue", q.name)
	s.stamp++
	q.waiters.PushStamped(p, rank, s.stamp, guarantee)
	next := s.releaseLocked()
	s.mu.Unlock()
	if next != nil {
		next.Unpark()
	}
	p.Park()
	// We resume as possessor, dequeued, with guarantee true.
}

// Len reports the number of processes waiting in q.
func (q *Queue) Len() int {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return q.waiters.Len()
}

// Empty reports whether q has no waiters.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// LenG returns a guarantee-safe closure reporting the queue length: it
// reads the waiter list without re-locking, for use inside guarantees
// (which already run under the serializer's lock). The readers-priority
// solution uses it to express "no reader is waiting".
func (q *Queue) LenG() func() int {
	return func() int { return q.waiters.Len() }
}

// Crowd records the set of processes currently accessing the resource
// outside the serializer.
type Crowd struct {
	s       *Serializer
	name    string
	members map[*kernel.Proc]bool
}

// NewCrowd creates a crowd on s.
func (s *Serializer) NewCrowd(name string) *Crowd {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &Crowd{s: s, name: name, members: make(map[*kernel.Proc]bool)}
	s.crowds = append(s.crowds, c)
	return c
}

// Name reports the crowd's name.
func (c *Crowd) Name() string { return c.name }

// Join executes body as a member of the crowd, with possession released
// for the duration — the serializer's join_crowd … leave_crowd bracket.
// The caller must hold possession; it holds it again when Join returns.
func (c *Crowd) Join(p *kernel.Proc, body func()) {
	s := c.s
	s.mu.Lock()
	s.checkPossessorLocked(p, "Join", c.name)
	c.members[p] = true
	next := s.releaseLocked()
	s.mu.Unlock()
	if next != nil {
		next.Unpark()
	}

	defer func() {
		// leave_crowd: regain possession (rejoiners have priority), then
		// record departure so guarantees observe it at our next release.
		s.mu.Lock()
		if s.possessor == nil {
			// Same invariant as Enter: idle implies no eligible heads and
			// an empty rejoin list, so possession can be taken directly.
			s.possessor = p
			s.mu.Unlock()
		} else {
			s.rejoin.Push(p)
			s.mu.Unlock()
			p.Park()
		}
		s.mu.Lock()
		delete(c.members, p)
		s.mu.Unlock()
	}()
	body()
}

// Size reports the crowd's membership count.
func (c *Crowd) Size() int {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return len(c.members)
}

// Empty reports whether no process is in the crowd. It is the canonical
// serializer guarantee ("crowd.empty()").
func (c *Crowd) Empty() bool { return c.Size() == 0 }

// sizeLocked is Size without locking, for use inside guarantees (which run
// under the serializer's state lock).
func (c *Crowd) sizeLocked() int { return len(c.members) }

// EmptyG returns a guarantee closure usable inside Enqueue: it reads crowd
// state without re-locking (guarantees already run under the serializer's
// lock). Using Empty directly inside a guarantee would self-deadlock.
func (c *Crowd) EmptyG() func() bool {
	return func() bool { return c.sizeLocked() == 0 }
}

// SizeG returns a guarantee-safe closure reporting the crowd size.
func (c *Crowd) SizeG() func() int {
	return func() int { return c.sizeLocked() }
}
