// Package csp implements a message-passing synchronization mechanism in
// the style of Hoare's "Communicating Sequential Processes" (CACM 21(8),
// 1978 — the paper's reference [20]).
//
// Bloom's §6 names CSP and guarded commands as the constructs her
// methodology should be extended to; this package performs that extension.
// A shared resource is realized as a *server process* that owns the
// resource state outright and serves client requests received over
// synchronous channels, choosing among them with a guarded Select — the
// guarded-command alternation of CSP.
//
// Channels are rendezvous (unbuffered) and built on the kernel substrate,
// NOT on Go channels: a Go channel operation would block a simulated
// process invisibly, breaking SimKernel's determinism and deadlock
// detection. All channels of one Net share a single lock, which keeps
// multi-channel Select atomic without lock ordering concerns.
//
// Determinism: when several alternatives of a Select are ready, the one
// whose sender has been waiting longest is chosen (the same
// longest-waiting rule the other mechanisms use); plain sends and receives
// pair FIFO.
package csp

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
)

// Net is a universe of channels sharing one lock and one arrival clock.
type Net struct {
	mu    sync.Mutex
	stamp int64
	// states holds every receive state the net has made, and idle those
	// free for a new reception, so a blocking Recv or Select allocates
	// nothing once the net is warm.
	states []*recvState
	idle   []*recvState
}

// NewNet creates an empty channel universe.
func NewNet() *Net { return &Net{} }

// Chan is a synchronous (rendezvous) channel carrying values of any type.
// Its queues hold their waiters by value and pop from the front in place,
// so a warm channel's operations allocate nothing.
type Chan struct {
	net  *Net
	name string

	senders   []sendWaiter
	receivers []recvWaiter
}

type sendWaiter struct {
	p     *kernel.Proc
	value any
	stamp int64
}

// recvState is one blocked reception, a plain Recv or a Select: the
// first sender to claim it delivers its value and case index. A Select
// registers the same state on every enabled channel, so a claim is seen
// on all of them.
type recvState struct {
	p       *kernel.Proc
	claimed bool
	chosen  int
	value   any
}

type recvWaiter struct {
	st      *recvState
	caseIdx int
}

// NewChan creates a channel in the net.
func (n *Net) NewChan(name string) *Chan {
	return &Chan{net: n, name: name}
}

// Reset returns the net's arrival clock to zero and frees every receive
// state, including those of receivers a run cut short (deadlock, Stop)
// left blocked. A simulation that reuses a net for its next run resets
// it and each of its channels (Chan.Reset) first, so no registration
// outlives its state and the run orders its senders exactly as a fresh
// net would. Never call it while processes of a live run use the net.
func (n *Net) Reset() {
	n.mu.Lock()
	n.stamp = 0
	for _, st := range n.states {
		*st = recvState{}
	}
	n.idle = append(n.idle[:0], n.states...)
	n.mu.Unlock()
}

// Reset drops every waiter on the channel, keeping its queues' capacity.
// A run cut short (deadlock, Stop) leaves senders and receivers blocked;
// a simulation that reuses the channel for its next run resets it first.
// Never call it while processes of a live run use it.
func (c *Chan) Reset() {
	c.net.mu.Lock()
	clear(c.senders)
	c.senders = c.senders[:0]
	clear(c.receivers)
	c.receivers = c.receivers[:0]
	c.net.mu.Unlock()
}

// Name reports the channel's name.
func (c *Chan) Name() string { return c.name }

// popSender removes the longest-waiting sender; the caller checked that
// there is one.
func (c *Chan) popSender() sendWaiter {
	s := c.senders[0]
	copy(c.senders, c.senders[1:])
	c.senders[len(c.senders)-1] = sendWaiter{}
	c.senders = c.senders[:len(c.senders)-1]
	return s
}

// popReceiver removes the longest-waiting receiver; the caller checked
// that there is one.
func (c *Chan) popReceiver() recvWaiter {
	w := c.receivers[0]
	copy(c.receivers, c.receivers[1:])
	c.receivers[len(c.receivers)-1] = recvWaiter{}
	c.receivers = c.receivers[:len(c.receivers)-1]
	return w
}

// newRecvStateLocked takes a receive state for p from the net's pool.
func (n *Net) newRecvStateLocked(p *kernel.Proc) *recvState {
	if k := len(n.idle); k > 0 {
		st := n.idle[k-1]
		n.idle = n.idle[:k-1]
		st.p = p
		return st
	}
	st := &recvState{p: p}
	n.states = append(n.states, st)
	return st
}

// freeRecvStateLocked returns a finished reception's state to the pool.
// No channel holds a registration of it any more.
func (n *Net) freeRecvStateLocked(st *recvState) {
	*st = recvState{}
	n.idle = append(n.idle, st)
}

// Send delivers v to a receiver, blocking until one takes it (rendezvous).
func (c *Chan) Send(p *kernel.Proc, v any) {
	n := c.net
	n.mu.Lock()
	// Deliver to the first live receiver, skipping select-waiters already
	// claimed by another channel.
	for len(c.receivers) > 0 {
		w := c.popReceiver()
		if w.st.claimed {
			continue // stale registration; the selector went elsewhere
		}
		w.st.claimed = true
		w.st.chosen = w.caseIdx
		w.st.value = v
		n.mu.Unlock()
		w.st.p.Unpark()
		return
	}
	n.stamp++
	c.senders = append(c.senders, sendWaiter{p: p, value: v, stamp: n.stamp})
	n.mu.Unlock()
	p.Park()
}

// Recv receives a value, blocking until a sender provides one.
func (c *Chan) Recv(p *kernel.Proc) any {
	n := c.net
	n.mu.Lock()
	if len(c.senders) > 0 {
		s := c.popSender()
		n.mu.Unlock()
		s.p.Unpark()
		return s.value
	}
	st := n.newRecvStateLocked(p)
	c.receivers = append(c.receivers, recvWaiter{st: st})
	n.mu.Unlock()
	p.Park()
	// The sender that claimed st popped its only registration.
	n.mu.Lock()
	v := st.value
	n.freeRecvStateLocked(st)
	n.mu.Unlock()
	return v
}

// Pending reports the number of senders blocked on the channel; it is the
// CSP analogue of a queue-length probe. It locks the net and therefore
// must NOT be called from inside a Select guard — use PendingG there.
func (c *Chan) Pending() int {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	return len(c.senders)
}

// PendingG returns a guard-safe closure reporting the number of blocked
// senders: it reads without locking, for use inside Select guards (which
// already run under the net's lock). Readers-priority servers use it to
// express "no reader is waiting".
func (c *Chan) PendingG() func() int {
	return func() int { return len(c.senders) }
}

// Case is one guarded alternative of a Select: a receive from Chan,
// enabled when Guard() is true (a nil Guard is always enabled). Guards are
// evaluated under the net's lock; they must only read state owned by the
// selecting process (the CSP server's own resource state), never call
// channel operations.
type Case struct {
	Chan  *Chan
	Guard func() bool
}

// Select blocks until one enabled alternative can receive, then returns
// its index and the received value — Hoare's guarded alternation. If every
// guard is false, Select panics (in CSP the alternation would fail; our
// servers always keep at least one alternative enabled).
//
// When several enabled alternatives have waiting senders, the sender that
// has been blocked longest (across channels) is chosen.
func Select(p *kernel.Proc, cases []Case) (int, any) {
	if len(cases) == 0 {
		panic("csp: Select with no cases")
	}
	n := cases[0].Chan.net
	n.mu.Lock()
	enabled := 0
	best := -1
	var bestStamp int64
	for i, cs := range cases {
		if cs.Chan.net != n {
			n.mu.Unlock()
			panic("csp: Select across different Nets")
		}
		if cs.Guard != nil && !cs.Guard() {
			continue
		}
		enabled++
		if len(cs.Chan.senders) > 0 {
			st := cs.Chan.senders[0].stamp
			if best < 0 || st < bestStamp {
				best, bestStamp = i, st
			}
		}
	}
	if enabled == 0 {
		n.mu.Unlock()
		panic("csp: Select with all guards false (alternation failure)")
	}
	if best >= 0 {
		s := cases[best].Chan.popSender()
		n.mu.Unlock()
		s.p.Unpark()
		return best, s.value
	}
	// No sender ready: register on every enabled channel and park.
	st := n.newRecvStateLocked(p)
	for i, cs := range cases {
		if cs.Guard != nil && !cs.Guard() {
			continue
		}
		cs.Chan.receivers = append(cs.Chan.receivers, recvWaiter{st: st, caseIdx: i})
	}
	n.mu.Unlock()
	p.Park()

	// Claimed by exactly one sender; purge stale registrations.
	n.mu.Lock()
	for _, cs := range cases {
		ws := cs.Chan.receivers[:0]
		for _, w := range cs.Chan.receivers {
			if w.st != st {
				ws = append(ws, w)
			}
		}
		clear(cs.Chan.receivers[len(ws):])
		cs.Chan.receivers = ws
	}
	chosen, value := st.chosen, st.value
	n.freeRecvStateLocked(st)
	n.mu.Unlock()
	return chosen, value
}

// Call is the remote-procedure idiom from Hoare's paper and Bloom's CSP
// discussion: the client sends a request carrying a private reply channel
// and blocks receiving the reply.
type Call struct {
	Arg   any
	reply *Chan
}

// Reply answers the call; the server invokes it exactly once per call.
func (c Call) Reply(p *kernel.Proc, v any) { c.reply.Send(p, v) }

// DoCall performs a call over ch with the given argument and returns the
// server's reply.
func (n *Net) DoCall(p *kernel.Proc, ch *Chan, arg any) any {
	reply := n.NewChan(ch.name + ".reply")
	ch.Send(p, Call{Arg: arg, reply: reply})
	return reply.Recv(p)
}

// String formats the channel for diagnostics.
func (c *Chan) String() string {
	return fmt.Sprintf("chan(%s)", c.name)
}
