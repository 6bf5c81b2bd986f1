package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// RealKernel runs processes as goroutines against the wall clock. It is
// the production substrate: mechanisms built on it are ordinary concurrent
// Go libraries.
type RealKernel struct {
	tick     time.Duration
	watchdog time.Duration
	start    time.Time

	nextID atomic.Int64
	wg     sync.WaitGroup

	closeOnce sync.Once
	closed    chan struct{}  // closed by Close; parked processes then unwind
	daemons   sync.WaitGroup // live daemons; Quiesce waits on it
}

// RealOption configures a RealKernel.
type RealOption func(*RealKernel)

// WithTick sets the wall-clock duration of one Sleep tick. The default is
// one microsecond, which keeps virtual-time workloads (alarm clock, disk
// scheduler arrival patterns) fast in tests.
func WithTick(d time.Duration) RealOption {
	return func(k *RealKernel) { k.tick = d }
}

// WithWatchdog sets how long Run waits for all processes to terminate
// before reporting ErrTimeout. The default is 30 seconds. A zero duration
// disables the watchdog.
func WithWatchdog(d time.Duration) RealOption {
	return func(k *RealKernel) { k.watchdog = d }
}

// NewReal creates a RealKernel.
func NewReal(opts ...RealOption) *RealKernel {
	k := &RealKernel{
		tick:     time.Microsecond,
		watchdog: 30 * time.Second,
		start:    time.Now(),
		closed:   make(chan struct{}),
	}
	for _, o := range opts {
		o(k)
	}
	return k
}

// Spawn implements Kernel. The process starts running immediately; Run
// merely waits for completion.
func (k *RealKernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, false)
}

// SpawnDaemon implements Kernel: the goroutine runs but Run does not wait
// for it; it is abandoned when the process exits.
func (k *RealKernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, true)
}

func (k *RealKernel) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	id := int(k.nextID.Add(1))
	p := &Proc{
		id:    id,
		name:  name,
		label: fmt.Sprintf("%s#%d", name, id),
		k:     k,
	}
	rp := &realProc{
		kernel: k,
		permit: make(chan struct{}, 1),
	}
	p.impl = rp
	if daemon {
		k.daemons.Add(1)
		go func() {
			defer k.daemons.Done()
			fn(p)
		}()
		return p
	}
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		fn(p)
	}()
	return p
}

// Run implements Kernel: it waits until every spawned process (including
// ones spawned transitively) has terminated, or the watchdog expires.
func (k *RealKernel) Run() error {
	done := make(chan struct{})
	go func() {
		k.wg.Wait()
		close(done)
	}()
	if k.watchdog <= 0 {
		<-done
		return nil
	}
	timer := time.NewTimer(k.watchdog)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		return ErrTimeout
	}
}

// Now implements Kernel: nanoseconds since the kernel was created.
func (k *RealKernel) Now() Time { return int64(time.Since(k.start)) }

// Close abandons the kernel's remaining processes: every process blocked
// in Park — stuck non-daemons left behind by a watchdog timeout, and
// daemon servers parked waiting for requests that will never come — is
// unwound (its goroutine exits, running deferred calls) instead of
// leaking for the life of the host program. A process that reaches a Park
// after Close unwinds there too, except that a permit already granted to
// it is honoured once: its first Park after Close returns if a permit is
// pending, so a server handed a finished client's last message still
// handles it, and every later Park unwinds. Processes that keep waking
// each other therefore stop as well. Unlike SimKernel.Run's unwind this
// is asynchronous: the goroutines exit after Close returns (Quiesce
// waits for the daemons). It is safe because the mechanism discipline
// forbids holding a lock another process may need while parked. Call
// Close after Run has returned; the kernel must not be used afterwards.
// Close is idempotent.
//
// A process spinning without ever parking cannot be unwound (goroutines
// are not preemptively killable); the watchdog reports it, Close cannot
// collect it.
func (k *RealKernel) Close() {
	k.closeOnce.Do(func() { close(k.closed) })
}

// Quiesce closes the kernel and waits until every daemon has returned or
// unwound at a Park, so nothing a daemon records on behalf of a finished
// process (a server logging the release it was just sent) is still in
// flight when the caller reads it. Call Quiesce after Run has returned
// nil, when no process is left that could wake a daemon; a daemon that
// neither parks nor returns (one looping on Sleep) keeps it waiting.
func (k *RealKernel) Quiesce() {
	k.Close()
	k.daemons.Wait()
}

type realProc struct {
	kernel *RealKernel
	permit chan struct{}
	closed bool // a Park has seen the kernel closed; only the process touches it
}

func (rp *realProc) park() {
	select {
	case <-rp.permit:
	case <-rp.kernel.closed:
		// The kernel was abandoned: unwind this process instead of
		// waiting for a permit that will never come. Goexit runs deferred
		// calls, so the spawn wrapper's wg.Done still fires. On the first
		// Park after Close a pending permit wins, once (see Close).
		if !rp.closed {
			rp.closed = true
			select {
			case <-rp.permit:
				return
			default:
			}
		}
		runtime.Goexit()
	}
}
func (rp *realProc) yield() { runtime.Gosched() }

func (rp *realProc) unpark() {
	select {
	case rp.permit <- struct{}{}:
	default: // a permit is already pending; permits do not accumulate
	}
}

func (rp *realProc) sleep(ticks int64) {
	time.Sleep(time.Duration(ticks) * rp.kernel.tick)
}
