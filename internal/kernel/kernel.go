// Package kernel provides the process substrate on which every
// synchronization mechanism in this repository is built.
//
// The paper's methodology requires running the same solution code both as a
// real concurrent program and as a deterministic simulation (so that
// specific interleavings, such as the Figure-1 anomaly, can be exhibited and
// checked). The kernel abstracts exactly what a synchronization mechanism
// needs from its host:
//
//   - processes (Spawn), identified and named;
//   - parking and unparking with permit semantics (no spurious wakeups);
//   - yielding and virtual-time sleeping;
//   - a clock (Now).
//
// Two implementations are provided:
//
//   - RealKernel: processes are goroutines, parking is a one-permit channel,
//     time is the wall clock. Solutions run with genuine parallelism.
//   - SimKernel: a deterministic cooperative scheduler. Exactly one process
//     runs at a time; every scheduling decision is made by a pluggable
//     Policy, so a run is reproducible from a seed or an explicit choice
//     sequence, and global deadlock is detected rather than hung on.
//
// Discipline required of mechanism code (enforced by convention, verified
// by the mechanism test suites):
//
//   - A process must not hold a sync.Mutex while parked. Mechanisms lock
//     their internal state, enqueue the current process, unlock, then Park.
//   - Unpark is called exactly once per Park, after removing the process
//     from whatever queue it was placed on (permit pairing). Park/Unpark
//     permits make the unlock-then-park window race-free: an Unpark that
//     arrives first simply makes the subsequent Park return immediately.
package kernel

import (
	"errors"
	"fmt"
)

// Time is a kernel timestamp. For RealKernel it is nanoseconds since the
// kernel was created; for SimKernel it is virtual ticks advanced by Sleep.
type Time = int64

// Kernel is the host substrate for processes.
type Kernel interface {
	// Spawn creates a new process that will execute fn. It may be called
	// before Run (to set up the initial process set) or from inside a
	// running process. Spawning from outside any process while Run is in
	// progress is not supported.
	Spawn(name string, fn func(p *Proc)) *Proc

	// SpawnDaemon creates a background process that does not count toward
	// termination or deadlock: Run returns when every non-daemon process
	// has finished, whatever state daemons are in, and parked daemons do
	// not make a deadlock. CSP-style resource servers are daemons — they
	// serve requests forever and are abandoned when the workload ends.
	SpawnDaemon(name string, fn func(p *Proc)) *Proc

	// Run executes spawned processes until all have terminated.
	//
	// SimKernel returns ErrDeadlock (wrapped, with the parked process
	// names) if every live process is parked and no sleeper can advance
	// the clock. RealKernel returns ErrTimeout if the processes do not
	// terminate within the configured watchdog.
	Run() error

	// Now reports the current kernel time.
	Now() Time
}

// ErrDeadlock is reported by SimKernel.Run when every live process is
// parked and virtual time cannot advance.
var ErrDeadlock = errors.New("kernel: deadlock: all processes parked")

// ErrTimeout is reported by RealKernel.Run when the watchdog expires before
// all processes terminate (almost always a lost-wakeup or deadlock bug in a
// mechanism or solution under test).
var ErrTimeout = errors.New("kernel: watchdog timeout waiting for processes")

// procImpl is the kernel-specific half of a Proc.
type procImpl interface {
	park()
	unpark()
	yield()
	sleep(ticks int64)
}

// Proc is a handle to a kernel process. The same Proc value is passed to
// the process body and used by mechanisms to park/unpark it; it is valid to
// hold a *Proc after the process has terminated (Unpark on a terminated
// process is a no-op for SimKernel and harmless for RealKernel).
type Proc struct {
	id    int
	name  string
	label string // "name#id", interned at spawn: id and name are immutable
	k     Kernel
	impl  procImpl
}

// ID reports the process identifier, unique within its kernel and assigned
// in spawn order starting at 1.
func (p *Proc) ID() int { return p.id }

// Name reports the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel reports the kernel that owns this process.
func (p *Proc) Kernel() Kernel { return p.k }

// String formats the process as "name#id". The label is computed once at
// spawn (both fields are immutable), so hot paths — the trace recorder
// stamps it on every event — pay a field load, not a fmt.Sprintf.
func (p *Proc) String() string {
	if p.label == "" {
		return fmt.Sprintf("%s#%d", p.name, p.id)
	}
	return p.label
}

// Park blocks the calling process until a permit is available, consuming
// it. At most one permit is ever outstanding; a permit granted by Unpark
// before Park is called satisfies the next Park immediately. Park must only
// be called by the process itself, and never while holding a lock another
// process may need.
func (p *Proc) Park() { p.impl.park() }

// Unpark grants p a permit, waking it if it is parked. Permits do not
// accumulate beyond one. Unpark is called by other processes (typically by
// a mechanism that has dequeued p from a wait list).
func (p *Proc) Unpark() { p.impl.unpark() }

// Yield cedes the processor. Under SimKernel the process goes to the back
// of the ready set and the policy picks the next process to run; under
// RealKernel it hints the Go scheduler.
func (p *Proc) Yield() { p.impl.yield() }

// Sleep suspends the process for the given number of ticks. Under
// SimKernel this advances virtual time; under RealKernel a tick is the
// kernel's configured tick duration (default one microsecond). Sleeping
// for a non-positive duration is a Yield.
func (p *Proc) Sleep(ticks int64) {
	if ticks <= 0 {
		p.impl.yield()
		return
	}
	p.impl.sleep(ticks)
}
