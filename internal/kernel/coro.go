//go:build go1.23

package kernel

import "iter"

// decision is what a process coroutine yields to Run when its process
// gives up the processor: the scheduling decision it made on the way out.
type decision struct {
	next *simProc // the process to resume; nil when the run is over
	err  error    // the run outcome when next is nil
}

// run resumes sp's coroutine, creating it the first time sp is
// scheduled, and returns the decision sp makes when it next gives up
// the processor. Called only by Run's loop.
func (sp *simProc) run() decision {
	if sp.resume == nil {
		sp.resume, sp.stop = iter.Pull(sp.loop)
	}
	d, _ := sp.resume()
	return d
}

// loop is the body of sp's coroutine. Every resume after a finished body
// starts the body again: a recycled process (WithRecycle) is respawned by
// the next run and runs its new body on the same coroutine.
func (sp *simProc) loop(yield func(decision) bool) {
	sp.suspend = yield
	for yield(sp.runBody()) {
	}
}

// runBody runs the process body until it returns or the kernel unwinds
// it, and returns the decision its exit made. A panic other than the
// shutdown sentinel ends the run: it is recorded for Run to re-raise once
// the other processes have unwound.
func (sp *simProc) runBody() (d decision) {
	sp.inBody = true
	defer func() {
		sp.inBody = false
		if r := recover(); r != nil && r != errShutdown {
			k := sp.kernel
			if k.panicked == nil {
				k.panicked = r
			}
			k.finish()
		}
	}()
	sp.fn(sp.proc)
	return sp.exited()
}

// await yields d to Run and suspends sp until Run resumes it. A resume
// after the run is over, or a stop, unwinds sp: its pending kernel
// operation panics errShutdown, which runBody recovers.
func (sp *simProc) await(d decision) {
	if !sp.suspend(d) || sp.kernel.finished {
		panic(errShutdown)
	}
}
