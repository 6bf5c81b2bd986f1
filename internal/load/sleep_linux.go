//go:build linux

package load

import (
	"syscall"

	"repro/internal/kernel"
)

// sleepUntil blocks the generator's thread in nanosleep until about the
// instant until on gp's kernel clock. A Linux hrtimer ends the sleep
// within microseconds, where the runtime's timers round an idle
// process's short waits up to a millisecond.
func sleepUntil(gp *kernel.Proc, until int64) {
	d := until - gp.Kernel().Now()
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
