//go:build !linux

package load

import "repro/internal/kernel"

// sleepUntil yields until the instant until on gp's kernel clock: off
// Linux the generator has no OS sleep finer than the runtime's timers.
func sleepUntil(gp *kernel.Proc, until int64) {
	for gp.Kernel().Now() < until {
		gp.Yield()
	}
}
