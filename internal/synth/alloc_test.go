//go:build !race

// The race detector drops sync.Pool items at random, so allocation pins
// that depend on pooled scratch only hold in ordinary builds.

package synth

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/kernel"
)

// TestOracleAllocatesNothing pins the derived oracle's steady state:
// once warm, judging a clean corpus trace allocates nothing.
func TestOracleAllocatesNothing(t *testing.T) {
	traces := corpusTraces(t, 100, true)
	for _, c := range traces {
		if allocs := testing.AllocsPerRun(5, func() { c.oracle(c.tr) }); allocs != 0 {
			t.Errorf("%s: judging a clean trace allocates %v times, want 0", c.name, allocs)
		}
	}
	t.Logf("%d clean traces judged without allocating", len(traces))
}

// TestRecycledRunAllocatesNothing pins a recycled run's steady state:
// corpus problems 1–20 under every mechanism that can express them, each
// on a recycling kernel with FIFO scheduling. After one warm-up run,
// every further run — kernel and recorder reset, program, Run —
// allocates nothing. Each run is counted on its own, not averaged.
func TestRecycledRunAllocatesNothing(t *testing.T) {
	slots := recycledPrograms(t, 20)
	for _, s := range slots {
		if err := s.run(); err != nil && !errors.Is(err, kernel.ErrDeadlock) {
			t.Fatalf("%s: %v", s.name, err)
		}
		for run := 2; run <= 4; run++ {
			if n := mallocs(func() { s.run() }); n != 0 {
				t.Errorf("%s: run %d allocates %d times, want 0", s.name, run, n)
			}
		}
		s.k.Close()
	}
	t.Logf("%d programs ran without allocating after one warm-up run", len(slots))
}

// mallocs counts the heap allocations one call of f makes, from the
// runtime's counters with one P, as testing.AllocsPerRun does, but for
// a single call and with no warm-up call of its own.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
