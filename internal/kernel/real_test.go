package kernel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealRunsAllProcesses(t *testing.T) {
	k := NewReal()
	var count atomic.Int64
	for i := 0; i < 16; i++ {
		k.Spawn("w", func(p *Proc) { count.Add(1) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 16 {
		t.Fatalf("count = %d, want 16", count.Load())
	}
}

func TestRealParkUnpark(t *testing.T) {
	k := NewReal(WithWatchdog(5 * time.Second))
	var mu sync.Mutex
	var waiting *Proc
	woken := false
	k.Spawn("waiter", func(p *Proc) {
		mu.Lock()
		waiting = p
		mu.Unlock()
		p.Park()
		mu.Lock()
		woken = true
		mu.Unlock()
	})
	k.Spawn("waker", func(p *Proc) {
		for {
			mu.Lock()
			w := waiting
			mu.Unlock()
			if w != nil {
				w.Unpark()
				return
			}
			p.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Fatal("waiter never woke")
	}
}

func TestRealPermitBeforePark(t *testing.T) {
	k := NewReal(WithWatchdog(5 * time.Second))
	release := make(chan struct{})
	done := false
	p := k.Spawn("p", func(p *Proc) {
		<-release
		p.Park() // permit already pending
		done = true
	})
	p.Unpark()
	close(release)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Park blocked despite pending permit")
	}
}

func TestRealWatchdog(t *testing.T) {
	k := NewReal(WithWatchdog(50 * time.Millisecond))
	k.Spawn("stuck", func(p *Proc) { p.Park() })
	err := k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Run = %v, want ErrTimeout", err)
	}
	// Unwind the stuck goroutine so the test process exits cleanly.
	k.Close()
}

// waitGoroutines polls until the goroutine count settles at or below
// want, failing the test at the deadline. RealKernel.Close unwinds the
// abandoned process goroutines asynchronously.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A watchdog expiry must be recoverable: Run reports ErrTimeout, and Close
// then unwinds every process still blocked in Park — including the
// kernel's internal wg watcher — so repeated timed-out runs do not
// accumulate goroutines. Mirrors TestSimDeadlockReleasesGoroutines.
func TestRealWatchdogReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		k := NewReal(WithWatchdog(time.Millisecond))
		for j := 0; j < 3; j++ {
			k.Spawn("stuck", func(p *Proc) { p.Park() })
		}
		if err := k.Run(); !errors.Is(err, ErrTimeout) {
			t.Fatalf("Run = %v, want ErrTimeout", err)
		}
		k.Close()
	}
	waitGoroutines(t, base+4)
}

// Daemons abandoned at normal termination are unwound by Close, whether
// parked waiting for requests or mid-Sleep (they unwind at their next
// Park). Mirrors TestSimDaemonsAndSleepersReleased.
func TestRealDaemonsAbandonedCleanly(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		k := NewReal(WithWatchdog(5 * time.Second))
		k.SpawnDaemon("server", func(p *Proc) {
			for {
				p.Park()
			}
		})
		k.SpawnDaemon("ticker", func(p *Proc) {
			for {
				p.Sleep(1)
				p.Park()
			}
		})
		k.Spawn("client", func(p *Proc) { p.Yield() })
		if err := k.Run(); err != nil {
			t.Fatalf("Run = %v; daemons must not be waited on", err)
		}
		k.Close()
	}
	waitGoroutines(t, base+4)
}

// Quiesce waits for a daemon still working on a finished client's
// behalf, as a server records the release it was just handed: the
// daemon's pending permit wins over the close on its first Park after
// it, and Quiesce returns once the daemon has unwound at its next Park.
func TestRealQuiesceJoinsDaemons(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		k := NewReal(WithWatchdog(5 * time.Second))
		var recorded atomic.Bool
		server := k.SpawnDaemon("server", func(p *Proc) {
			for {
				p.Park()
				time.Sleep(2 * time.Millisecond) // still busy when the client is done
				recorded.Store(true)
			}
		})
		k.Spawn("client", func(p *Proc) { server.Unpark() })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Quiesce()
		if !recorded.Load() {
			t.Fatal("Quiesce returned before the server finished its work")
		}
		k.Quiesce() // idempotent, like Close
	}
	waitGoroutines(t, base+1)
}

// A process that finds a permit pending at every Park (here it grants
// itself one, as processes that keep waking each other do) still stops
// after Close: a pending permit wins only on its first Park after Close,
// so it unwinds instead of running on, and Quiesce returns.
func TestRealClosedPermitLoopUnwinds(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		k := NewReal(WithWatchdog(5 * time.Second))
		k.SpawnDaemon("self-waking", func(p *Proc) {
			for {
				p.Unpark()
				p.Park()
			}
		})
		k.Spawn("client", func(p *Proc) { p.Yield() })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		quiet := make(chan struct{})
		go func() {
			k.Quiesce()
			close(quiet)
		}()
		select {
		case <-quiet:
		case <-time.After(5 * time.Second):
			t.Fatal("Quiesce did not return: the daemon kept taking pending permits after Close")
		}
	}
	waitGoroutines(t, base)
}

// Close is idempotent, and a process that parks only after Close unwinds
// immediately instead of blocking forever.
func TestRealCloseIdempotent(t *testing.T) {
	k := NewReal(WithWatchdog(5 * time.Second))
	k.Spawn("worker", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Close()
	k.Close()
	base := runtime.NumGoroutine()
	k.SpawnDaemon("late", func(p *Proc) { p.Park() }) // parks after close: unwinds
	waitGoroutines(t, base+1)
}

// WithTick scales Sleep: the same tick count takes proportionally longer
// under a coarser tick, and the default microsecond tick keeps large
// virtual delays fast. Leak-checked like the SimKernel sleep tests.
func TestRealWithTickScaling(t *testing.T) {
	base := runtime.NumGoroutine()
	elapsed := func(tick time.Duration, ticks int64) time.Duration {
		k := NewReal(WithTick(tick), WithWatchdog(10*time.Second))
		var d time.Duration
		k.Spawn("sleeper", func(p *Proc) {
			start := time.Now()
			p.Sleep(ticks)
			d = time.Since(start)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Close()
		return d
	}
	// 10 ticks of 2ms is a 20ms sleep; allow generous scheduler slop but
	// require at least half the nominal duration.
	if got := elapsed(2*time.Millisecond, 10); got < 10*time.Millisecond {
		t.Fatalf("Sleep(10 x 2ms) elapsed only %v", got)
	}
	// The default-scale regime: a million microsecond ticks must not take
	// anywhere near a wall-clock million microseconds per tick.
	if got := elapsed(time.Microsecond, 100_000); got > 5*time.Second {
		t.Fatalf("Sleep(100000 x 1us) took %v", got)
	}
	waitGoroutines(t, base)
}

func TestRealNowMonotonic(t *testing.T) {
	k := NewReal()
	t0 := k.Now()
	time.Sleep(time.Millisecond)
	t1 := k.Now()
	if t1 <= t0 {
		t.Fatalf("Now not increasing: %d then %d", t0, t1)
	}
}

func TestRealSleepTicks(t *testing.T) {
	k := NewReal(WithTick(time.Millisecond), WithWatchdog(10*time.Second))
	var elapsed time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		start := time.Now()
		p.Sleep(20)
		elapsed = time.Since(start)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < 15*time.Millisecond {
		t.Fatalf("Sleep(20 x 1ms) elapsed only %v", elapsed)
	}
}

func TestRealProcIdentity(t *testing.T) {
	k := NewReal()
	seen := make(chan int, 2)
	p1 := k.Spawn("alpha", func(p *Proc) { seen <- p.ID() })
	p2 := k.Spawn("beta", func(p *Proc) { seen <- p.ID() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if p1.Name() != "alpha" || p2.Name() != "beta" {
		t.Fatalf("names = %q, %q", p1.Name(), p2.Name())
	}
	if p1.ID() == p2.ID() {
		t.Fatalf("duplicate IDs: %d", p1.ID())
	}
	a, b := <-seen, <-seen
	if a == b {
		t.Fatalf("process bodies observed duplicate IDs: %d", a)
	}
	if p1.String() != "alpha#1" {
		t.Fatalf("String = %q, want alpha#1", p1.String())
	}
}

func TestRealSpawnFromProcess(t *testing.T) {
	k := NewReal(WithWatchdog(5 * time.Second))
	var count atomic.Int64
	k.Spawn("parent", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Kernel().Spawn("child", func(c *Proc) { count.Add(1) })
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 4 {
		t.Fatalf("children run = %d, want 4", count.Load())
	}
}

func TestRealDaemonDoesNotBlockRun(t *testing.T) {
	k := NewReal(WithWatchdog(5 * time.Second))
	k.SpawnDaemon("server", func(p *Proc) { p.Park() }) // parks forever
	k.Spawn("worker", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatalf("Run = %v; daemons must not be waited on", err)
	}
}

// The park/unpark handshake must be race-free under the mechanism
// discipline: decide to wait under a lock, park outside it.
func TestRealParkUnparkStress(t *testing.T) {
	k := NewReal(WithWatchdog(20 * time.Second))
	const rounds = 2000
	var mu sync.Mutex
	var queue []*Proc
	handoffs := 0

	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			mu.Lock()
			queue = append(queue, p)
			mu.Unlock()
			p.Park()
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < rounds; {
			mu.Lock()
			var target *Proc
			if len(queue) > 0 {
				target = queue[0]
				queue = queue[1:]
			}
			mu.Unlock()
			if target != nil {
				handoffs++
				target.Unpark()
				i++
			} else {
				p.Yield()
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if handoffs != rounds {
		t.Fatalf("handoffs = %d, want %d", handoffs, rounds)
	}
}

func BenchmarkRealParkUnparkHandoff(b *testing.B) {
	k := NewReal(WithWatchdog(0))
	pingCh := make(chan *Proc, 1)
	pongCh := make(chan *Proc, 1)
	// Strict alternation: each side parks after every unpark, so permits
	// never coalesce and every round is a genuine handoff.
	k.Spawn("pong", func(p *Proc) {
		pongCh <- p
		ping := <-pingCh
		for i := 0; i < b.N; i++ {
			p.Park()
			ping.Unpark()
		}
	})
	pong := <-pongCh
	b.ResetTimer()
	k.Spawn("ping", func(p *Proc) {
		pingCh <- p
		for i := 0; i < b.N; i++ {
			pong.Unpark()
			p.Park()
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
