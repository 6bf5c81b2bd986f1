package semaphore

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/kernel"
)

func TestPWithPositiveCountDoesNotBlock(t *testing.T) {
	k := kernel.NewSim()
	s := New(2)
	done := 0
	k.Spawn("p", func(p *kernel.Proc) {
		s.P(p)
		s.P(p)
		done = 2
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 || s.Value() != 0 {
		t.Fatalf("done=%d value=%d", done, s.Value())
	}
}

func TestPBlocksAtZeroUntilV(t *testing.T) {
	k := kernel.NewSim()
	s := New(0)
	var order []string
	k.Spawn("waiter", func(p *kernel.Proc) {
		s.P(p)
		order = append(order, "acquired")
	})
	k.Spawn("releaser", func(p *kernel.Proc) {
		order = append(order, "releasing")
		s.V()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[releasing acquired]" {
		t.Fatalf("order = %v", order)
	}
}

func TestFIFOAdmissionOrder(t *testing.T) {
	k := kernel.NewSim()
	s := New(0)
	var order []int
	for i := 1; i <= 5; i++ {
		k.Spawn("w", func(p *kernel.Proc) {
			s.P(p)
			order = append(order, p.ID())
		})
	}
	k.Spawn("releaser", func(p *kernel.Proc) {
		for i := 0; i < 5; i++ {
			s.V()
			p.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i+1 {
			t.Fatalf("admission order = %v, want FIFO by spawn order", order)
		}
	}
}

func TestNoBargingPastWaiters(t *testing.T) {
	k := kernel.NewSim()
	s := New(0)
	var order []string
	k.Spawn("first", func(p *kernel.Proc) {
		s.P(p)
		order = append(order, "first")
	})
	k.Spawn("releaser", func(p *kernel.Proc) {
		s.V() // hands off directly to "first"
		// Spawn a late arrival; even though V happened, the permit was
		// handed to the waiter, so the late P must block until the next V.
		p.Kernel().Spawn("late", func(q *kernel.Proc) {
			s.P(q)
			order = append(order, "late")
		})
		p.Yield()
		s.V()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[first late]" {
		t.Fatalf("order = %v", order)
	}
}

func TestTryP(t *testing.T) {
	k := kernel.NewSim()
	s := New(1)
	k.Spawn("p", func(p *kernel.Proc) {
		if !s.TryP() {
			t.Error("TryP failed with count 1")
		}
		if s.TryP() {
			t.Error("TryP succeeded with count 0")
		}
		s.V()
		if !s.TryP() {
			t.Error("TryP failed after V")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTryPRespectsWaiters(t *testing.T) {
	k := kernel.NewSim()
	s := New(0)
	k.Spawn("waiter", func(p *kernel.Proc) { s.P(p) })
	k.Spawn("barger", func(p *kernel.Proc) {
		s.V() // permit handed to waiter, not to the count
		if s.TryP() {
			t.Error("TryP stole a handed-off permit")
		}
		s.V() // no waiters now? waiter consumed the first V... this V has no waiter yet
		// count is now 1, no waiters: TryP must succeed.
		if !s.TryP() {
			t.Error("TryP failed with positive count and no waiters")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeInitialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestDeadlockDetectedBySim(t *testing.T) {
	k := kernel.NewSim()
	s := New(0)
	k.Spawn("stuck", func(p *kernel.Proc) { s.P(p) })
	if err := k.Run(); !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock", err)
	}
}

func TestMutexExclusionSim(t *testing.T) {
	k := kernel.NewSim(kernel.WithPolicy(kernel.Random(7)))
	m := NewMutex()
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *kernel.Proc) {
			for j := 0; j < 10; j++ {
				m.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Yield() // tempt another process to enter
				inside--
				m.Unlock(p)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max processes inside critical section = %d, want 1", maxInside)
	}
}

func TestMutexMisuse(t *testing.T) {
	k := kernel.NewSim()
	m := NewMutex()
	var recovered any
	k.Spawn("bad", func(p *kernel.Proc) {
		defer func() { recovered = recover() }()
		m.Unlock(p) // not held
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatal("Unlock of unheld mutex did not panic")
	}

	k2 := kernel.NewSim()
	m2 := NewMutex()
	var recovered2 any
	k2.Spawn("rec", func(p *kernel.Proc) {
		defer func() { recovered2 = recover() }()
		m2.Lock(p)
		m2.Lock(p) // recursive
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered2 == nil {
		t.Fatal("recursive Lock did not panic")
	}
}

func TestMutexHolder(t *testing.T) {
	k := kernel.NewSim()
	m := NewMutex()
	k.Spawn("p", func(p *kernel.Proc) {
		if m.Holder() != nil {
			t.Error("fresh mutex has a holder")
		}
		m.Lock(p)
		if m.Holder() != p {
			t.Error("Holder != p after Lock")
		}
		m.Unlock(p)
		if m.Holder() != nil {
			t.Error("Holder != nil after Unlock")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Real-kernel stress: counting semaphore as a bounded resource pool; with
// -race this doubles as a data-race check on the P/V fast paths.
func TestCountingSemaphoreStressReal(t *testing.T) {
	k := kernel.NewReal(kernel.WithWatchdog(30 * time.Second))
	const limit = 3
	s := New(limit)
	mu := NewMutex()
	inUse, maxUse := 0, 0
	for i := 0; i < 20; i++ {
		k.Spawn("user", func(p *kernel.Proc) {
			for j := 0; j < 50; j++ {
				s.P(p)
				mu.Lock(p)
				inUse++
				if inUse > maxUse {
					maxUse = inUse
				}
				mu.Unlock(p)
				p.Yield()
				mu.Lock(p)
				inUse--
				mu.Unlock(p)
				s.V()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxUse > limit {
		t.Fatalf("pool admitted %d concurrent users, limit %d", maxUse, limit)
	}
	if s.Value() != limit {
		t.Fatalf("final count = %d, want %d", s.Value(), limit)
	}
}

// Property: any interleaving of k.P and k.V that never over-releases keeps
// Value() == initial + Vs - Ps, and never goes negative, when run by a
// single process (no blocking involved).
func TestSemaphorePropertyCounting(t *testing.T) {
	f := func(initial uint8, ops []bool) bool {
		init := int64(initial % 16)
		s := New(init)
		count := init
		ok := true
		k := kernel.NewSim()
		k.Spawn("p", func(p *kernel.Proc) {
			for _, isV := range ops {
				if isV {
					s.V()
					count++
				} else if count > 0 {
					s.P(p)
					count--
				}
				if s.Value() != count {
					ok = false
					return
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSemaphoreUncontendedPV(b *testing.B) {
	k := kernel.NewReal()
	s := New(1)
	done := make(chan struct{})
	k.Spawn("p", func(p *kernel.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.P(p)
			s.V()
		}
		close(done)
	})
	<-done
}

func BenchmarkSemaphoreContendedHandoff(b *testing.B) {
	k := kernel.NewReal(kernel.WithWatchdog(0))
	s := New(1)
	const procs = 4
	per := b.N/procs + 1
	b.ResetTimer()
	for i := 0; i < procs; i++ {
		k.Spawn("w", func(p *kernel.Proc) {
			for j := 0; j < per; j++ {
				s.P(p)
				s.V()
			}
		})
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestResetAfterDeadlock: a run that deadlocks leaves a semaphore with a
// parked waiter and a spent count, and a mutex held with a waiter.
// Reset returns both to their state at construction.
func TestResetAfterDeadlock(t *testing.T) {
	k := kernel.NewSim()
	s := New(1)
	m := NewMutex()
	k.Spawn("a", func(p *kernel.Proc) {
		s.P(p)
		m.Lock(p)
		s.P(p)
	})
	k.Spawn("b", func(p *kernel.Proc) { m.Lock(p) })
	if err := k.Run(); !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock", err)
	}
	if s.Waiting() != 1 || m.Holder() == nil {
		t.Fatalf("before Reset: %d waiting, holder %v", s.Waiting(), m.Holder())
	}
	s.Reset()
	m.Reset()
	if s.Value() != 1 || s.Waiting() != 0 || m.Holder() != nil {
		t.Fatalf("after Reset: value %d, %d waiting, holder %v; want 1, 0, nil", s.Value(), s.Waiting(), m.Holder())
	}
	k2 := kernel.NewSim()
	k2.Spawn("c", func(p *kernel.Proc) {
		m.Lock(p)
		s.P(p)
		m.Unlock(p)
	})
	if err := k2.Run(); err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
}
