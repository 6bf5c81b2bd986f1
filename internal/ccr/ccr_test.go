package ccr

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
)

func TestUnconditionalExclusion(t *testing.T) {
	k := kernel.NewSim(kernel.WithPolicy(kernel.Random(11)))
	r := New("v")
	inside, maxInside := 0, 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *kernel.Proc) {
			for j := 0; j < 6; j++ {
				r.Execute(p, True, func() {
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					p.Yield()
					inside--
				})
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("maxInside = %d, want 1", maxInside)
	}
}

func TestGuardBlocksUntilTrue(t *testing.T) {
	k := kernel.NewSim()
	r := New("v")
	ready := false
	var order []string
	k.Spawn("waiter", func(p *kernel.Proc) {
		r.Execute(p, func() bool { return ready }, func() {
			order = append(order, "entered")
		})
	})
	k.Spawn("setter", func(p *kernel.Proc) {
		r.Execute(p, True, func() {
			order = append(order, "set")
			ready = true
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[set entered]" {
		t.Fatalf("order = %v", order)
	}
}

func TestGuardEvaluatedUnderExclusion(t *testing.T) {
	k := kernel.NewSim()
	r := New("v")
	evals := 0
	occupiedDuringEval := true
	k.Spawn("holder", func(p *kernel.Proc) {
		r.Execute(p, True, func() {
			p.Yield() // waiter arrives while we are inside
			p.Yield()
		})
	})
	k.Spawn("waiter", func(p *kernel.Proc) {
		r.Execute(p, func() bool {
			evals++
			// The guard must never run while another process is inside
			// body; the occupant at evaluation time is the evaluator's
			// admitter or nobody-but-us.
			return true
		}, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if evals == 0 {
		t.Fatal("guard never evaluated")
	}
	_ = occupiedDuringEval
}

// Admission is longest-waiting-first among processes whose guards hold.
func TestFIFOAmongTrueGuards(t *testing.T) {
	k := kernel.NewSim()
	r := New("v")
	gate := false
	var order []int
	k.Spawn("holder", func(p *kernel.Proc) {
		r.Execute(p, True, func() {
			for i := 0; i < 5; i++ {
				p.Yield() // let waiters queue up
			}
			gate = true
		})
	})
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *kernel.Proc) {
			r.Execute(p, func() bool { return gate }, func() {
				order = append(order, p.ID())
			})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[2 3 4 5]" {
		t.Fatalf("admission order = %v, want FIFO", order)
	}
}

// A waiter whose guard is false is skipped in favor of a later waiter
// whose guard is true.
func TestFalseGuardSkipped(t *testing.T) {
	k := kernel.NewSim()
	r := New("v")
	a, b := false, false
	var order []string
	k.Spawn("holder", func(p *kernel.Proc) {
		r.Execute(p, True, func() {
			for i := 0; i < 4; i++ {
				p.Yield()
			}
			b = true // only the second waiter's guard becomes true
		})
	})
	k.Spawn("waiterA", func(p *kernel.Proc) {
		r.Execute(p, func() bool { return a }, func() { order = append(order, "A") })
	})
	k.Spawn("waiterB", func(p *kernel.Proc) {
		r.Execute(p, func() bool { return b }, func() {
			order = append(order, "B")
			a = true // now A can go
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[B A]" {
		t.Fatalf("order = %v, want B then A", order)
	}
}

func TestUnsatisfiableGuardDeadlocks(t *testing.T) {
	k := kernel.NewSim()
	r := New("v")
	k.Spawn("stuck", func(p *kernel.Proc) {
		r.Execute(p, func() bool { return false }, func() {})
	})
	if err := k.Run(); !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock", err)
	}
}

func TestNestedEntryPanics(t *testing.T) {
	k := kernel.NewSim()
	r := New("v")
	var recovered any
	k.Spawn("bad", func(p *kernel.Proc) {
		defer func() { recovered = recover() }()
		r.Execute(p, True, func() {
			r.Execute(p, True, func() {})
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatal("nested entry did not panic")
	}
}

func TestRegionReleasedOnBodyPanic(t *testing.T) {
	k := kernel.NewSim()
	r := New("v")
	entered := false
	k.Spawn("panicker", func(p *kernel.Proc) {
		defer func() { recover() }()
		r.Execute(p, True, func() { panic("boom") })
	})
	k.Spawn("next", func(p *kernel.Proc) {
		r.Execute(p, True, func() { entered = true })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !entered {
		t.Fatal("region not released after body panic")
	}
}

func TestAwait(t *testing.T) {
	k := kernel.NewSim()
	r := New("v")
	n := 0
	passed := false
	k.Spawn("waiter", func(p *kernel.Proc) {
		r.Await(p, func() bool { return n >= 3 })
		passed = true
	})
	k.Spawn("bumper", func(p *kernel.Proc) {
		for i := 0; i < 3; i++ {
			r.Execute(p, True, func() { n++ })
			p.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !passed {
		t.Fatal("Await never returned")
	}
}

// Bounded buffer via CCR, real kernel + race detector.
func TestBoundedBufferReal(t *testing.T) {
	k := kernel.NewReal(kernel.WithWatchdog(30 * time.Second))
	r := New("buffer")
	const cap = 3
	var buf []int
	const items = 1500
	var got []int
	k.Spawn("producer", func(p *kernel.Proc) {
		for i := 0; i < items; i++ {
			r.Execute(p, func() bool { return len(buf) < cap }, func() {
				buf = append(buf, i)
			})
		}
	})
	k.Spawn("consumer", func(p *kernel.Proc) {
		for i := 0; i < items; i++ {
			r.Execute(p, func() bool { return len(buf) > 0 }, func() {
				got = append(got, buf[0])
				buf = buf[1:]
			})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != items {
		t.Fatalf("consumed %d, want %d", len(got), items)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d", i, v)
		}
	}
}

func BenchmarkRegionUncontended(b *testing.B) {
	k := kernel.NewReal()
	r := New("bench")
	done := make(chan struct{})
	k.Spawn("p", func(p *kernel.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Execute(p, True, func() {})
		}
		close(done)
	})
	<-done
}

func BenchmarkRegionGuardedHandoff(b *testing.B) {
	k := kernel.NewReal(kernel.WithWatchdog(0))
	r := New("bench")
	turn := 0
	b.ResetTimer()
	k.Spawn("a", func(p *kernel.Proc) {
		for i := 0; i < b.N; i++ {
			r.Execute(p, func() bool { return turn == 0 }, func() { turn = 1 })
		}
	})
	k.Spawn("b", func(p *kernel.Proc) {
		for i := 0; i < b.N; i++ {
			r.Execute(p, func() bool { return turn == 1 }, func() { turn = 0 })
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestResetAfterCutRun: a run cut by Stop leaves a process queued on its
// guard (the occupant's deferred exit releases the region as the run
// unwinds). Reset empties the region, and it works again.
func TestResetAfterCutRun(t *testing.T) {
	k := kernel.NewSim()
	r := New("r")
	k.Spawn("occupant", func(p *kernel.Proc) {
		r.Execute(p, True, func() {
			p.Yield()
			k.Stop()
			p.Yield()
		})
	})
	k.Spawn("waiter", func(p *kernel.Proc) { r.Await(p, func() bool { return false }) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Waiting() != 1 {
		t.Fatalf("before Reset: %d waiting, want 1", r.Waiting())
	}
	r.Reset()
	if r.Occupied() || r.Waiting() != 0 {
		t.Fatalf("after Reset: occupied %v, %d waiting", r.Occupied(), r.Waiting())
	}
	k2 := kernel.NewSim()
	k2.Spawn("again", func(p *kernel.Proc) { r.Await(p, True) })
	if err := k2.Run(); err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
}
