package monitor

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
)

func TestMutualExclusion(t *testing.T) {
	k := kernel.NewSim(kernel.WithPolicy(kernel.Random(3)))
	m := New("mx")
	inside, maxInside := 0, 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *kernel.Proc) {
			for j := 0; j < 8; j++ {
				m.Enter(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Yield()
				inside--
				m.Exit(p)
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

func TestEntryIsFIFO(t *testing.T) {
	k := kernel.NewSim()
	m := New("mx")
	var order []int
	k.Spawn("holder", func(p *kernel.Proc) {
		m.Enter(p)
		// Let five entrants queue up.
		for i := 0; i < 6; i++ {
			p.Yield()
		}
		m.Exit(p)
	})
	for i := 0; i < 5; i++ {
		k.Spawn("e", func(p *kernel.Proc) {
			m.Enter(p)
			order = append(order, p.ID())
			m.Exit(p)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[2 3 4 5 6]" {
		t.Fatalf("entry order = %v, want FIFO", order)
	}
}

// The defining Hoare property: a signalled process resumes immediately,
// before the signaller and before any waiting entrant, so the condition it
// waited for is still true — no re-check loop.
func TestSignalAndUrgentWait(t *testing.T) {
	k := kernel.NewSim()
	m := New("mx")
	c := m.NewCondition("c")
	var order []string
	flag := false

	k.Spawn("waiter", func(p *kernel.Proc) {
		m.Enter(p)
		order = append(order, "wait")
		c.Wait(p)
		// Hoare semantics: flag must still be true; nobody ran in between.
		if !flag {
			t.Error("condition not true at wakeup: not Hoare semantics")
		}
		order = append(order, "woken")
		flag = false
		m.Exit(p)
	})
	k.Spawn("signaller", func(p *kernel.Proc) {
		m.Enter(p)
		flag = true
		order = append(order, "signal")
		c.Signal(p)
		// We resume only after the waiter released the monitor; by then it
		// has consumed the flag.
		if flag {
			t.Error("signaller resumed before signalled process ran")
		}
		order = append(order, "signaller-resumed")
		m.Exit(p)
	})
	// A third process tries to barge in between signal and wakeup.
	k.Spawn("barger", func(p *kernel.Proc) {
		p.Yield() // let the others get going
		m.Enter(p)
		order = append(order, "barger")
		m.Exit(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[wait signal woken signaller-resumed barger]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestSignalEmptyConditionIsNoop(t *testing.T) {
	k := kernel.NewSim()
	m := New("mx")
	c := m.NewCondition("c")
	k.Spawn("p", func(p *kernel.Proc) {
		m.Enter(p)
		c.Signal(p) // nobody waiting: no-op, we keep the monitor
		if m.Occupied() != true {
			t.Error("lost the monitor after no-op signal")
		}
		m.Exit(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConditionFIFO(t *testing.T) {
	k := kernel.NewSim()
	m := New("mx")
	c := m.NewCondition("c")
	var order []int
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *kernel.Proc) {
			m.Enter(p)
			c.Wait(p)
			order = append(order, p.ID())
			m.Exit(p)
		})
	}
	k.Spawn("sig", func(p *kernel.Proc) {
		for i := 0; i < 4; i++ {
			m.Enter(p)
			c.Signal(p)
			m.Exit(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3 4]" {
		t.Fatalf("wakeup order = %v, want FIFO", order)
	}
}

func TestPriorityWait(t *testing.T) {
	k := kernel.NewSim()
	m := New("mx")
	c := m.NewCondition("c")
	var order []int64
	ranks := []int64{50, 10, 30, 20, 40}
	for _, r := range ranks {
		k.Spawn("w", func(p *kernel.Proc) {
			m.Enter(p)
			c.WaitRank(p, r)
			order = append(order, r)
			m.Exit(p)
		})
	}
	k.Spawn("sig", func(p *kernel.Proc) {
		p.Yield() // let all waiters enqueue
		for i := 0; i < len(ranks); i++ {
			m.Enter(p)
			c.Signal(p)
			m.Exit(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[10 20 30 40 50]" {
		t.Fatalf("wakeup order = %v, want ascending rank", order)
	}
}

func TestMinRankAndQueue(t *testing.T) {
	k := kernel.NewSim()
	m := New("mx")
	c := m.NewCondition("c")
	for _, r := range []int64{25, 5} {
		k.Spawn("w", func(p *kernel.Proc) {
			m.Enter(p)
			c.WaitRank(p, r)
			m.Exit(p)
		})
	}
	k.Spawn("check", func(p *kernel.Proc) {
		m.Enter(p)
		if !c.Queue() {
			t.Error("Queue() = false with waiters")
		}
		if r, ok := c.MinRank(); !ok || r != 5 {
			t.Errorf("MinRank = %d,%v, want 5,true", r, ok)
		}
		c.SignalAll(p)
		if c.Queue() {
			t.Error("Queue() = true after SignalAll")
		}
		m.Exit(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUrgentPreferredOverEntry(t *testing.T) {
	k := kernel.NewSim()
	m := New("mx")
	c := m.NewCondition("c")
	var order []string
	k.Spawn("waiter", func(p *kernel.Proc) {
		m.Enter(p)
		c.Wait(p)
		order = append(order, "waiter")
		m.Exit(p) // releases: urgent (signaller) must beat the entrant
	})
	k.Spawn("signaller", func(p *kernel.Proc) {
		m.Enter(p)
		c.Signal(p)
		order = append(order, "signaller")
		m.Exit(p)
	})
	k.Spawn("entrant", func(p *kernel.Proc) {
		p.Yield()
		m.Enter(p) // queued while signaller holds the monitor
		order = append(order, "entrant")
		m.Exit(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[waiter signaller entrant]" {
		t.Fatalf("order = %v", order)
	}
}

func TestMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		body func(m *Monitor, c *Condition, p *kernel.Proc)
		want string // the panic text
	}{
		{"exit-not-occupant", func(m *Monitor, c *Condition, p *kernel.Proc) { m.Exit(p) },
			"monitor mx: bad#1 called Exit while occupant is <nil>"},
		{"wait-outside", func(m *Monitor, c *Condition, p *kernel.Proc) { c.Wait(p) },
			"monitor mx: bad#1 called Wait(c) while occupant is <nil>"},
		{"signal-outside", func(m *Monitor, c *Condition, p *kernel.Proc) { c.Signal(p) },
			"monitor mx: bad#1 called Signal(c) while occupant is <nil>"},
		{"reenter", func(m *Monitor, c *Condition, p *kernel.Proc) { m.Enter(p); m.Enter(p) },
			"monitor mx: bad#1 re-entered (monitors are not reentrant)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := kernel.NewSim()
			m := New("mx")
			c := m.NewCondition("c")
			var recovered any
			k.Spawn("bad", func(p *kernel.Proc) {
				defer func() { recovered = recover() }()
				tc.body(m, c, p)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if recovered != tc.want {
				t.Fatalf("misuse panicked with %v, want %q", recovered, tc.want)
			}
		})
	}
}

func TestDoReleasesOnPanic(t *testing.T) {
	k := kernel.NewSim()
	m := New("mx")
	entered := false
	k.Spawn("panicker", func(p *kernel.Proc) {
		defer func() { recover() }()
		m.Do(p, func() { panic("boom") })
	})
	k.Spawn("next", func(p *kernel.Proc) {
		m.Enter(p)
		entered = true
		m.Exit(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !entered {
		t.Fatal("monitor not released after panic inside Do")
	}
}

// Bounded buffer on a monitor, real kernel with -race: the canonical smoke
// test for condition-variable correctness under true parallelism.
func TestBoundedBufferReal(t *testing.T) {
	k := kernel.NewReal(kernel.WithWatchdog(30 * time.Second))
	m := New("buffer")
	notFull := m.NewCondition("notfull")
	notEmpty := m.NewCondition("notempty")
	const cap = 4
	var buf []int

	const items = 2000
	var got []int
	k.Spawn("producer", func(p *kernel.Proc) {
		for i := 0; i < items; i++ {
			m.Enter(p)
			if len(buf) == cap {
				notFull.Wait(p)
			}
			buf = append(buf, i)
			notEmpty.Signal(p)
			m.Exit(p)
		}
	})
	k.Spawn("consumer", func(p *kernel.Proc) {
		for i := 0; i < items; i++ {
			m.Enter(p)
			if len(buf) == 0 {
				notEmpty.Wait(p)
			}
			got = append(got, buf[0])
			buf = buf[1:]
			notFull.Signal(p)
			m.Exit(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != items {
		t.Fatalf("consumed %d items, want %d", len(got), items)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d (lost or reordered)", i, v)
		}
	}
}

func BenchmarkMonitorEnterExitUncontended(b *testing.B) {
	k := kernel.NewReal()
	m := New("bench")
	done := make(chan struct{})
	k.Spawn("p", func(p *kernel.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Enter(p)
			m.Exit(p)
		}
		close(done)
	})
	<-done
}

func BenchmarkMonitorSignalWaitPingPong(b *testing.B) {
	k := kernel.NewReal(kernel.WithWatchdog(0))
	m := New("bench")
	turnA := m.NewCondition("turnA")
	turnB := m.NewCondition("turnB")
	turn := 0 // 0 = A's turn, 1 = B's turn; strict alternation
	b.ResetTimer()
	k.Spawn("a", func(p *kernel.Proc) {
		for i := 0; i < b.N; i++ {
			m.Enter(p)
			if turn != 0 {
				turnA.Wait(p)
			}
			turn = 1
			turnB.Signal(p)
			m.Exit(p)
		}
	})
	k.Spawn("b", func(p *kernel.Proc) {
		for i := 0; i < b.N; i++ {
			m.Enter(p)
			if turn != 1 {
				turnB.Wait(p)
			}
			turn = 0
			turnA.Signal(p)
			m.Exit(p)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestResetAfterCutRun: a run cut by Stop leaves the monitor occupied,
// an entrant queued and a waiter on a condition. Reset (of the monitor
// and its condition) empties all three, and the monitor works again.
func TestResetAfterCutRun(t *testing.T) {
	k := kernel.NewSim()
	m := New("m")
	c := m.NewCondition("c")
	k.Spawn("waiter", func(p *kernel.Proc) {
		m.Enter(p)
		c.Wait(p)
	})
	k.Spawn("occupant", func(p *kernel.Proc) {
		m.Enter(p)
		p.Yield()
		k.Stop()
		p.Yield()
	})
	k.Spawn("entrant", func(p *kernel.Proc) { m.Enter(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !m.Occupied() || m.EntryWaiting() != 1 || c.Waiting() != 1 {
		t.Fatalf("before Reset: occupied %v, %d entrants, %d waiting", m.Occupied(), m.EntryWaiting(), c.Waiting())
	}
	m.Reset()
	c.Reset()
	if m.Occupied() || m.EntryWaiting() != 0 || c.Waiting() != 0 {
		t.Fatalf("after Reset: occupied %v, %d entrants, %d waiting", m.Occupied(), m.EntryWaiting(), c.Waiting())
	}
	k2 := kernel.NewSim()
	k2.Spawn("again", func(p *kernel.Proc) {
		m.Enter(p)
		c.Signal(p)
		m.Exit(p)
	})
	if err := k2.Run(); err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
}
