package serializer

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
)

func always() bool { return true }

func TestPossessionExclusion(t *testing.T) {
	k := kernel.NewSim(kernel.WithPolicy(kernel.Random(5)))
	s := New("s")
	inside, maxInside := 0, 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *kernel.Proc) {
			for j := 0; j < 6; j++ {
				s.Do(p, func() {
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

// Automatic signalling: an Enqueue waiter resumes as soon as a release
// makes its guarantee true — nobody ever signals.
func TestAutomaticSignalling(t *testing.T) {
	k := kernel.NewSim()
	s := New("s")
	q := s.NewQueue("q")
	ready := false
	var order []string
	k.Spawn("waiter", func(p *kernel.Proc) {
		s.Enter(p)
		q.Enqueue(p, func() bool { return ready })
		order = append(order, "resumed")
		s.Exit(p)
	})
	k.Spawn("setter", func(p *kernel.Proc) {
		s.Enter(p)
		ready = true
		order = append(order, "set")
		s.Exit(p) // release re-evaluates the waiter's guarantee
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[set resumed]" {
		t.Fatalf("order = %v", order)
	}
}

// Only the head of a queue is eligible: a later waiter with a true
// guarantee must not overtake a head with a false one. This head-blocking
// is what makes single-queue FCFS schemes exact (paper §5.2).
func TestQueueHeadBlocksFollowers(t *testing.T) {
	k := kernel.NewSim()
	s := New("s")
	q := s.NewQueue("q")
	headOK := false
	var order []string
	k.Spawn("head", func(p *kernel.Proc) {
		s.Enter(p)
		q.Enqueue(p, func() bool { return headOK })
		order = append(order, "head")
		s.Exit(p)
	})
	k.Spawn("follower", func(p *kernel.Proc) {
		s.Enter(p)
		q.Enqueue(p, always) // true guarantee, but behind head
		order = append(order, "follower")
		s.Exit(p)
	})
	k.Spawn("unblocker", func(p *kernel.Proc) {
		p.Yield()
		s.Enter(p)
		headOK = true
		s.Exit(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[head follower]" {
		t.Fatalf("order = %v, want head before follower", order)
	}
}

// Across queues, the longest-waiting eligible head resumes first.
func TestLongestWaitingHeadAcrossQueues(t *testing.T) {
	k := kernel.NewSim()
	s := New("s")
	q1 := s.NewQueue("q1")
	q2 := s.NewQueue("q2")
	go2 := false
	var order []string
	k.Spawn("first", func(p *kernel.Proc) {
		s.Enter(p)
		q1.Enqueue(p, func() bool { return go2 })
		order = append(order, "first")
		s.Exit(p)
	})
	k.Spawn("second", func(p *kernel.Proc) {
		s.Enter(p)
		q2.Enqueue(p, func() bool { return go2 })
		order = append(order, "second")
		s.Exit(p)
	})
	k.Spawn("release", func(p *kernel.Proc) {
		s.Enter(p)
		go2 = true
		s.Exit(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[first second]" {
		t.Fatalf("order = %v, want arrival order across queues", order)
	}
}

// Crowds: Join releases possession during the body, so crowd members run
// concurrently with serializer occupants and with each other.
func TestCrowdReleasesPossession(t *testing.T) {
	k := kernel.NewSim()
	s := New("s")
	c := s.NewCrowd("readers")
	var order []string
	k.Spawn("member", func(p *kernel.Proc) {
		s.Enter(p)
		c.Join(p, func() {
			order = append(order, "in-crowd")
			p.Yield() // another process takes the serializer meanwhile
			order = append(order, "crowd-done")
		})
		s.Exit(p)
	})
	k.Spawn("other", func(p *kernel.Proc) {
		// FIFO scheduling runs "member" first; it is inside the crowd
		// body (possession released) when we enter.
		s.Enter(p)
		order = append(order, "other-inside")
		s.Exit(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[in-crowd other-inside crowd-done]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestCrowdMembershipTracksJoiners(t *testing.T) {
	k := kernel.NewSim()
	s := New("s")
	c := s.NewCrowd("c")
	var sizes []int
	for i := 0; i < 3; i++ {
		k.Spawn("m", func(p *kernel.Proc) {
			s.Enter(p)
			c.Join(p, func() {
				sizes = append(sizes, c.Size())
				p.Yield()
			})
			s.Exit(p)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 0 {
		t.Fatalf("final crowd size = %d, want 0", c.Size())
	}
	max := 0
	for _, n := range sizes {
		if n > max {
			max = n
		}
	}
	if max < 2 {
		t.Fatalf("max observed crowd size = %d, want >= 2 (members should overlap)", max)
	}
}

// The canonical serializer pattern: writers wait for the crowd to empty.
func TestEmptyGuarantee(t *testing.T) {
	k := kernel.NewSim()
	s := New("s")
	readers := s.NewCrowd("readers")
	wq := s.NewQueue("writers")
	var order []string
	k.Spawn("reader", func(p *kernel.Proc) {
		s.Enter(p)
		readers.Join(p, func() {
			order = append(order, "read-start")
			p.Yield()
			p.Yield()
			order = append(order, "read-end")
		})
		s.Exit(p)
	})
	k.Spawn("writer", func(p *kernel.Proc) {
		s.Enter(p)
		wq.Enqueue(p, readers.EmptyG())
		order = append(order, "write")
		s.Exit(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[read-start read-end write]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		body func(s *Serializer, q *Queue, c *Crowd, p *kernel.Proc)
		want string // the panic text
	}{
		{"exit-not-possessor", func(s *Serializer, q *Queue, c *Crowd, p *kernel.Proc) { s.Exit(p) },
			"serializer s: bad#1 called Exit while possessor is <nil>"},
		{"enqueue-outside", func(s *Serializer, q *Queue, c *Crowd, p *kernel.Proc) { q.Enqueue(p, always) },
			"serializer s: bad#1 called Enqueue(q) while possessor is <nil>"},
		{"join-outside", func(s *Serializer, q *Queue, c *Crowd, p *kernel.Proc) { c.Join(p, func() {}) },
			"serializer s: bad#1 called Join(c) while possessor is <nil>"},
		{"reenter", func(s *Serializer, q *Queue, c *Crowd, p *kernel.Proc) { s.Enter(p); s.Enter(p) },
			"serializer s: bad#1 re-entered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := kernel.NewSim()
			s := New("s")
			q := s.NewQueue("q")
			c := s.NewCrowd("c")
			var recovered any
			k.Spawn("bad", func(p *kernel.Proc) {
				defer func() { recovered = recover() }()
				tc.body(s, q, c, p)
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

func TestUnsatisfiableGuaranteeDeadlocks(t *testing.T) {
	k := kernel.NewSim()
	s := New("s")
	q := s.NewQueue("q")
	k.Spawn("stuck", func(p *kernel.Proc) {
		s.Enter(p)
		q.Enqueue(p, func() bool { return false })
	})
	if err := k.Run(); !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock", err)
	}
}

func TestQueueLen(t *testing.T) {
	k := kernel.NewSim()
	s := New("s")
	q := s.NewQueue("q")
	k.Spawn("w", func(p *kernel.Proc) {
		s.Enter(p)
		// NOTE: guarantees run under the serializer's state lock; they
		// must not call locking accessors like q.Len() (use the *G
		// guarantee helpers for crowd state).
		q.Enqueue(p, func() bool { return false })
	})
	k.Spawn("check", func(p *kernel.Proc) {
		p.Yield()
		if q.Len() != 1 || q.Empty() {
			t.Errorf("Len = %d Empty = %v, want 1,false", q.Len(), q.Empty())
		}
	})
	err := k.Run()
	if !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock (waiter intentionally stuck)", err)
	}
}

// Readers–writers through crowds on the real kernel with -race: crowd
// bookkeeping and possession handoff under true parallelism.
func TestReadersWritersCrowdReal(t *testing.T) {
	k := kernel.NewReal(kernel.WithWatchdog(30 * time.Second))
	s := New("db")
	readers := s.NewCrowd("readers")
	writers := s.NewCrowd("writers")
	wq := s.NewQueue("wq")
	rq := s.NewQueue("rq")

	var mu = make(chan struct{}, 1) // plain channel mutex to check invariants
	mu <- struct{}{}
	activeR, activeW, violations := 0, 0, 0

	enterR := func() {
		<-mu
		activeR++
		if activeW > 0 {
			violations++
		}
		mu <- struct{}{}
	}
	exitR := func() { <-mu; activeR--; mu <- struct{}{} }
	enterW := func() {
		<-mu
		activeW++
		if activeW > 1 || activeR > 0 {
			violations++
		}
		mu <- struct{}{}
	}
	exitW := func() { <-mu; activeW--; mu <- struct{}{} }

	for i := 0; i < 6; i++ {
		k.Spawn("reader", func(p *kernel.Proc) {
			for j := 0; j < 100; j++ {
				s.Enter(p)
				rq.Enqueue(p, writers.EmptyG())
				readers.Join(p, func() {
					enterR()
					p.Yield()
					exitR()
				})
				s.Exit(p)
			}
		})
	}
	for i := 0; i < 2; i++ {
		k.Spawn("writer", func(p *kernel.Proc) {
			for j := 0; j < 50; j++ {
				s.Enter(p)
				wq.Enqueue(p, func() bool {
					return readers.SizeG()() == 0 && writers.SizeG()() == 0
				})
				writers.Join(p, func() {
					enterW()
					p.Yield()
					exitW()
				})
				s.Exit(p)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("exclusion violations = %d", violations)
	}
}

func BenchmarkSerializerEnterExit(b *testing.B) {
	k := kernel.NewReal()
	s := New("bench")
	done := make(chan struct{})
	k.Spawn("p", func(p *kernel.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Enter(p)
			s.Exit(p)
		}
		close(done)
	})
	<-done
}

func BenchmarkSerializerCrowdJoin(b *testing.B) {
	k := kernel.NewReal()
	s := New("bench")
	c := s.NewCrowd("c")
	done := make(chan struct{})
	k.Spawn("p", func(p *kernel.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Enter(p)
			c.Join(p, func() {})
			s.Exit(p)
		}
		close(done)
	})
	<-done
}

// TestResetAfterCutRun: a run cut by Stop leaves a process in a crowd, a
// process queued and the serializer possessed with an entrant waiting.
// Reset empties all of them, and the serializer works again.
func TestResetAfterCutRun(t *testing.T) {
	k := kernel.NewSim()
	s := New("s")
	q := s.NewQueue("q")
	c := s.NewCrowd("c")
	k.Spawn("queued", func(p *kernel.Proc) {
		s.Enter(p)
		q.Enqueue(p, func() bool { return false })
	})
	k.Spawn("member", func(p *kernel.Proc) {
		s.Enter(p)
		c.Join(p, func() {
			p.Yield()
			p.Yield()
		})
	})
	k.Spawn("possessor", func(p *kernel.Proc) {
		s.Enter(p)
		k.Stop()
		p.Yield()
	})
	k.Spawn("entrant", func(p *kernel.Proc) { s.Enter(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Possessed() || q.Len() != 1 || c.Size() != 1 {
		t.Fatalf("before Reset: possessed %v, %d queued, crowd %d", s.Possessed(), q.Len(), c.Size())
	}
	s.Reset()
	if s.Possessed() || q.Len() != 0 || c.Size() != 0 {
		t.Fatalf("after Reset: possessed %v, %d queued, crowd %d", s.Possessed(), q.Len(), c.Size())
	}
	k2 := kernel.NewSim()
	k2.Spawn("again", func(p *kernel.Proc) {
		s.Enter(p)
		c.Join(p, func() {})
		s.Exit(p)
	})
	if err := k2.Run(); err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
}
