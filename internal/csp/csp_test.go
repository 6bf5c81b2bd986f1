package csp

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
)

func TestSendRecvRendezvous(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	ch := n.NewChan("c")
	var got any
	k.Spawn("recv", func(p *kernel.Proc) { got = ch.Recv(p) })
	k.Spawn("send", func(p *kernel.Proc) { ch.Send(p, 42) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got = %v", got)
	}
}

func TestSendBlocksUntilReceiver(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	ch := n.NewChan("c")
	var order []string
	k.Spawn("send", func(p *kernel.Proc) {
		order = append(order, "sending")
		ch.Send(p, 1)
		order = append(order, "sent")
	})
	k.Spawn("recv", func(p *kernel.Proc) {
		order = append(order, "recv")
		ch.Recv(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[sending recv sent]" {
		t.Fatalf("order = %v", order)
	}
}

func TestRecvBlocksUntilSender(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	ch := n.NewChan("c")
	k.Spawn("recv", func(p *kernel.Proc) { ch.Recv(p) })
	if err := k.Run(); !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock", err)
	}
}

func TestSendersPairFIFO(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	ch := n.NewChan("c")
	var got []any
	for i := 1; i <= 3; i++ {
		k.Spawn("send", func(p *kernel.Proc) { ch.Send(p, p.ID()) })
	}
	k.Spawn("recv", func(p *kernel.Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, ch.Recv(p))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("receive order = %v, want sender FIFO", got)
	}
}

func TestReceiversPairFIFO(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	ch := n.NewChan("c")
	var got []string
	for i := 0; i < 3; i++ {
		k.Spawn("recv", func(p *kernel.Proc) {
			v := ch.Recv(p)
			got = append(got, fmt.Sprintf("%d<-%v", p.ID(), v))
		})
	}
	k.Spawn("send", func(p *kernel.Proc) {
		for i := 1; i <= 3; i++ {
			ch.Send(p, i*10)
			p.Yield() // let the receiver record before the next send
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1<-10 2<-20 3<-30]" {
		t.Fatalf("pairing = %v, want receiver FIFO", got)
	}
}

func TestSelectPrefersLongestWaitingSender(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	a := n.NewChan("a")
	b := n.NewChan("b")
	var got []any
	k.Spawn("sendB", func(p *kernel.Proc) { b.Send(p, "b") })
	k.Spawn("sendA", func(p *kernel.Proc) { a.Send(p, "a") })
	k.Spawn("server", func(p *kernel.Proc) {
		for i := 0; i < 2; i++ {
			_, v := Select(p, []Case{{Chan: a}, {Chan: b}})
			got = append(got, v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// sendB spawned (and blocked) first, so "b" must be served first even
	// though channel a is listed first.
	if fmt.Sprint(got) != "[b a]" {
		t.Fatalf("service order = %v, want longest-waiting first", got)
	}
}

func TestSelectGuardsDisableAlternatives(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	a := n.NewChan("a")
	b := n.NewChan("b")
	allowA := false
	var got []any
	k.Spawn("sendA", func(p *kernel.Proc) { a.Send(p, "a") })
	k.Spawn("sendB", func(p *kernel.Proc) { p.Yield(); b.Send(p, "b") })
	k.Spawn("server", func(p *kernel.Proc) {
		for i := 0; i < 2; i++ {
			_, v := Select(p, []Case{
				{Chan: a, Guard: func() bool { return allowA }},
				{Chan: b},
			})
			got = append(got, v)
			allowA = true
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Despite "a" waiting longer, its guard is false for the first
	// selection, so "b" is served first.
	if fmt.Sprint(got) != "[b a]" {
		t.Fatalf("service order = %v", got)
	}
}

func TestSelectBlocksThenWakes(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	a := n.NewChan("a")
	b := n.NewChan("b")
	var got any
	var idx int
	k.Spawn("server", func(p *kernel.Proc) {
		idx, got = Select(p, []Case{{Chan: a}, {Chan: b}})
	})
	k.Spawn("send", func(p *kernel.Proc) { b.Send(p, 7) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 || got != 7 {
		t.Fatalf("Select = %d,%v", idx, got)
	}
}

// A parked selector claimed by one channel must not be claimable by a
// second sender on another channel; the second send pairs with the next
// receive instead.
func TestSelectClaimedOnceOnly(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	a := n.NewChan("a")
	b := n.NewChan("b")
	var first any
	var second any
	k.Spawn("server", func(p *kernel.Proc) {
		_, first = Select(p, []Case{{Chan: a}, {Chan: b}})
		second = a.Recv(p)
	})
	k.Spawn("sendB", func(p *kernel.Proc) { b.Send(p, "fromB") })
	k.Spawn("sendA", func(p *kernel.Proc) { a.Send(p, "fromA") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first != "fromB" || second != "fromA" {
		t.Fatalf("first=%v second=%v", first, second)
	}
}

func TestSelectAllGuardsFalsePanics(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	a := n.NewChan("a")
	var recovered any
	k.Spawn("server", func(p *kernel.Proc) {
		defer func() { recovered = recover() }()
		Select(p, []Case{{Chan: a, Guard: func() bool { return false }}})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatal("alternation failure did not panic")
	}
}

func TestSelectAcrossNetsPanics(t *testing.T) {
	k := kernel.NewSim()
	n1, n2 := NewNet(), NewNet()
	a := n1.NewChan("a")
	b := n2.NewChan("b")
	var recovered any
	k.Spawn("server", func(p *kernel.Proc) {
		defer func() { recovered = recover() }()
		Select(p, []Case{{Chan: a}, {Chan: b}})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recovered == nil {
		t.Fatal("cross-net Select did not panic")
	}
}

func TestPending(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	ch := n.NewChan("c")
	k.Spawn("s1", func(p *kernel.Proc) { ch.Send(p, 1) })
	k.Spawn("s2", func(p *kernel.Proc) { ch.Send(p, 2) })
	k.Spawn("check", func(p *kernel.Proc) {
		if ch.Pending() != 2 {
			t.Errorf("Pending = %d, want 2", ch.Pending())
		}
		ch.Recv(p)
		ch.Recv(p)
		if ch.Pending() != 0 {
			t.Errorf("Pending = %d, want 0", ch.Pending())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoCallRoundTrip(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	svc := n.NewChan("double")
	k.Spawn("server", func(p *kernel.Proc) {
		for i := 0; i < 2; i++ {
			call := svc.Recv(p).(Call)
			call.Reply(p, call.Arg.(int)*2)
		}
	})
	var r1, r2 any
	k.Spawn("client1", func(p *kernel.Proc) { r1 = n.DoCall(p, svc, 21) })
	k.Spawn("client2", func(p *kernel.Proc) { r2 = n.DoCall(p, svc, 100) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r1 != 42 || r2 != 200 {
		t.Fatalf("replies = %v, %v", r1, r2)
	}
}

// Real kernel with -race: a CSP server serializing a counter under
// genuine parallelism.
func TestServerRealKernelStress(t *testing.T) {
	k := kernel.NewReal(kernel.WithWatchdog(30 * time.Second))
	n := NewNet()
	incr := n.NewChan("incr")
	read := n.NewChan("read")
	stop := n.NewChan("stop")
	k.Spawn("server", func(p *kernel.Proc) {
		counter := 0
		for {
			idx, v := Select(p, []Case{{Chan: incr}, {Chan: read}, {Chan: stop}})
			switch idx {
			case 0:
				counter++
			case 1:
				v.(Call).Reply(p, counter)
			case 2:
				return
			}
		}
	})
	const clients, rounds = 8, 200
	done := n.NewChan("done")
	for i := 0; i < clients; i++ {
		k.Spawn("client", func(p *kernel.Proc) {
			for j := 0; j < rounds; j++ {
				incr.Send(p, nil)
			}
			done.Send(p, nil)
		})
	}
	var final any
	k.Spawn("controller", func(p *kernel.Proc) {
		for i := 0; i < clients; i++ {
			done.Recv(p)
		}
		final = n.DoCall(p, read, nil)
		stop.Send(p, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if final != clients*rounds {
		t.Fatalf("counter = %v, want %d", final, clients*rounds)
	}
}

func BenchmarkSendRecvPingPong(b *testing.B) {
	k := kernel.NewReal(kernel.WithWatchdog(0))
	n := NewNet()
	ping := n.NewChan("ping")
	pong := n.NewChan("pong")
	b.ResetTimer()
	k.Spawn("a", func(p *kernel.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Send(p, i)
			pong.Recv(p)
		}
	})
	k.Spawn("b", func(p *kernel.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Recv(p)
			pong.Send(p, i)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkSelectTwoChannels(b *testing.B) {
	k := kernel.NewReal(kernel.WithWatchdog(0))
	n := NewNet()
	a := n.NewChan("a")
	c := n.NewChan("c")
	b.ResetTimer()
	k.Spawn("server", func(p *kernel.Proc) {
		for i := 0; i < b.N; i++ {
			Select(p, []Case{{Chan: a}, {Chan: c}})
		}
	})
	k.Spawn("client", func(p *kernel.Proc) {
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				a.Send(p, i)
			} else {
				c.Send(p, i)
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestResetAfterDeadlock: a run that deadlocks leaves a sender blocked on
// one channel and a selector registered on two. Resetting the net and
// its channels drops every waiter, and the channels work again.
func TestResetAfterDeadlock(t *testing.T) {
	k := kernel.NewSim()
	n := NewNet()
	a, b, c := n.NewChan("a"), n.NewChan("b"), n.NewChan("c")
	k.Spawn("sender", func(p *kernel.Proc) { a.Send(p, 1) })
	k.Spawn("selector", func(p *kernel.Proc) { Select(p, []Case{{Chan: b}, {Chan: c}}) })
	if err := k.Run(); !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock", err)
	}
	if a.Pending() != 1 {
		t.Fatalf("before Reset: %d pending on a, want 1", a.Pending())
	}
	n.Reset()
	for _, ch := range []*Chan{a, b, c} {
		ch.Reset()
	}
	if a.Pending() != 0 || len(b.receivers) != 0 || len(c.receivers) != 0 {
		t.Fatalf("after Reset: %d pending on a, %d and %d receivers on b and c", a.Pending(), len(b.receivers), len(c.receivers))
	}
	k2 := kernel.NewSim()
	var got []any
	k2.Spawn("recv", func(p *kernel.Proc) {
		got = append(got, b.Recv(p))
		_, v := Select(p, []Case{{Chan: a}, {Chan: c}})
		got = append(got, v)
	})
	k2.Spawn("send", func(p *kernel.Proc) {
		b.Send(p, "x")
		c.Send(p, "y")
	})
	if err := k2.Run(); err != nil {
		t.Fatalf("run after Reset: %v", err)
	}
	if fmt.Sprint(got) != "[x y]" {
		t.Fatalf("received %v, want [x y]", got)
	}
}
