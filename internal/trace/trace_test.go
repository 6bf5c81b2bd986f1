package trace

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
)

// run executes fn as a single sim-kernel process and returns the recorder.
func run(t *testing.T, fn func(r *Recorder, p *kernel.Proc)) *Recorder {
	t.Helper()
	k := kernel.NewSim()
	r := NewRecorder(k)
	k.Spawn("p", func(p *kernel.Proc) { fn(r, p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRecorderSequencesEvents(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Request(p, "read", 0)
		r.Enter(p, "read", 0)
		r.Exit(p, "read", 0)
	})
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if evs[0].Kind != KindRequest || evs[1].Kind != KindEnter || evs[2].Kind != KindExit {
		t.Fatalf("kinds = %v %v %v", evs[0].Kind, evs[1].Kind, evs[2].Kind)
	}
	if evs[0].Proc != "p#1" {
		t.Fatalf("proc = %q", evs[0].Proc)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Enter(p, "a", 0)
	})
	evs := r.Events()
	evs[0].Op = "mutated"
	if r.Events()[0].Op != "a" {
		t.Fatal("Events exposed internal storage")
	}
}

func TestFilter(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Request(p, "read", 0)
		r.Enter(p, "read", 0)
		r.Request(p, "write", 0)
		r.Exit(p, "read", 0)
	})
	tr := r.Events()
	if got := len(tr.Filter(KindRequest, "")); got != 2 {
		t.Fatalf("requests = %d, want 2", got)
	}
	if got := len(tr.Filter(KindRequest, "write")); got != 1 {
		t.Fatalf("write requests = %d, want 1", got)
	}
	if got := len(tr.Filter(-1, "read")); got != 3 {
		t.Fatalf("read events = %d, want 3", got)
	}
}

func TestOps(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Enter(p, "b", 0)
		r.Enter(p, "a", 0)
		r.Enter(p, "b", 0)
	})
	ops := r.Events().Ops()
	if len(ops) != 2 || ops[0] != "b" || ops[1] != "a" {
		t.Fatalf("ops = %v", ops)
	}
}

func TestIntervalsMatching(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Request(p, "seek", 7)
		r.Enter(p, "seek", 7)
		r.Exit(p, "seek", 7)
		r.Enter(p, "idle", 0) // no request, never exits
	})
	ivs, err := r.Events().Intervals()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2", len(ivs))
	}
	seek := ivs[0]
	if seek.Op != "seek" || seek.Arg != 7 || seek.RequestSeq != 1 || seek.EnterSeq != 2 || seek.ExitSeq != 3 {
		t.Fatalf("seek interval = %+v", seek)
	}
	if !ivs[1].Open() {
		t.Fatal("idle interval should be open")
	}
}

func TestIntervalsArgFromRequest(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Request(p, "seek", 42)
		r.Enter(p, "seek", NoArg) // arg omitted at enter: taken from request
		r.Exit(p, "seek", NoArg)
	})
	ivs := r.Events().MustIntervals()
	if ivs[0].Arg != 42 || !ivs[0].HasArg {
		t.Fatalf("arg = %d (hasArg %v), want 42 (inherited from request)", ivs[0].Arg, ivs[0].HasArg)
	}
}

// Regression: an explicit zero argument at Enter is a legitimate value,
// not "no argument" — it must not be overwritten by the request's arg.
func TestIntervalsExplicitZeroArgNotBackfilled(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Request(p, "seek", 42)
		r.Enter(p, "seek", 0) // an explicit track 0, not an omission
		r.Exit(p, "seek", NoArg)
	})
	ivs := r.Events().MustIntervals()
	if ivs[0].Arg != 0 || !ivs[0].HasArg {
		t.Fatalf("interval = %+v; explicit zero arg was conflated with no-arg", ivs[0])
	}
}

func TestNoArgEventsCarryNoArg(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Request(p, "read", NoArg)
		r.Enter(p, "read", NoArg)
		r.Exit(p, "read", NoArg)
	})
	for _, e := range r.Events() {
		if e.HasArg || e.Arg != 0 {
			t.Fatalf("event %+v: NoArg should record HasArg=false, Arg=0", e)
		}
	}
	ivs := r.Events().MustIntervals()
	if ivs[0].HasArg {
		t.Fatalf("interval %+v: no event carried an arg", ivs[0])
	}
}

// Regression: a Request that never reaches its Enter (a blocked-forever
// waiter, e.g. on a truncated trace) must still appear in interval
// reconstruction as a request-only open interval rather than vanish.
func TestIntervalsEmitRequestOnlyWaiters(t *testing.T) {
	k := kernel.NewSim()
	r := NewRecorder(k)
	k.Spawn("w", func(p *kernel.Proc) {
		r.Request(p, "write", 5)
		r.Enter(p, "write", 5)
		r.Exit(p, "write", NoArg)
	})
	k.Spawn("blocked", func(p *kernel.Proc) {
		r.Request(p, "write", 6)
		// never admitted: the trace is truncated before its Enter
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ivs := r.Events().MustIntervals()
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2 (one executed, one request-only):\n%v", len(ivs), ivs)
	}
	exec, waiter := ivs[0], ivs[1]
	if !exec.Started() || exec.Op != "write" || exec.Arg != 5 {
		t.Fatalf("executed interval = %+v", exec)
	}
	if waiter.Started() || !waiter.Open() || waiter.RequestSeq == 0 || waiter.Arg != 6 || !waiter.HasArg {
		t.Fatalf("request-only interval = %+v", waiter)
	}
	// A never-admitted waiter executes nothing: it overlaps no execution,
	// and contributes no executions or concurrency to Stats.
	if waiter.OverlapsExecution(exec) || exec.OverlapsExecution(waiter) {
		t.Fatal("request-only interval reported as overlapping an execution")
	}
	stats, err := r.Events().Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Executions != 1 || stats[0].MaxConcurrent != 1 {
		t.Fatalf("stats = %+v; request-only interval should not count as an execution", stats)
	}
}

func TestIntervalsRejectsUnmatchedExit(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Exit(p, "read", 0)
	})
	if _, err := r.Events().Intervals(); err == nil {
		t.Fatal("Intervals accepted exit-without-enter")
	}
}

func TestIntervalsNested(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Enter(p, "outer", 0)
		r.Enter(p, "inner", 0)
		r.Exit(p, "inner", 0)
		r.Exit(p, "outer", 0)
	})
	ivs := r.Events().MustIntervals()
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[0].Op != "outer" || ivs[0].ExitSeq != 4 {
		t.Fatalf("outer = %+v", ivs[0])
	}
	if ivs[1].Op != "inner" || ivs[1].ExitSeq != 3 {
		t.Fatalf("inner = %+v", ivs[1])
	}
}

func TestOverlapDetection(t *testing.T) {
	k := kernel.NewSim()
	r := NewRecorder(k)
	// Two processes, interleaved via yields so their executions overlap.
	for i := 0; i < 2; i++ {
		k.Spawn("rw", func(p *kernel.Proc) {
			r.Enter(p, "read", 0)
			p.Yield()
			r.Exit(p, "read", 0)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ivs := r.Events().MustIntervals()
	pairs := OverlappingPairs(ivs)
	if len(pairs) != 1 {
		t.Fatalf("overlapping pairs = %d, want 1\n%s", len(pairs), r.Events())
	}
}

func TestNoOverlapWhenSequential(t *testing.T) {
	r := NewRecorder(nil)
	k := kernel.NewSim()
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *kernel.Proc) {
			r.Enter(p, "write", 0)
			r.Exit(p, "write", 0)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pairs := OverlappingPairs(r.Events().MustIntervals()); len(pairs) != 0 {
		t.Fatalf("sequential executions reported overlapping: %v", pairs)
	}
}

func TestSameProcessNeverOverlapsItself(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Enter(p, "outer", 0)
		r.Enter(p, "inner", 0)
		r.Exit(p, "inner", 0)
		r.Exit(p, "outer", 0)
	})
	if pairs := OverlappingPairs(r.Events().MustIntervals()); len(pairs) != 0 {
		t.Fatalf("self-overlap reported: %v", pairs)
	}
}

func TestTraceStringRendering(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Request(p, "seek", 9)
		r.Mark(p, "hello")
	})
	s := r.Events().String()
	if !strings.Contains(s, "seek(9)") || !strings.Contains(s, "# hello") {
		t.Fatalf("rendering missing fields:\n%s", s)
	}
}

// Property: for any sequence of enter/exit flags on a single op and proc,
// Intervals either errors (on an Exit with no open Enter) or returns one
// interval per Enter, with exits properly paired LIFO.
func TestIntervalsPropertyBalanced(t *testing.T) {
	f := func(flags []bool) bool {
		k := kernel.NewSim()
		r := NewRecorder(k)
		depth := 0
		valid := true
		k.Spawn("p", func(p *kernel.Proc) {
			for _, enter := range flags {
				if enter {
					r.Enter(p, "op", 0)
					depth++
				} else {
					if depth == 0 {
						valid = false
					}
					r.Exit(p, "op", 0)
					if depth > 0 {
						depth--
					}
				}
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		ivs, err := r.Events().Intervals()
		if !valid {
			return err != nil
		}
		if err != nil {
			return false
		}
		enters := 0
		for _, f := range flags {
			if f {
				enters++
			}
		}
		return len(ivs) == enters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecorderEnterExit(b *testing.B) {
	k := kernel.NewReal()
	r := NewRecorder(k)
	done := make(chan struct{})
	k.Spawn("p", func(p *kernel.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Enter(p, "op", 0)
			r.Exit(p, "op", 0)
		}
		close(done)
	})
	<-done
}
