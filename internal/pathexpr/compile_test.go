package pathexpr

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kernel"
)

func TestExecUnconstrainedOp(t *testing.T) {
	set := MustCompile("path a end")
	k := kernel.NewSim()
	ran := false
	k.Spawn("p", func(p *kernel.Proc) {
		set.Exec(p, "unrelated", func() { ran = true })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("unconstrained op did not run")
	}
	if set.Constrained("unrelated") || !set.Constrained("a") {
		t.Fatal("Constrained misreports")
	}
}

// path a end: executions of a are mutually exclusive but unlimited in
// number (the path repeats).
func TestSingleOpPathSerializes(t *testing.T) {
	set := MustCompile("path a end")
	k := kernel.NewSim(kernel.WithPolicy(kernel.Random(9)))
	inside, maxInside, runs := 0, 0, 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *kernel.Proc) {
			for j := 0; j < 5; j++ {
				set.Exec(p, "a", func() {
					inside++
					if inside > maxInside {
						maxInside = inside
					}
					p.Yield()
					inside--
					runs++
				})
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 || runs != 20 {
		t.Fatalf("maxInside=%d runs=%d", maxInside, runs)
	}
}

// path a ; b end: strict alternation starting with a.
func TestSequenceAlternates(t *testing.T) {
	set := MustCompile("path a ; b end")
	k := kernel.NewSim()
	var order []string
	k.Spawn("bproc", func(p *kernel.Proc) {
		for i := 0; i < 3; i++ {
			set.Exec(p, "b", func() { order = append(order, "b") })
		}
	})
	k.Spawn("aproc", func(p *kernel.Proc) {
		for i := 0; i < 3; i++ {
			set.Exec(p, "a", func() { order = append(order, "a") })
			p.Yield()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b a b a b]" {
		t.Fatalf("order = %v, want strict alternation", order)
	}
}

// path {read} , write end: classic readers-writers exclusion.
func TestBurstReadersWriterExclusion(t *testing.T) {
	set := MustCompile("path {read} , write end")
	k := kernel.NewSim(kernel.WithPolicy(kernel.Random(21)))
	readers, writers := 0, 0
	violations := 0
	maxReaders := 0
	for i := 0; i < 4; i++ {
		k.Spawn("reader", func(p *kernel.Proc) {
			for j := 0; j < 6; j++ {
				set.Exec(p, "read", func() {
					readers++
					if writers > 0 {
						violations++
					}
					if readers > maxReaders {
						maxReaders = readers
					}
					p.Yield()
					readers--
				})
			}
		})
	}
	for i := 0; i < 2; i++ {
		k.Spawn("writer", func(p *kernel.Proc) {
			for j := 0; j < 4; j++ {
				set.Exec(p, "write", func() {
					writers++
					if writers > 1 || readers > 0 {
						violations++
					}
					p.Yield()
					writers--
				})
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("violations = %d", violations)
	}
	if maxReaders < 2 {
		t.Fatalf("maxReaders = %d; burst never admitted concurrent readers", maxReaders)
	}
}

// Selection resumes the longest-waiting process (FIFO semaphores): with
// "path a , b end", a blocked a-request queued before a b-request is
// served first.
func TestSelectionLongestWaiting(t *testing.T) {
	set := MustCompile("path a , b end")
	k := kernel.NewSim()
	var order []string
	k.Spawn("holder", func(p *kernel.Proc) {
		set.Exec(p, "a", func() {
			for i := 0; i < 4; i++ {
				p.Yield() // let a-waiter then b-waiter queue up
			}
		})
	})
	k.Spawn("awaiter", func(p *kernel.Proc) {
		set.Exec(p, "a", func() { order = append(order, "a") })
	})
	k.Spawn("bwaiter", func(p *kernel.Proc) {
		p.Yield() // ensure awaiter requests first
		set.Exec(p, "b", func() { order = append(order, "b") })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b]" {
		t.Fatalf("order = %v, want longest-waiting first", order)
	}
}

// An operation constrained by two paths must satisfy both.
func TestConjunctionAcrossPaths(t *testing.T) {
	set := MustCompile("path a ; b end", "path c ; b end")
	k := kernel.NewSim()
	var order []string
	k.Spawn("b", func(p *kernel.Proc) {
		set.Exec(p, "b", func() { order = append(order, "b") })
	})
	k.Spawn("a", func(p *kernel.Proc) {
		p.Yield()
		set.Exec(p, "a", func() { order = append(order, "a") })
	})
	k.Spawn("c", func(p *kernel.Proc) {
		p.Yield()
		p.Yield()
		set.Exec(p, "c", func() { order = append(order, "c") })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// b needs both a and c to have completed.
	if fmt.Sprint(order) != "[a c b]" {
		t.Fatalf("order = %v, want b last", order)
	}
}

func TestDuplicateOpInOnePathRejected(t *testing.T) {
	if _, err := Compile("path a ; a end"); err == nil {
		t.Fatal("duplicate occurrence accepted")
	}
}

func TestSequenceBlocksOutOfOrder(t *testing.T) {
	set := MustCompile("path a ; b end")
	k := kernel.NewSim()
	k.Spawn("b-first", func(p *kernel.Proc) {
		set.Exec(p, "b", func() {})
	})
	if err := k.Run(); !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock (b before a)", err)
	}
}

func TestReset(t *testing.T) {
	set := MustCompile("path a ; b end")
	k := kernel.NewSim()
	k.Spawn("p", func(p *kernel.Proc) {
		set.Exec(p, "a", func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	set.Reset()
	// After reset, b must block again (a has not run in the new epoch).
	k2 := kernel.NewSim()
	k2.Spawn("p", func(p *kernel.Proc) {
		set.Exec(p, "b", func() {})
	})
	if err := k2.Run(); !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("Run after Reset = %v, want deadlock", err)
	}
}

func TestOpsSorted(t *testing.T) {
	set := MustCompile("path z , a end", "path m end")
	ops := set.Ops()
	if fmt.Sprint(ops) != "[a m z]" {
		t.Fatalf("Ops = %v", ops)
	}
}

// Burst of a sequence: "{a ; b}" — each cycle's a;b pair may overlap other
// pairs, but the first entrant opens the burst and the last closes it.
func TestBurstOfSequence(t *testing.T) {
	set := MustCompile("path {a ; b} , c end")
	k := kernel.NewSim()
	var order []string
	k.Spawn("p1", func(p *kernel.Proc) {
		set.Exec(p, "a", func() { order = append(order, "a") })
		set.Exec(p, "b", func() { order = append(order, "b") })
	})
	k.Spawn("cproc", func(p *kernel.Proc) {
		set.Exec(p, "c", func() { order = append(order, "c") })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// c can only run when the a;b burst is closed.
	if fmt.Sprint(order) != "[a b c]" {
		t.Fatalf("order = %v", order)
	}
}

// Real kernel + race detector: the compiled runtime under parallelism.
func TestRuntimeRealKernelStress(t *testing.T) {
	set := MustCompile("path {read} , write end")
	k := kernel.NewReal(kernel.WithWatchdog(30 * time.Second))
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	readers, writers, violations := 0, 0, 0
	for i := 0; i < 6; i++ {
		k.Spawn("reader", func(p *kernel.Proc) {
			for j := 0; j < 200; j++ {
				set.Exec(p, "read", func() {
					<-mu
					readers++
					if writers > 0 {
						violations++
					}
					mu <- struct{}{}
					p.Yield()
					<-mu
					readers--
					mu <- struct{}{}
				})
			}
		})
	}
	for i := 0; i < 2; i++ {
		k.Spawn("writer", func(p *kernel.Proc) {
			for j := 0; j < 100; j++ {
				set.Exec(p, "write", func() {
					<-mu
					writers++
					if writers > 1 || readers > 0 {
						violations++
					}
					mu <- struct{}{}
					<-mu
					writers--
					mu <- struct{}{}
				})
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("violations = %d", violations)
	}
}

func BenchmarkExecSingleOpPath(b *testing.B) {
	set := MustCompile("path a end")
	k := kernel.NewReal()
	done := make(chan struct{})
	k.Spawn("p", func(p *kernel.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set.Exec(p, "a", func() {})
		}
		close(done)
	})
	<-done
}

func BenchmarkExecBurstReader(b *testing.B) {
	set := MustCompile("path {read} , write end")
	k := kernel.NewReal()
	done := make(chan struct{})
	k.Spawn("p", func(p *kernel.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set.Exec(p, "read", func() {})
		}
		close(done)
	})
	<-done
}

// TestResetAfterCutRun: a run cut inside a burst leaves its counter
// raised and the path's root semaphore taken. Reset restores both in
// place, so the other alternative runs at once.
func TestResetAfterCutRun(t *testing.T) {
	set := MustCompile("path {a} , b end")
	k := kernel.NewSim()
	k.Spawn("reader", func(p *kernel.Proc) {
		set.Exec(p, "a", func() {
			k.Stop()
			p.Yield()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	set.Reset()
	k2 := kernel.NewSim()
	k2.Spawn("writer", func(p *kernel.Proc) { set.Exec(p, "b", func() {}) })
	if err := k2.Run(); err != nil {
		t.Fatalf("b after Reset: %v", err)
	}
}
