package synth

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// judgedTrace is one recorded run with the oracle of the program that
// recorded it.
type judgedTrace struct {
	name   string
	oracle explore.Oracle
	tr     trace.Trace
}

// corpusTraces records corpus problems 1..n (Generate(seed), the
// syncfuzz numbering from its default seed) under every mechanism that
// can express them, on the FIFO schedule, and keeps the runs that end
// without a kernel error; with clean set, only those that judge clean.
func corpusTraces(tb testing.TB, n int, clean bool) []judgedTrace {
	tb.Helper()
	var out []judgedTrace
	for seed := int64(1); seed <= int64(n); seed++ {
		set := Generate(seed)
		for _, mech := range Mechanisms() {
			if Supports(mech, set) != nil {
				continue
			}
			prog, oracle, err := Program(set, mech)
			if err != nil {
				tb.Fatal(err)
			}
			k := kernel.NewSim()
			rec := trace.NewRecorder(k)
			prog(k, rec)
			if err := k.Run(); err != nil {
				if errors.Is(err, kernel.ErrDeadlock) {
					continue
				}
				tb.Fatalf("%s/%s: %v", set.Name, mech, err)
			}
			tr := rec.Events()
			if clean && len(oracle(tr)) > 0 {
				continue // the naive-gate control's findings
			}
			out = append(out, judgedTrace{fmt.Sprintf("%s/%s", set.Name, mech), oracle, tr})
		}
	}
	if len(out) == 0 {
		tb.Fatal("no corpus traces")
	}
	return out
}

// BenchmarkSynthCheck is the derived oracle's cost per judged run: the
// compiled oracles of the first 20 corpus problems under every
// mechanism, each judging its own clean trace in turn. Run with
// -benchmem; a warm judgment of a clean trace allocates nothing.
func BenchmarkSynthCheck(b *testing.B) {
	traces := corpusTraces(b, 20, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &traces[i%len(traces)]
		if vs := c.oracle(c.tr); len(vs) != 0 {
			b.Fatalf("%s: %v", c.name, vs)
		}
	}
}

// longTrace records corpus problem seed under mech on the FIFO schedule
// with every class's Rounds scaled until the run records at least events
// events, and returns the scaled set with the trace.
func longTrace(tb testing.TB, seed int64, mech string, events int) (*Set, trace.Trace) {
	tb.Helper()
	set := *Generate(seed)
	set.Classes = slices.Clone(set.Classes)
	ops := 0
	for _, c := range set.Classes {
		ops += c.Ops()
	}
	scale := (events/3 + ops - 1) / ops // three events per operation
	for i := range set.Classes {
		set.Classes[i].Rounds *= scale
	}
	prog, _, err := Program(&set, mech)
	if err != nil {
		tb.Fatal(err)
	}
	k := kernel.NewSim()
	rec := trace.NewRecorder(k)
	prog(k, rec)
	if err := k.Run(); err != nil {
		tb.Fatalf("%s/%s: %v", set.Name, mech, err)
	}
	return &set, rec.Events()
}

// BenchmarkSynthCheckLong is the derived oracle on long traces: corpus
// problem 28 (two older-first priority rules, three history exclusions
// and one on synchronization state), its classes' Rounds scaled until its
// monitor run on the FIFO schedule records about 3000, 6000 and 12000
// events. The rows should grow linearly with the trace. The -reference
// rows judge the same traces by the reference oracle (reference_test.go),
// which rescans every interval per condition and pairs every interval
// with every other.
func BenchmarkSynthCheckLong(b *testing.B) {
	for _, events := range []int{3000, 6000, 12000} {
		set, tr := longTrace(b, 28, "monitor", events)
		j := set.compile()
		if vs := j.check(tr, true); len(vs) != 0 {
			b.Fatalf("%s: %v", set.Name, vs)
		}
		for _, v := range []struct {
			suffix string
			check  func(trace.Trace, bool) []problems.Violation
		}{{"", j.check}, {"-reference", func(tr trace.Trace, strict bool) []problems.Violation {
			return referenceCheck(set, tr, strict)
		}}} {
			b.Run(fmt.Sprintf("events-%d%s", events, v.suffix), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if vs := v.check(tr, true); len(vs) != 0 {
						b.Fatalf("%s: %v", set.Name, vs)
					}
				}
			})
		}
	}
}

// BenchmarkSynthRun is the cost of one generated run on a recycled
// kernel slot, the exploration engine's unit of work: the programs of
// the first 20 corpus problems a mechanism can express, each on its own
// recycling kernel with FIFO scheduling, run in turn — kernel and
// recorder reset, program, Run — one per iteration. One sub-benchmark
// per mechanism; a warm run allocates nothing (TestRecycledRunAllocatesNothing).
func BenchmarkSynthRun(b *testing.B) {
	slots := recycledPrograms(b, 20)
	defer func() {
		for _, s := range slots {
			s.k.Close()
		}
	}()
	for _, mech := range Mechanisms() {
		var runs []*slotRun
		for _, s := range slots {
			if s.mech == mech {
				runs = append(runs, s)
			}
		}
		b.Run(mech, func(b *testing.B) {
			for _, s := range runs {
				s.run() // warm: the first run on a slot builds the program's instance
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runs[i%len(runs)].run(); err != nil && !errors.Is(err, kernel.ErrDeadlock) {
					b.Fatal(err)
				}
			}
		})
	}
}
