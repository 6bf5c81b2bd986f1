package synth

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/kernel"
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
