package trace

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/kernel"
)

// referenceIntervals is the map-based pairing Intervals replaced, kept
// as the specification the pairing is compared against: per (process,
// op), requests queue first in first out and open executions stack last
// in first out.
func referenceIntervals(t Trace) ([]Interval, error) {
	type key struct {
		proc int
		op   string
	}
	pendingReq := map[key][]Event{} // FIFO of requests awaiting their Enter
	openStack := map[key][]int{}    // indices into out of open intervals
	var out []Interval

	for _, e := range t {
		k := key{e.ProcID, e.Op}
		switch e.Kind {
		case KindRequest:
			pendingReq[k] = append(pendingReq[k], e)
		case KindEnter:
			iv := Interval{
				ProcID:   e.ProcID,
				Proc:     e.Proc,
				Op:       e.Op,
				Arg:      e.Arg,
				HasArg:   e.HasArg,
				EnterSeq: e.Seq,
			}
			if reqs := pendingReq[k]; len(reqs) > 0 {
				iv.RequestSeq = reqs[0].Seq
				if !iv.HasArg && reqs[0].HasArg {
					iv.Arg = reqs[0].Arg
					iv.HasArg = true
				}
				pendingReq[k] = reqs[1:]
			}
			out = append(out, iv)
			openStack[k] = append(openStack[k], len(out)-1)
		case KindExit:
			st := openStack[k]
			if len(st) == 0 {
				return nil, fmt.Errorf("trace: exit without enter: %s", e)
			}
			idx := st[len(st)-1]
			openStack[k] = st[:len(st)-1]
			out[idx].ExitSeq = e.Seq
		case KindMark:
			// annotations do not affect intervals
		}
	}
	waiting := len(out)
	for _, reqs := range pendingReq {
		for _, e := range reqs {
			out = append(out, Interval{
				ProcID:     e.ProcID,
				Proc:       e.Proc,
				Op:         e.Op,
				Arg:        e.Arg,
				HasArg:     e.HasArg,
				RequestSeq: e.Seq,
			})
		}
	}
	sort.Slice(out[waiting:], func(i, j int) bool {
		return out[waiting+i].RequestSeq < out[waiting+j].RequestSeq
	})
	return out, nil
}

// randomTrace draws a trace over 1–8 processes (dense ids, negative ids,
// or ids far apart) and 1–3 ops. Most Enters take a pending request and
// most Exits close an open execution, so the pairing paths dominate, but
// requests left waiting, Enters without a request, nested and crossed
// executions, Exits without an Enter, Marks, and NoArg beside explicit
// zero arguments all occur. Sequence numbers are unique and, as a
// Recorder assigns them, increasing, except in one trace in eight,
// whose numbers are shuffled (request-only intervals are ordered by
// RequestSeq, not by trace position).
func randomTrace(rng *rand.Rand) Trace {
	ids := make([]int, 1+rng.Intn(8))
	for i := range ids {
		switch rng.Intn(4) {
		case 0:
			ids[i] = -1 - rng.Intn(5)
		case 1:
			ids[i] = rng.Intn(1 << 20)
		default:
			ids[i] = i + 1
		}
	}
	ops := []string{"a", "b", "c"}[:1+rng.Intn(3)]
	type key struct {
		proc int
		op   string
	}
	pending, open := map[key]int{}, map[key]int{}
	var t Trace
	seq := int64(0)
	for n := rng.Intn(40); len(t) < n; {
		k := key{ids[rng.Intn(len(ids))], ops[rng.Intn(len(ops))]}
		e := Event{ProcID: k.proc, Proc: fmt.Sprintf("p#%d", k.proc), Op: k.op}
		switch r := rng.Intn(20); {
		case r < 6:
			e.Kind = KindRequest
			pending[k]++
		case r < 12:
			e.Kind = KindEnter
			if pending[k] > 0 {
				pending[k]--
			}
			open[k]++
		case r < 18:
			e.Kind = KindExit
			if open[k] == 0 && rng.Intn(8) != 0 {
				continue // mostly close something that is open
			}
			open[k]--
		default:
			e.Kind = KindMark
			e.Op = ""
			e.Note = "note"
		}
		switch rng.Intn(3) {
		case 0: // NoArg: HasArg false, Arg 0
		case 1:
			e.HasArg = true // explicit zero
		default:
			e.Arg, e.HasArg = int64(rng.Intn(5)), true
		}
		seq += 1 + int64(rng.Intn(2))
		e.Seq = seq
		t = append(t, e)
	}
	if rng.Intn(8) == 0 {
		rng.Shuffle(len(t), func(i, j int) { t[i].Seq, t[j].Seq = t[j].Seq, t[i].Seq })
	}
	return t
}

// sameIntervals compares Intervals and AppendIntervals (onto a non-empty
// prefix) with the reference.
func sameIntervals(t *testing.T, tr Trace) {
	t.Helper()
	want, werr := referenceIntervals(tr)
	got, gerr := tr.Intervals()
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("errors differ: reference %v, Intervals %v\n%s", werr, gerr, tr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("intervals differ:\nreference %v\nIntervals %v\n%s", want, got, tr)
	}
	prefix := []Interval{{Op: "prefix"}}
	app, aerr := tr.AppendIntervals(prefix)
	if (aerr == nil) != (werr == nil) || !reflect.DeepEqual(app[:1], prefix) {
		t.Fatalf("AppendIntervals broke its prefix: %v, %v", app, aerr)
	}
	if werr == nil && !reflect.DeepEqual(app[1:], append([]Interval{}, want...)) {
		t.Fatalf("AppendIntervals differs from the reference:\n%v\n%v", want, app[1:])
	}
	if werr != nil && len(app) != 1 {
		t.Fatalf("AppendIntervals kept %d intervals after an error", len(app)-1)
	}
}

func TestIntervalsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	errs := 0
	for i := 0; i < 2000; i++ {
		tr := randomTrace(rng)
		if _, err := referenceIntervals(tr); err != nil {
			errs++
		}
		sameIntervals(t, tr)
	}
	if errs == 0 || errs > 1000 {
		t.Fatalf("%d of 2000 traces have an unmatched Exit; the generator lost its mix", errs)
	}
}

// FuzzIntervals decodes bytes into a trace, four per event (kind,
// process, op, argument), and requires Intervals to agree with the
// reference without panicking.
func FuzzIntervals(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 0, 2, 1, 0, 0})
	f.Add([]byte{1, 1, 0, 1, 1, 1, 1, 2, 2, 1, 0, 0, 2, 1, 1, 0})
	f.Add([]byte{0, 200, 2, 3, 0, 255, 1, 1, 2, 7, 0, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr Trace
		for i := 0; i+4 <= len(data); i += 4 {
			b := data[i : i+4]
			proc := int(int8(b[1]))
			if b[1]&0x40 != 0 {
				proc = int(binary.BigEndian.Uint16(b[1:3])) << 12
			}
			e := Event{
				Seq:    int64(len(tr)+1) * 2,
				ProcID: proc,
				Proc:   fmt.Sprintf("p#%d", proc),
				Kind:   Kind(b[0] % 5), // 4 is an invalid kind: ignored
				Op:     string(rune('a' + b[2]%3)),
			}
			if b[3]%3 != 0 {
				e.Arg, e.HasArg = int64(b[3]/3), true
			}
			tr = append(tr, e)
		}
		sameIntervals(t, tr)
	})
}

// TestIntervalsCrossedOpsPair pins that pairing is by (process, op), not
// by nesting depth: one process entering a then b and exiting a then b
// is two well-formed intervals, not an error.
func TestIntervalsCrossedOpsPair(t *testing.T) {
	r := run(t, func(r *Recorder, p *kernel.Proc) {
		r.Enter(p, "a", NoArg)
		r.Enter(p, "b", NoArg)
		r.Exit(p, "a", NoArg)
		r.Exit(p, "b", NoArg)
	})
	ivs, err := r.Events().Intervals()
	if err != nil {
		t.Fatalf("crossed Enter/Exit on two ops rejected: %v", err)
	}
	if len(ivs) != 2 || ivs[0].Op != "a" || ivs[0].ExitSeq != 3 || ivs[1].Op != "b" || ivs[1].ExitSeq != 4 {
		t.Fatalf("intervals = %v, want a enter@1 exit@3 and b enter@2 exit@4", ivs)
	}
}

// serialTrace is one process doing n request/enter/exit rounds.
func serialTrace(tb testing.TB, n int) Trace {
	k := kernel.NewSim()
	r := NewRecorder(k)
	k.Spawn("p", func(p *kernel.Proc) {
		for i := 0; i < n; i++ {
			r.Request(p, "op", int64(i))
			r.Enter(p, "op", int64(i))
			r.Exit(p, "op", int64(i))
		}
	})
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
	return r.Events()
}

// inflightTrace is n processes that all Request before any of them
// Enters, so n requests are pending at once.
func inflightTrace(tb testing.TB, n int) Trace {
	k := kernel.NewSim()
	r := NewRecorder(k)
	for i := 0; i < n; i++ {
		k.Spawn("p", func(p *kernel.Proc) {
			r.Request(p, "op", int64(i))
			p.Yield()
			r.Enter(p, "op", NoArg)
			r.Exit(p, "op", NoArg)
		})
	}
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
	return r.Events()
}

func BenchmarkIntervalsReconstruction(b *testing.B) {
	for _, c := range []struct {
		name string
		tr   Trace
	}{
		{"serial-1000", serialTrace(b, 1000)},
		{"inflight-256", inflightTrace(b, 256)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.tr.Intervals(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
