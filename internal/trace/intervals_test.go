package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// referenceOverlappingPairs is the all-pairs scan OverlappingPairs
// replaced, kept as its specification: every (earlier, later) pair in
// input order of executions by different processes whose spans
// intersect.
func referenceOverlappingPairs(ivs []Interval) [][2]Interval {
	var out [][2]Interval
	for i := 0; i < len(ivs); i++ {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].ProcID == ivs[j].ProcID {
				continue
			}
			if ivs[i].OverlapsExecution(ivs[j]) {
				out = append(out, [2]Interval{ivs[i], ivs[j]})
			}
		}
	}
	return out
}

// pairSet renders pairs as a sorted list of unordered pairs, so pair
// lists can be compared as sets.
func pairSet(pairs [][2]Interval) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		a, b := p[0].String(), p[1].String()
		if b < a {
			a, b = b, a
		}
		out[i] = a + " | " + b
	}
	sort.Strings(out)
	return out
}

// sameOverlaps compares OverlappingPairs with the reference: pair for
// pair on Intervals' own output when its executions are in Enter order
// (a trace whose sequence numbers increase), and as a set on a shuffled
// copy.
func sameOverlaps(t *testing.T, ivs []Interval, rng *rand.Rand) {
	t.Helper()
	want := referenceOverlappingPairs(ivs)
	got := OverlappingPairs(ivs)
	var enters []int64
	for _, iv := range ivs {
		if iv.Started() {
			enters = append(enters, iv.EnterSeq)
		}
	}
	if slices.IsSorted(enters) {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("overlapping pairs differ:\nreference %v\ngot       %v\nintervals %v", want, got, ivs)
		}
	} else if g, w := pairSet(got), pairSet(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("overlapping pair sets differ:\nreference %v\ngot       %v", w, g)
	}
	shuffled := slices.Clone(ivs)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if g, w := pairSet(OverlappingPairs(shuffled)), pairSet(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("overlapping pairs of a shuffled copy differ:\nreference %v\ngot       %v\nshuffled  %v", w, g, shuffled)
	}
}

// referenceOvertakings is the nested loop every priority judge ran
// before Overtakings, kept as its specification: each pair (w, l) of an
// interval w with a request and an execution l that entered after w's
// request and before w entered (never, for a w still waiting), with some
// release strictly between w's request and l's Enter.
func referenceOvertakings(ivs []Interval, releases []int64) [][2]int {
	var out [][2]int
	for w := range ivs {
		req := ivs[w].RequestSeq
		if req == 0 {
			continue
		}
		end := int64(math.MaxInt64)
		if ivs[w].Started() {
			end = ivs[w].EnterSeq
		}
		for l := range ivs {
			enter := ivs[l].EnterSeq
			if !ivs[l].Started() || enter <= req || enter >= end {
				continue
			}
			for _, r := range releases {
				if r >= enter {
					break
				}
				if r > req {
					out = append(out, [2]int{w, l})
					break
				}
			}
		}
	}
	return out
}

// overtakings collects Overtakings' pairs.
func overtakings(ivs []Interval, releases []int64) [][2]int {
	var out [][2]int
	Overtakings(ivs, releases, func(w, l int) { out = append(out, [2]int{w, l}) })
	return out
}

// exitSeqs is the ascending Exit sequence numbers of ivs: every
// operation's release.
func exitSeqs(ivs []Interval) []int64 {
	var out []int64
	for _, iv := range ivs {
		if iv.ExitSeq != 0 {
			out = append(out, iv.ExitSeq)
		}
	}
	slices.Sort(out)
	return out
}

// overtakingSet renders index pairs as a sorted list of (waiting,
// admitted) interval pairs, so pair lists over differently ordered
// copies of the same intervals can be compared as sets.
func overtakingSet(ivs []Interval, pairs [][2]int) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = ivs[p[0]].String() + " overtaken by " + ivs[p[1]].String()
	}
	sort.Strings(out)
	return out
}

// sameOvertakings compares Overtakings with the reference, taking every
// Exit as a release and, in a second pass, every other one: pair for
// pair on Intervals' own output when its executions are in Enter order,
// and as a set on a shuffled copy.
func sameOvertakings(t *testing.T, ivs []Interval, rng *rand.Rand) {
	t.Helper()
	all := exitSeqs(ivs)
	var some []int64
	for i := 0; i < len(all); i += 2 {
		some = append(some, all[i])
	}
	for _, releases := range [][]int64{all, some} {
		want := referenceOvertakings(ivs, releases)
		got := overtakings(ivs, releases)
		if _, ordered := enterOrdered(ivs); ordered {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("overtakings differ:\nreference %v\ngot       %v\nreleases  %v\nintervals %v", want, got, releases, ivs)
			}
		} else if g, w := overtakingSet(ivs, got), overtakingSet(ivs, want); !reflect.DeepEqual(g, w) {
			t.Fatalf("overtaking sets differ:\nreference %v\ngot       %v", w, g)
		}
		shuffled := slices.Clone(ivs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if g, w := overtakingSet(shuffled, overtakings(shuffled, releases)), overtakingSet(ivs, want); !reflect.DeepEqual(g, w) {
			t.Fatalf("overtakings of a shuffled copy differ:\nreference %v\ngot       %v\nshuffled  %v", w, g, shuffled)
		}
	}
}

func TestIntervalsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	errs, overtaken := 0, 0
	for i := 0; i < 2000; i++ {
		tr := randomTrace(rng)
		ivs, err := referenceIntervals(tr)
		if err != nil {
			errs++
		}
		sameIntervals(t, tr)
		sameOverlaps(t, ivs, rng)
		sameOvertakings(t, ivs, rng)
		if len(referenceOvertakings(ivs, exitSeqs(ivs))) > 0 {
			overtaken++
		}
	}
	if overtaken < 200 {
		t.Fatalf("only %d of 2000 traces have an overtaking; the generator lost its mix", overtaken)
	}
	if errs == 0 || errs > 1000 {
		t.Fatalf("%d of 2000 traces have an unmatched Exit; the generator lost its mix", errs)
	}
}

// FuzzIntervals decodes bytes into a trace, four per event (kind,
// process, op, argument), and requires Intervals to agree with the
// reference without panicking, and OverlappingPairs and Overtakings of
// its output to agree with their all-pairs references: pair for pair,
// and as sets on a shuffled copy.
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
		if ivs, err := tr.Intervals(); err == nil {
			rng := rand.New(rand.NewSource(int64(len(data))))
			sameOverlaps(t, ivs, rng)
			sameOvertakings(t, ivs, rng)
		}
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

// rwClosedTrace is the trace of a closed loop of clients issuing ops
// operations back to back on a readers/writers resource, readFrac of
// them reads: at each step one client, drawn at random, exits its
// operation or begins its next one, a write once nothing executes and a
// read once no write does.
func rwClosedTrace(ops, clients int, readFrac float64, seed int64) Trace {
	rng := rand.New(rand.NewSource(seed))
	active := make([]string, clients) // the executing op, "" when idle
	next := make([]string, clients)   // the op a client waits to begin
	readers, writing := 0, false
	var tr Trace
	add := func(c int, kind Kind, op string) {
		tr = append(tr, Event{Seq: int64(len(tr) + 1), ProcID: c + 1, Proc: fmt.Sprintf("client#%d", c+1), Kind: kind, Op: op})
	}
	for issued, done := 0, 0; done < ops; {
		c := rng.Intn(clients)
		switch op := active[c]; {
		case op != "":
			add(c, KindExit, op)
			active[c] = ""
			done++
			if op == "read" {
				readers--
			} else {
				writing = false
			}
		case next[c] == "" && issued < ops:
			next[c] = "write"
			if rng.Float64() < readFrac {
				next[c] = "read"
			}
			add(c, KindRequest, next[c])
			issued++
		case next[c] == "read" && !writing, next[c] == "write" && !writing && readers == 0:
			add(c, KindEnter, next[c])
			active[c], next[c] = next[c], ""
			if active[c] == "read" {
				readers++
			} else {
				writing = true
			}
		}
	}
	return tr
}

// pairsSink keeps the benchmarked scans' results live.
var pairsSink [][2]Interval

// BenchmarkOverlappingPairs times the exclusion judge's pair scan on a
// 4000-operation closed-loop readers/writers trace of two clients (90%
// reads, the shape of a load run's judged trace) and on 4000 reads by
// eight clients, up to eight executing at once. The -all-pairs rows run
// the all-pairs reference the scan replaced.
func BenchmarkOverlappingPairs(b *testing.B) {
	for _, c := range []struct {
		name string
		ivs  []Interval
	}{
		{"closed-rw-4000", rwClosedTrace(4000, 2, 0.9, 1).MustIntervals()},
		{"overlap-8", rwClosedTrace(4000, 8, 1, 1).MustIntervals()},
	} {
		for _, v := range []struct {
			suffix string
			fn     func([]Interval) [][2]Interval
		}{{"", OverlappingPairs}, {"-all-pairs", referenceOverlappingPairs}} {
			b.Run(c.name+v.suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					pairsSink = v.fn(c.ivs)
				}
			})
		}
	}
}

// overtakingsSink keeps the benchmarked walks' results live.
var overtakingsSink int

// BenchmarkOvertakings times the priority judges' release-window walk
// on BenchmarkOverlappingPairs' traces, every Exit a release. The
// -all-pairs rows run the nested-loop reference the walk replaced.
func BenchmarkOvertakings(b *testing.B) {
	count := func(ivs []Interval, releases []int64) int {
		n := 0
		Overtakings(ivs, releases, func(int, int) { n++ })
		return n
	}
	reference := func(ivs []Interval, releases []int64) int {
		return len(referenceOvertakings(ivs, releases))
	}
	for _, c := range []struct {
		name string
		ivs  []Interval
	}{
		{"closed-rw-4000", rwClosedTrace(4000, 2, 0.9, 1).MustIntervals()},
		{"overlap-8", rwClosedTrace(4000, 8, 1, 1).MustIntervals()},
	} {
		releases := exitSeqs(c.ivs)
		for _, v := range []struct {
			suffix string
			fn     func([]Interval, []int64) int
		}{{"", count}, {"-all-pairs", reference}} {
			b.Run(c.name+v.suffix, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					overtakingsSink = v.fn(c.ivs, releases)
				}
			})
		}
	}
}
