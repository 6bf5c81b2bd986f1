package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Interval is one operation execution — completed, still-open, or never
// admitted — reconstructed from a trace by matching each process's
// Request/Enter/Exit events.
type Interval struct {
	ProcID     int
	Proc       string
	Op         string
	Arg        int64
	HasArg     bool  // whether any matched event carried an argument
	RequestSeq int64 // 0 if the solution did not record a request event
	EnterSeq   int64 // 0 if the request was never admitted by trace end
	ExitSeq    int64 // 0 while the operation is still executing at trace end
}

// Open reports whether the operation had not exited by the end of the trace.
func (iv Interval) Open() bool { return iv.ExitSeq == 0 }

// Started reports whether the operation was admitted (reached Enter). A
// request-only interval — a waiter still blocked at trace end — has
// Started() == false; it waited but never executed.
func (iv Interval) Started() bool { return iv.EnterSeq != 0 }

// OverlapsExecution reports whether the two executions' Enter..Exit spans
// intersect. Open intervals extend to the end of the trace; an interval
// that never started executes nothing and overlaps nothing.
func (iv Interval) OverlapsExecution(other Interval) bool {
	if !iv.Started() || !other.Started() {
		return false
	}
	aEnd, bEnd := iv.ExitSeq, other.ExitSeq
	if iv.Open() {
		aEnd = int64(^uint64(0) >> 1)
	}
	if other.Open() {
		bEnd = int64(^uint64(0) >> 1)
	}
	return iv.EnterSeq < bEnd && other.EnterSeq < aEnd
}

func (iv Interval) String() string {
	arg := ""
	if iv.HasArg {
		arg = fmt.Sprintf("(%d)", iv.Arg)
	}
	return fmt.Sprintf("%s %s%s req@%d enter@%d exit@%d", iv.Proc, iv.Op, arg, iv.RequestSeq, iv.EnterSeq, iv.ExitSeq)
}

// Intervals reconstructs operation executions from the trace. Matching is
// per (process, op): a Request is attached to the next Enter with the
// same process and op, first in first out; an Exit closes the most
// recent open Enter with the same process and op, last in first out, so
// properly nested executions are supported. Executions of different ops
// are never matched against each other, so crossed executions on one
// process (Enter a, Enter b, Exit a, Exit b) pair without error.
// Requests that never reached an Enter — waiters still blocked at trace
// end — are emitted as request-only intervals (EnterSeq == 0, Started()
// false), so FCFS-style oracles can see overtaken processes that never
// got in. The result is ordered by Enter, with request-only intervals
// appended at the end in RequestSeq order. An Exit with no open Enter of
// the same process and op is an error: it indicates an instrumentation
// bug in a solution.
func (t Trace) Intervals() ([]Interval, error) {
	ivs, err := t.AppendIntervals(nil)
	if err != nil {
		return nil, err
	}
	return ivs, nil
}

// AppendIntervals is Intervals appending to dst, so a caller that judges
// many traces can reuse one buffer. On error it returns dst unchanged.
// The pairing state comes from a pool, so a call into a buffer that
// already has room allocates nothing.
func (t Trace) AppendIntervals(dst []Interval) ([]Interval, error) {
	pr := pairers.Get().(*pairer)
	dst, err := pr.pair(t, dst)
	pr.reset()
	pairers.Put(pr)
	return dst, err
}

var pairers = sync.Pool{New: func() any { return new(pairer) }}

// pairer holds the matching state of one AppendIntervals call. Each
// (process, op) pair gets a key; a process's keys form a list found
// through byProc, indexed by ProcID (both kernels number processes
// densely from 1), or through far for ids outside byProc's range. A
// key's pending requests are a queue linked through reqs and its open
// executions a stack linked through below, so every event costs the
// same however many operations are in flight.
type pairer struct {
	byProc []int       // ProcID -> 1 + index of the process's first key; 0: none
	far    map[int]int // the same, for ProcIDs outside byProc
	keys   []pairKey
	reqs   []pendingReq // every Request event, in trace order
	below  []int        // per appended interval: the open one beneath it on its key's stack
}

type pairKey struct {
	proc       int
	op         string
	next       int // the process's next key, -1 at the end
	head, tail int // pending requests, oldest first; -1 when none
	top        int // innermost open interval (offset from the call's first), -1 when none
}

type pendingReq struct {
	ev    int // index of the Request event in the trace
	next  int // next pending request of the same key, -1 at the end
	taken bool
}

func (pr *pairer) pair(t Trace, dst []Interval) ([]Interval, error) {
	// Every process that records has at least one event; the headroom
	// covers low ids taken by processes that record nothing.
	if n := len(t) + 16; cap(pr.byProc) < n {
		pr.byProc = make([]int, n)
	} else {
		pr.byProc = pr.byProc[:n] // zero: reset clears what it set
	}
	base := len(dst)
	for i := range t {
		e := &t[i]
		switch e.Kind {
		case KindRequest:
			k := pr.key(e.ProcID, e.Op)
			r := len(pr.reqs)
			pr.reqs = append(pr.reqs, pendingReq{ev: i, next: -1})
			if k.tail < 0 {
				k.head = r
			} else {
				pr.reqs[k.tail].next = r
			}
			k.tail = r
		case KindEnter:
			k := pr.key(e.ProcID, e.Op)
			iv := Interval{
				ProcID:   e.ProcID,
				Proc:     e.Proc,
				Op:       e.Op,
				Arg:      e.Arg,
				HasArg:   e.HasArg,
				EnterSeq: e.Seq,
			}
			if k.head >= 0 {
				r := &pr.reqs[k.head]
				r.taken = true
				req := &t[r.ev]
				iv.RequestSeq = req.Seq
				if !iv.HasArg && req.HasArg {
					iv.Arg = req.Arg
					iv.HasArg = true
				}
				k.head = r.next
				if k.head < 0 {
					k.tail = -1
				}
			}
			dst = append(dst, iv)
			pr.below = append(pr.below, k.top)
			k.top = len(dst) - 1 - base
		case KindExit:
			k := pr.key(e.ProcID, e.Op)
			if k.top < 0 {
				return dst[:base], fmt.Errorf("trace: exit without enter: %s", *e)
			}
			dst[base+k.top].ExitSeq = e.Seq
			k.top = pr.below[k.top]
		case KindMark:
			// annotations do not affect intervals
		}
	}
	// Blocked-forever waiters: requests with no matching Enter become
	// request-only intervals so they stay visible to priority oracles.
	waiting := len(dst)
	for _, r := range pr.reqs {
		if r.taken {
			continue
		}
		e := &t[r.ev]
		dst = append(dst, Interval{
			ProcID:     e.ProcID,
			Proc:       e.Proc,
			Op:         e.Op,
			Arg:        e.Arg,
			HasArg:     e.HasArg,
			RequestSeq: e.Seq,
		})
	}
	slices.SortStableFunc(dst[waiting:], func(a, b Interval) int {
		return cmp.Compare(a.RequestSeq, b.RequestSeq)
	})
	return dst, nil
}

// key returns the (proc, op) key, adding it on first sight.
func (pr *pairer) key(proc int, op string) *pairKey {
	dense := uint(proc) < uint(len(pr.byProc))
	var first int
	if dense {
		first = pr.byProc[proc]
	} else {
		first = pr.far[proc]
	}
	last := -1
	for ki := first - 1; ki >= 0; ki = pr.keys[ki].next {
		if pr.keys[ki].op == op {
			return &pr.keys[ki]
		}
		last = ki
	}
	ki := len(pr.keys)
	pr.keys = append(pr.keys, pairKey{proc: proc, op: op, next: -1, head: -1, tail: -1, top: -1})
	switch {
	case last >= 0:
		pr.keys[last].next = ki
	case dense:
		pr.byProc[proc] = ki + 1
	default:
		if pr.far == nil {
			pr.far = map[int]int{}
		}
		pr.far[proc] = ki + 1
	}
	return &pr.keys[ki]
}

// reset clears the state of one call, keeping every buffer.
func (pr *pairer) reset() {
	for i := range pr.keys {
		if p := pr.keys[i].proc; uint(p) < uint(len(pr.byProc)) {
			pr.byProc[p] = 0
		}
	}
	clear(pr.far)
	pr.keys = pr.keys[:0]
	pr.reqs = pr.reqs[:0]
	pr.below = pr.below[:0]
}

// MustIntervals is Intervals panicking on malformed traces; for use in
// tests and benchmarks where instrumentation is known good.
func (t Trace) MustIntervals() []Interval {
	ivs, err := t.Intervals()
	if err != nil {
		panic(err)
	}
	return ivs
}

// OverlappingPairs returns every pair of executions whose Enter..Exit spans
// intersect, excluding pairs executed by the same process (a process cannot
// overlap itself; nested instrumentation would be reported spuriously).
//
// The scan relies on Intervals' order, executions by Enter and request-only
// intervals last: from each execution it walks forward only while the next
// one entered before this one exited, so it costs O(n + pairs) rather than
// comparing every pair. For input in that order a pair is (earlier, later)
// in input order, and pairs come by their first member, then their second.
// Input in any other order is sorted by Enter first, which yields the same
// set of pairs.
func OverlappingPairs(ivs []Interval) [][2]Interval {
	ivs = executions(ivs)
	var out [][2]Interval
	for i := range ivs {
		a := &ivs[i]
		end := a.ExitSeq
		if a.Open() {
			end = math.MaxInt64
		}
		for j := i + 1; j < len(ivs) && ivs[j].EnterSeq < end; j++ {
			// Every later execution entered later still, so the first
			// one entering at or after end ends the walk.
			if b := &ivs[j]; a.ProcID != b.ProcID && a.OverlapsExecution(*b) {
				out = append(out, [2]Interval{*a, *b})
			}
		}
	}
	return out
}

// executions returns the executions among ivs in ascending Enter order:
// ivs' prefix of executions when ivs is in Intervals' order, otherwise a
// sorted copy of them.
func executions(ivs []Interval) []Interval {
	if n, ok := enterOrdered(ivs); ok {
		return ivs[:n]
	}
	var out []Interval
	for _, iv := range ivs {
		if iv.Started() {
			out = append(out, iv)
		}
	}
	slices.SortStableFunc(out, func(a, b Interval) int {
		return cmp.Compare(a.EnterSeq, b.EnterSeq)
	})
	return out
}

// enterOrdered returns the length n of ivs' longest prefix of executions
// in ascending Enter order, and whether that prefix holds every
// execution, as it does in Intervals' order.
//
// It reads EnterSeq rather than calling Started: an Interval is too large
// to copy into a value receiver for free, and this runs per judgment.
func enterOrdered(ivs []Interval) (n int, ok bool) {
	for n < len(ivs) && ivs[n].EnterSeq != 0 && (n == 0 || ivs[n-1].EnterSeq <= ivs[n].EnterSeq) {
		n++
	}
	for i := n; i < len(ivs); i++ {
		if ivs[i].EnterSeq != 0 {
			return n, false
		}
	}
	return n, true
}

// Overtakings is the release-window walk every priority judge runs. It
// calls yield(w, l), with indices into ivs, for each interval w that
// recorded a request and each execution l that entered after the first
// release following w's request and before w entered: an admission the
// mechanism decided while w was waiting. A w never admitted waits to the
// end of the trace. releases holds the release points' sequence numbers
// (the Exits the judge counts as admission decisions) in ascending order.
//
// A grant is not observable in a trace: the mechanism hands the resource
// over at a release, and the admitted process records its Enter when it
// next runs. So an admission counts against w only if some release fell
// after w's request and before the admission; before that release the
// decision predates w.
//
// Like OverlappingPairs, the walk relies on Intervals' order: w's window
// is a run of consecutive executions, found by binary search, so each w
// costs O(log n) plus its pairs rather than a scan of every interval. For
// input in that order pairs come by w in input order, then by l's Enter,
// which is the order of the nested loop over all pairs; input in any
// other order is walked through its executions sorted by Enter, which
// yields the same set of pairs.
func Overtakings(ivs []Interval, releases []int64, yield func(waiting, admitted int)) {
	n, ok := enterOrdered(ivs)
	var order []int // the executions' indices by Enter; nil: ivs[:n]
	if !ok {
		for i := range ivs {
			if ivs[i].EnterSeq != 0 {
				order = append(order, i)
			}
		}
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Compare(ivs[a].EnterSeq, ivs[b].EnterSeq)
		})
		n = len(order)
	}
	exec := func(k int) int {
		if order == nil {
			return k
		}
		return order[k]
	}
	for w := range ivs {
		req := ivs[w].RequestSeq
		if req == 0 {
			continue
		}
		r := sort.Search(len(releases), func(k int) bool { return releases[k] > req })
		if r == len(releases) {
			continue // no release since the request: nothing was decided
		}
		lo := sort.Search(n, func(k int) bool { return ivs[exec(k)].EnterSeq > releases[r] })
		hi := n
		if enter := ivs[w].EnterSeq; enter != 0 {
			hi = lo + sort.Search(n-lo, func(k int) bool { return ivs[exec(lo+k)].EnterSeq >= enter })
		}
		for k := lo; k < hi; k++ {
			yield(w, exec(k))
		}
	}
}
