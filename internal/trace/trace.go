// Package trace records and analyzes execution histories of synchronized
// resources.
//
// The paper's correctness criteria are statements about *histories*: which
// operation executions overlapped (exclusion constraints) and in what order
// waiting requests were admitted (priority constraints). Solutions therefore
// do not self-certify; they record Request/Enter/Exit events into a
// Recorder, and the problem oracles (package problems) judge the resulting
// trace. This keeps the mechanisms honest: a solution is correct exactly
// when every trace it can produce is admissible.
//
// Event ordering is by sequence number, assigned under a single lock, so a
// trace is a linearization of the instrumented points even under the real
// kernel.
package trace

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/kernel"
)

// NoArg is the sentinel callers pass to Request/Enter/Exit when the
// operation has no argument. It is distinct from a legitimate zero
// argument: events recorded with NoArg carry HasArg == false and Arg == 0,
// while an explicit 0 carries HasArg == true. Interval reconstruction uses
// the bit to decide when an Enter's missing argument may be backfilled
// from its Request.
const NoArg int64 = math.MinInt64

// Kind classifies an event.
type Kind int

const (
	// KindRequest marks a process asking to perform an operation; it is
	// recorded before the synchronization mechanism is consulted. Request
	// order defines "time of request" for FCFS-style priority constraints.
	KindRequest Kind = iota
	// KindEnter marks the operation actually beginning to execute on the
	// resource (the mechanism has admitted the process).
	KindEnter
	// KindExit marks the operation completing.
	KindExit
	// KindMark is a free-form annotation used by examples and tests.
	KindMark
)

func (k Kind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindEnter:
		return "enter"
	case KindExit:
		return "exit"
	case KindMark:
		return "mark"
	}
	return "invalid"
}

// Event is one record in a trace.
type Event struct {
	Seq    int64       // global sequence number, from 1
	Time   kernel.Time // kernel clock at recording
	ProcID int
	Proc   string // process name#id
	Kind   Kind
	Op     string // operation name ("read", "write", "deposit", …)
	Arg    int64  // request parameter (track, wake time, item …); 0 if absent
	HasArg bool   // whether an argument was recorded (false when NoArg was passed)
	Note   string // free-form (KindMark) or extra detail
}

// String formats the event as a fixed-width trace line.
func (e Event) String() string {
	s := fmt.Sprintf("%5d %8d  %-14s %-8s %s", e.Seq, e.Time, e.Proc, e.Kind, e.Op)
	if e.HasArg {
		s += fmt.Sprintf("(%d)", e.Arg)
	}
	if e.Note != "" {
		s += "  # " + e.Note
	}
	return s
}

// cooperativeKernel is the part of kernel.SimKernel the recorder's
// unsynchronized fast path relies on: the step-visibility and
// dependency hooks the exploration engine consumes. Only the SimKernel
// has them, and it is confined to one goroutine at a time (exactly one
// process runs, and the kernel's coroutine switches, which iter.Pull
// reports to the race detector as happens-before edges, order every
// record call), so recording on it needs no lock.
type cooperativeKernel interface {
	MarkStepVisible()
	NoteTraceDep()
}

// Recorder collects events. It is safe for concurrent use; when the
// kernel is the cooperative SimKernel it skips its own lock entirely (the
// kernel's coroutine switches already serialize and order every record
// call). A nil *Recorder records nothing: Request, Enter, Exit and Mark
// on it return the zero Event, so an untraced run passes nil instead of
// checking at every record point.
type Recorder struct {
	k    kernel.Kernel
	coop cooperativeKernel // non-nil: unsynchronized fast path

	// observer, when set, sees every event as it is recorded (streaming
	// oracles hang off this). Called with the recorder's synchronization
	// — i.e. on the recording process's goroutine.
	observer func(Event)

	// ops interns operation-name strings: every event with the same op
	// shares one backing array, so long traces retain O(distinct ops)
	// string bytes and oracle comparisons hit the pointer-equality fast
	// path.
	ops map[string]string

	mu     sync.Mutex
	seq    int64
	events []Event
}

// NewRecorder creates a Recorder stamping events with k's clock. A nil
// kernel is allowed; events then carry time 0.
func NewRecorder(k kernel.Kernel) *Recorder {
	r := &Recorder{k: k, ops: make(map[string]string, 8)}
	if coop, ok := k.(cooperativeKernel); ok {
		r.coop = coop
	}
	return r
}

// SetObserver installs fn to be called with every subsequently recorded
// event, in sequence order, on the recording process's goroutine. A nil
// fn removes the observer. Install before the run starts.
func (r *Recorder) SetObserver(fn func(Event)) { r.observer = fn }

// Reset discards all recorded events, retaining the event buffer and the
// op intern table, so a pooled recorder records in zero-allocation steady
// state. Snapshots obtained earlier become invalid. Reset must not race
// with recording (call it between runs).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq = 0
	r.events = r.events[:0]
}

func (r *Recorder) record(p *kernel.Proc, kind Kind, op string, arg int64, note string) Event {
	if r == nil {
		return Event{}
	}
	if r.coop != nil {
		// Cooperative fast path: exactly one process runs at a time and
		// the kernel's coroutine switches order every access, so the
		// recorder's lock is not needed.
		r.coop.MarkStepVisible()
		r.coop.NoteTraceDep()
		return r.append(p, r.k.Now(), kind, op, arg, note)
	}
	var t kernel.Time
	if r.k != nil {
		t = r.k.Now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.append(p, t, kind, op, arg, note)
}

// append assumes the caller holds r.mu or is on the cooperative fast
// path.
func (r *Recorder) append(p *kernel.Proc, t kernel.Time, kind Kind, op string, arg int64, note string) Event {
	if canonical, ok := r.ops[op]; ok {
		op = canonical
	} else {
		r.ops[op] = op
	}
	hasArg := arg != NoArg
	if !hasArg {
		arg = 0
	}
	r.seq++
	e := Event{
		Seq:    r.seq,
		Time:   t,
		ProcID: p.ID(),
		Proc:   p.String(),
		Kind:   kind,
		Op:     op,
		Arg:    arg,
		HasArg: hasArg,
		Note:   note,
	}
	r.events = append(r.events, e)
	if r.observer != nil {
		r.observer(e)
	}
	return e
}

// Request records that p asked to perform op with the given argument.
// Pass NoArg when the operation has no argument; an explicit 0 is a
// legitimate argument value.
func (r *Recorder) Request(p *kernel.Proc, op string, arg int64) Event {
	return r.record(p, KindRequest, op, arg, "")
}

// Enter records that p began executing op on the resource.
func (r *Recorder) Enter(p *kernel.Proc, op string, arg int64) Event {
	return r.record(p, KindEnter, op, arg, "")
}

// Exit records that p finished executing op.
func (r *Recorder) Exit(p *kernel.Proc, op string, arg int64) Event {
	return r.record(p, KindExit, op, arg, "")
}

// Mark records a free-form annotation.
func (r *Recorder) Mark(p *kernel.Proc, note string) Event {
	return r.record(p, KindMark, "", NoArg, note)
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the recorded events in sequence order.
func (r *Recorder) Events() Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Trace, len(r.events))
	copy(out, r.events)
	return out
}

// Snapshot returns the recorded events without copying.
//
// Aliasing contract: the returned Trace shares the recorder's buffer. It
// is valid only while no further events are recorded and until the next
// Reset; the caller must treat it as read-only and must not append to it.
// Use it where the run is already finished and the trace is consumed
// before the recorder is touched again — the exploration engine's
// judge-then-discard hot path — and Events everywhere the trace outlives
// the recorder.
func (r *Recorder) Snapshot() Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Trace(r.events)
}

// Trace is an ordered event history.
type Trace []Event

// String renders the trace, one event per line.
func (t Trace) String() string {
	var b strings.Builder
	for _, e := range t {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Filter returns the events matching every non-zero criterion: kind (use
// kind < 0 to match all kinds), op ("" matches all ops).
func (t Trace) Filter(kind Kind, op string) Trace {
	var out Trace
	for _, e := range t {
		if kind >= 0 && e.Kind != kind {
			continue
		}
		if op != "" && e.Op != op {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Ops returns the distinct operation names appearing in the trace, in
// first-appearance order.
func (t Trace) Ops() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range t {
		if e.Op == "" || seen[e.Op] {
			continue
		}
		seen[e.Op] = true
		out = append(out, e.Op)
	}
	return out
}
