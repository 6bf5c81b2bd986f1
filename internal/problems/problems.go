// Package problems defines the paper's test-problem suite (footnote 2):
//
//	bounded buffer        — local state
//	first-come-first-served resource — request time
//	readers-priority database [8]    — request type + synchronization state
//	disk-head scheduler [13]         — request parameters
//	alarm clock [13]                 — request parameters
//	one-slot buffer [7]              — history
//
// plus the two readers–writers variants the independence analysis needs
// (§4.2): writers-priority and FCFS readers–writers.
//
// Each problem contributes three artifacts:
//
//   - a Spec: the synchronization scheme as core.Constraints with stable
//     IDs (variants share IDs exactly where the paper says the constraints
//     are shared);
//   - a resource interface plus a workload Driver that spawns processes on
//     a kernel and instruments every operation with Request/Enter/Exit
//     events — solutions receive a body callback and invoke it exactly
//     once while the operation is admitted, so the driver does all
//     recording and the oracle judges only observable history;
//   - an oracle Check function mapping a trace to Violations.
//
// Solutions (package solutions/...) implement the interfaces, one per
// mechanism; correctness is never asserted by the solution, only by the
// oracle over its traces.
package problems

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Violation is one oracle finding.
type Violation struct {
	Rule   string // constraint ID or liveness rule violated
	Detail string
	Seq    int64 // trace position, 0 if not applicable
}

func (v Violation) String() string {
	if v.Seq != 0 {
		return fmt.Sprintf("%s @%d: %s", v.Rule, v.Seq, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Rule, v.Detail)
}

// Names of the problems, used as registry keys throughout.
const (
	NameBoundedBuffer   = "bounded-buffer"
	NameFCFS            = "fcfs"
	NameReadersPriority = "readers-priority"
	NameWritersPriority = "writers-priority"
	NameFCFSRW          = "fcfs-rw"
	NameDisk            = "disk-scheduler"
	NameAlarmClock      = "alarm-clock"
	NameOneSlot         = "one-slot-buffer"
)

// AllProblems lists the suite in the paper's order (footnote-2 set first,
// then the variant problems used by the independence analysis).
func AllProblems() []string {
	return []string{
		NameBoundedBuffer,
		NameFCFS,
		NameReadersPriority,
		NameDisk,
		NameAlarmClock,
		NameOneSlot,
		NameWritersPriority,
		NameFCFSRW,
	}
}

// SpecOf returns the scheme for a problem name.
func SpecOf(name string) (core.Scheme, bool) {
	switch name {
	case NameBoundedBuffer:
		return BoundedBufferSpec(), true
	case NameFCFS:
		return FCFSSpec(), true
	case NameReadersPriority:
		return ReadersPrioritySpec(), true
	case NameWritersPriority:
		return WritersPrioritySpec(), true
	case NameFCFSRW:
		return FCFSRWSpec(), true
	case NameDisk:
		return DiskSpec(), true
	case NameAlarmClock:
		return AlarmClockSpec(), true
	case NameOneSlot:
		return OneSlotSpec(), true
	}
	return core.Scheme{}, false
}

// requireIntervals reconstructs intervals or reports an instrumentation
// violation.
func requireIntervals(tr trace.Trace) ([]trace.Interval, []Violation) {
	ivs, err := tr.Intervals()
	if err != nil {
		return nil, []Violation{{Rule: "instrumentation", Detail: err.Error()}}
	}
	return ivs, nil
}

// releaseSeqs returns the ascending sequence numbers of Exit events for
// the given operations — the observable release points at which a
// mechanism makes an admission decision.
func releaseSeqs(tr trace.Trace, ops ...string) []int64 {
	var out []int64
	for _, e := range tr {
		if e.Kind != trace.KindExit {
			continue
		}
		for _, op := range ops {
			if e.Op == op {
				out = append(out, e.Seq) // trace is already in seq order
				break
			}
		}
	}
	return out
}

// overlapViolations reports every overlapping pair (a, b) where the pair
// is forbidden by allowed: allowed(opA, opB) reports whether the two
// operations may execute concurrently.
func overlapViolations(rule string, ivs []trace.Interval, allowed func(a, b string) bool) []Violation {
	var out []Violation
	for _, pair := range trace.OverlappingPairs(ivs) {
		a, b := pair[0], pair[1]
		if allowed(a.Op, b.Op) {
			continue
		}
		out = append(out, Violation{
			Rule:   rule,
			Detail: fmt.Sprintf("%s overlaps %s", a, b),
			Seq:    b.EnterSeq,
		})
	}
	return out
}
