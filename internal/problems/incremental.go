package problems

import (
	"fmt"

	"repro/internal/trace"
)

// Streaming oracles. The batch oracles (CheckReadersPriority and friends)
// judge a completed trace; exploration runs hundreds of thousands of
// schedules through them, and a violating run keeps executing — and
// copying its whole trace — long after the violation is already in the
// history. A StreamChecker observes events as they are recorded, so the
// exploration engine can stop a violating run at the first violation
// (kernel.SimKernel.Stop) with the partial trace as evidence.
//
// A streaming checker must agree with its batch oracle on complete
// traces: same violations at the same sequence numbers (details may be
// phrased differently). Both views charge admissions against favored
// requests that never got admitted — the streaming checker as the events
// arrive, the batch oracle via the request-only intervals that interval
// reconstruction emits for blocked-forever waiters — so early exit loses
// no findings on truncated traces. TestStreamMatchesBatch pins the
// agreement.

// StreamChecker observes a trace event by event, in sequence order, and
// reports violations as soon as they are observable. Reset returns the
// checker to its initial state for reuse across runs.
type StreamChecker interface {
	Observe(e trace.Event) []Violation
	Reset()
}

// IncrementalOracle couples a problem's batch oracle with a streaming
// refinement: Check judges completed traces (the explore.Oracle shape);
// New builds a fresh per-run StreamChecker enabling early exit.
type IncrementalOracle struct {
	Check func(tr trace.Trace) []Violation
	New   func() StreamChecker
}

// IncrementalOracleFor returns the streaming oracle for problems that
// have one: the readers/writers-priority pair the schedule explorer
// hunts. The second result is false for problems without a streaming
// refinement (their batch oracle remains the only judge).
func IncrementalOracleFor(problem string) (IncrementalOracle, bool) {
	switch problem {
	case NameReadersPriority:
		return IncrementalOracle{
			Check: CheckReadersPriority,
			New: func() StreamChecker {
				return newOvertakingStream(OpRead, OpWrite, "readers-priority")
			},
		}, true
	case NameWritersPriority:
		return IncrementalOracle{
			Check: CheckWritersPriority,
			New: func() StreamChecker {
				return newOvertakingStream(OpWrite, OpRead, "writers-priority")
			},
		}, true
	}
	return IncrementalOracle{}, false
}

// pendingReq is one favored request awaiting admission.
type pendingReq struct {
	procID int
	proc   string
	reqSeq int64
}

// overtakingStream is the streaming form of noOvertaking: a loser
// admission is a violation exactly when some favored request is still
// waiting and a release (any read/write exit) has occurred since that
// request — the release-window rule the batch oracle applies through
// trace.Overtakings, evaluated at the loser's Enter event as the events
// arrive instead of over reconstructed intervals. It is the rule's
// early-exit form, so it keeps its own bookkeeping.
type overtakingStream struct {
	favored, loser, rule string

	pending  []pendingReq // favored requests not yet admitted, FIFO
	lastExit int64        // highest release (exit) seq seen so far
}

func newOvertakingStream(favored, loser, rule string) *overtakingStream {
	return &overtakingStream{favored: favored, loser: loser, rule: rule}
}

// Reset implements StreamChecker.
func (s *overtakingStream) Reset() {
	s.pending = s.pending[:0]
	s.lastExit = 0
}

// Observe implements StreamChecker.
func (s *overtakingStream) Observe(e trace.Event) []Violation {
	switch e.Kind {
	case trace.KindRequest:
		if e.Op == s.favored {
			s.pending = append(s.pending, pendingReq{procID: e.ProcID, proc: e.Proc, reqSeq: e.Seq})
		}
		return nil
	case trace.KindExit:
		// Any exit of either operation is a release point at which the
		// mechanism makes an admission decision (cf. releaseSeqs).
		if e.Op == OpRead || e.Op == OpWrite {
			s.lastExit = e.Seq
		}
		return nil
	case trace.KindEnter:
		if e.Op == s.favored {
			// Admitted: its request is no longer waiting. Per-process
			// requests are FIFO (one outstanding request at a time), so
			// the first match is the right one.
			for i, p := range s.pending {
				if p.procID == e.ProcID {
					s.pending = append(s.pending[:i], s.pending[i+1:]...)
					break
				}
			}
			return nil
		}
		if e.Op != s.loser {
			return nil
		}
		var out []Violation
		for _, p := range s.pending {
			if s.lastExit > p.reqSeq {
				out = append(out, Violation{
					Rule: s.rule,
					Detail: fmt.Sprintf("%s %s admitted while %s %s was waiting (requested @%d)",
						e.Proc, e.Op, p.proc, s.favored, p.reqSeq),
					Seq: e.Seq,
				})
			}
		}
		return out
	}
	return nil
}
