package problems

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// The readers–writers family is the paper's central example. The
// readers-priority database [8] is the footnote-2 test case for *request
// type* and *synchronization state*; the writers-priority and FCFS
// variants exist for the §4.2 independence analysis: all three share the
// "rw-exclusion" constraint and differ only in the priority constraint.

// OpRead and OpWrite are the database's operation names in traces.
const (
	OpRead  = "read"
	OpWrite = "write"
)

// rwExclusion is the constraint shared verbatim by all three variants.
func rwExclusion() core.Constraint {
	return core.Constraint{
		ID:   "rw-exclusion",
		Kind: core.Exclusion,
		Uses: []core.InfoType{core.RequestType, core.SyncState},
		Desc: "if a writer is active then exclude everyone; if a reader is active then exclude writers",
	}
}

// ReadersPrioritySpec: readers are admitted in preference to waiting
// writers (Courtois–Heymans–Parnas problem 1; writers may starve).
func ReadersPrioritySpec() core.Scheme {
	return core.Scheme{
		Name: NameReadersPriority,
		Constraints: []core.Constraint{
			rwExclusion(),
			{
				ID:   "readers-priority",
				Kind: core.Priority,
				Uses: []core.InfoType{core.RequestType},
				Desc: "if readers and writers are waiting then readers have priority over writers",
			},
		},
	}
}

// WritersPrioritySpec: writers are admitted in preference to waiting
// readers (CHP problem 2; readers may starve).
func WritersPrioritySpec() core.Scheme {
	return core.Scheme{
		Name: NameWritersPriority,
		Constraints: []core.Constraint{
			rwExclusion(),
			{
				ID:   "writers-priority",
				Kind: core.Priority,
				Uses: []core.InfoType{core.RequestType},
				Desc: "if readers and writers are waiting then writers have priority over readers",
			},
		},
	}
}

// FCFSRWSpec: requests are admitted strictly in arrival order (reads
// still share). Same exclusion constraint; the priority constraint uses
// request time instead of request type.
func FCFSRWSpec() core.Scheme {
	return core.Scheme{
		Name: NameFCFSRW,
		Constraints: []core.Constraint{
			rwExclusion(),
			{
				ID:   "rw-fcfs",
				Kind: core.Priority,
				Uses: []core.InfoType{core.RequestTime},
				Desc: "if A requested before B then A is admitted before B",
			},
		},
	}
}

// RWStore is the database interface a solution implements: body runs
// while the operation is admitted.
type RWStore interface {
	Read(p *kernel.Proc, body func())
	Write(p *kernel.Proc, body func())
}

// RWConfig parameterizes the readers–writers workload.
type RWConfig struct {
	Readers     int
	Writers     int
	Rounds      int // operations per process
	ReadYields  int // body length of a read
	WriteYields int // body length of a write
	GapYields   int // pause between a process's operations
}

// SpawnRW spawns the workload processes against db on k, recording
// into r; the caller runs the kernel.
func SpawnRW(k kernel.Kernel, db RWStore, r *trace.Recorder, cfg RWConfig) error {
	for i := 0; i < cfg.Readers; i++ {
		k.Spawn("reader", func(p *kernel.Proc) {
			for j := 0; j < cfg.Rounds; j++ {
				r.Request(p, OpRead, trace.NoArg)
				db.Read(p, func() {
					r.Enter(p, OpRead, trace.NoArg)
					for y := 0; y < cfg.ReadYields; y++ {
						p.Yield()
					}
					r.Exit(p, OpRead, trace.NoArg)
				})
				for y := 0; y < cfg.GapYields; y++ {
					p.Yield()
				}
			}
		})
	}
	for i := 0; i < cfg.Writers; i++ {
		k.Spawn("writer", func(p *kernel.Proc) {
			for j := 0; j < cfg.Rounds; j++ {
				r.Request(p, OpWrite, trace.NoArg)
				db.Write(p, func() {
					r.Enter(p, OpWrite, trace.NoArg)
					for y := 0; y < cfg.WriteYields; y++ {
						p.Yield()
					}
					r.Exit(p, OpWrite, trace.NoArg)
				})
				for y := 0; y < cfg.GapYields; y++ {
					p.Yield()
				}
			}
		})
	}
	return nil
}

// CheckRWExclusion judges the shared exclusion constraint: writes overlap
// nothing; reads may overlap reads.
func CheckRWExclusion(tr trace.Trace) []Violation {
	ivs, vs := requireIntervals(tr)
	if vs != nil {
		return vs
	}
	return rwOverlaps(ivs)
}

func rwOverlaps(ivs []trace.Interval) []Violation {
	return overlapViolations("rw-exclusion", ivs,
		func(a, b string) bool { return a == OpRead && b == OpRead })
}

// CheckReadersPriority judges the readers-priority constraint: once a
// reader has requested, no writer may be admitted before that reader.
// (A reader waits only for a writer that was *already admitted* when the
// reader arrived — the CHP problem-1 statement. The Figure-1 anomaly of
// the paper's footnote 3 is exactly a violation of this rule.)
//
// Exact on deterministic traces; see CheckFCFS for the real-kernel caveat.
func CheckReadersPriority(tr trace.Trace) []Violation {
	return judgeReleases(tr, readersPriority)
}

// CheckWritersPriority is the symmetric judgement: once a writer has
// requested, no reader may be admitted before it.
func CheckWritersPriority(tr trace.Trace) []Violation {
	return judgeReleases(tr, writersPriority)
}

// A releaseJudge judges a trace's intervals against its release points,
// the ascending Exit sequence numbers of reads and writes.
type releaseJudge func(ivs []trace.Interval, exits []int64) []Violation

// judgeReleases reconstructs tr's intervals and release points and runs
// judge on them.
func judgeReleases(tr trace.Trace, judge releaseJudge) []Violation {
	ivs, vs := requireIntervals(tr)
	if vs != nil {
		return vs
	}
	return judge(ivs, releaseSeqs(tr, OpRead, OpWrite))
}

func readersPriority(ivs []trace.Interval, exits []int64) []Violation {
	return noOvertaking(ivs, exits, OpRead, OpWrite, "readers-priority")
}

func writersPriority(ivs []trace.Interval, exits []int64) []Violation {
	return noOvertaking(ivs, exits, OpWrite, OpRead, "writers-priority")
}

// noOvertaking reports every case where an interval of op loser was
// *granted* admission while a favored-op request was waiting: each pair
// trace.Overtakings yields whose waiting interval is favored and whose
// admitted one is a loser. Every read or write Exit is a release. A
// favored waiter never admitted by trace end waited forever, so every
// later loser admission after a release overtook it. The paper's
// footnote-3 anomaly satisfies this rule: the first writer's completion
// is the release at which the second writer is wrongly preferred.
func noOvertaking(ivs []trace.Interval, exits []int64, favored, loser, rule string) []Violation {
	var out []Violation
	trace.Overtakings(ivs, exits, func(w, l int) {
		f, lv := ivs[w], ivs[l]
		if f.Op != favored || lv.Op != loser {
			return
		}
		admitted := fmt.Sprintf("admitted @%d", f.EnterSeq)
		if !f.Started() {
			admitted = "never admitted"
		}
		out = append(out, Violation{
			Rule: rule,
			Detail: fmt.Sprintf("%s admitted while %s was waiting (requested @%d, %s)",
				lv, f, f.RequestSeq, admitted),
			Seq: lv.EnterSeq,
		})
	})
	return out
}

// CheckFCFSRW judges the FCFS variant: admissions occur strictly in
// request order, subject to the same release-window rule as
// noOvertaking (see there). Read–read pairs are exempt: two reads
// are admitted into a shared phase, so their relative Enter order is a
// recording artifact (a Hoare signal cascade grants a batch of readers
// FIFO but they record their Enters in scheduler order), not an
// admission decision.
func CheckFCFSRW(tr trace.Trace) []Violation {
	return judgeReleases(tr, fcfsRW)
}

func fcfsRW(ivs []trace.Interval, exits []int64) []Violation {
	var out []Violation
	for _, iv := range ivs {
		if iv.RequestSeq == 0 {
			out = append(out, Violation{Rule: "instrumentation",
				Detail: fmt.Sprintf("%s has no request event", iv), Seq: iv.EnterSeq})
		}
	}
	out = append(out, orderInversions("rw-fcfs", ivs, exits,
		func(a, b trace.Interval) bool { return a.Op == OpRead && b.Op == OpRead })...)
	return out
}

// orderInversions reports pairs admitted out of request order: each
// pair trace.Overtakings yields whose admitted interval requested after
// the waiting one, unless exempt(waiting, admitted) holds (a nil exempt
// exempts nothing).
func orderInversions(rule string, ivs []trace.Interval, exits []int64, exempt func(waiting, admitted trace.Interval) bool) []Violation {
	var out []Violation
	trace.Overtakings(ivs, exits, func(w, l int) {
		waiting, jumped := ivs[w], ivs[l]
		if jumped.RequestSeq == 0 || jumped.RequestSeq <= waiting.RequestSeq ||
			exempt != nil && exempt(waiting, jumped) {
			return
		}
		out = append(out, Violation{
			Rule:   rule,
			Detail: fmt.Sprintf("%s admitted before earlier request %s", jumped, waiting),
			Seq:    jumped.EnterSeq,
		})
	})
	return out
}

// rwPriority maps each readers/writers variant to its priority judge.
var rwPriority = map[string]releaseJudge{
	NameReadersPriority: readersPriority,
	NameWritersPriority: writersPriority,
	NameFCFSRW:          fcfsRW,
}

// CheckRW composes the exclusion check with the variant's priority check
// on one reconstruction of the trace's intervals; the release points are
// read only when the priority check runs.
func CheckRW(problem string, tr trace.Trace, checkPriority bool) []Violation {
	ivs, vs := requireIntervals(tr)
	if vs != nil {
		return vs
	}
	out := rwOverlaps(ivs)
	if judge := rwPriority[problem]; checkPriority && judge != nil {
		out = append(out, judge(ivs, releaseSeqs(tr, OpRead, OpWrite))...)
	}
	return out
}
