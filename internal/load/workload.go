package load

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/synth"
	"repro/internal/trace"
)

// A workload binds one solution instance to a set of operation classes
// the traffic generator can issue. Classes are the unit of measurement:
// each has its own latency histograms and counters, so fairness between
// request types (the writer-starvation axis of the readers–writers
// problems) falls out of the per-class totals.

// class is one operation type of a workload under measurement.
type class struct {
	name   string
	weight float64 // selection probability for unbalanced workloads

	wait  *ShardedHistogram // intended-arrival → admission (queueing delay)
	total *ShardedHistogram // intended-arrival → completion

	issued    atomic.Int64
	completed atomic.Int64

	// do performs one operation on behalf of p. at is the intended
	// arrival instant on the kernel clock (the latency origin — for
	// open-loop traffic this predates the process actually running, which
	// is exactly the point: scheduling backlog is latency the offered
	// traffic observed). seq is a unique operation sequence number used
	// for item identity.
	do func(p *kernel.Proc, at int64, seq int64)
}

// workload is the set of classes plus issuing rules.
type workload struct {
	classes []*class
	// balanced workloads (bounded buffer: deposit/remove) must be issued
	// in equal numbers or leftover operations block forever; the
	// generators issue them in full cycles over the classes.
	balanced bool
	// judge maps a recorded trace to oracle findings. Only the
	// constraints that are exact on real-kernel traces are judged:
	// exclusion and resource-safety rules, not FCFS/priority ordering
	// (see DESIGN.md §8 — ordering is verified exhaustively in
	// simulation; the real-runtime leg cross-checks the safety side).
	judge func(tr trace.Trace) []problems.Violation
}

// LoadProblems lists the problems the load subsystem can generate
// traffic for, in evaluation order. The first three are the canonical
// cross-mechanism comparison set; the RW variants ride along for free.
func LoadProblems() []string {
	return []string{
		problems.NameBoundedBuffer,
		problems.NameReadersPriority,
		problems.NameFCFS,
		problems.NameWritersPriority,
		problems.NameFCFSRW,
	}
}

// DefaultProblems is the canonical mechanism-comparison trio.
func DefaultProblems() []string {
	return []string{problems.NameBoundedBuffer, problems.NameReadersPriority, problems.NameFCFS}
}

// newClass creates a class whose latency histograms have the default
// shard count, which covers GOMAXPROCS.
func newClass(name string, weight float64) *class {
	return &class{name: name, weight: weight, wait: NewSharded(0), total: NewSharded(0)}
}

// yieldWork stretches an operation body, creating real contention windows
// the oracles can observe.
func yieldWork(p *kernel.Proc, n int) {
	for i := 0; i < n; i++ {
		p.Yield()
	}
}

// runBody is every class's operation body: stamp the admission instant,
// then record the Enter/Exit pair around the work (a nil rec records
// nothing). The pair lives in one function so the recorded interval can
// never be left open, whatever the caller does (synclint's bracket
// analyzer checks exactly this).
func runBody(rec *trace.Recorder, p *kernel.Proc, op string, arg int64, yields int, enter *int64, now func() int64) {
	*enter = now()
	rec.Enter(p, op, arg)
	yieldWork(p, yields)
	rec.Exit(p, op, arg)
}

// buildWorkload constructs the workload for cfg on kernel k, recording
// into rec (nil records nothing).
func buildWorkload(cfg *Config, s solutions.Suite, k kernel.Kernel, rec *trace.Recorder) (*workload, error) {
	yields := cfg.WorkYields
	now := k.Now
	if seedStr, ok := strings.CutPrefix(cfg.Problem, "synth:"); ok {
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("load: bad synth seed %q (want synth:<seed>)", seedStr)
		}
		return buildSynthWorkload(seed, s, k, rec, cfg, yields, now)
	}
	switch cfg.Problem {
	case problems.NameBoundedBuffer:
		bb := s.NewBoundedBuffer(k, cfg.BufferCap)
		dep := newClass(problems.OpDeposit, 0.5)
		rem := newClass(problems.OpRemove, 0.5)
		dep.do = func(p *kernel.Proc, at, seq int64) {
			rec.Request(p, problems.OpDeposit, seq)
			var enter int64
			bb.Deposit(p, seq, func() {
				runBody(rec, p, problems.OpDeposit, seq, yields, &enter, now)
			})
			end := now()
			dep.wait.Record(uint64(seq), enter-at)
			dep.total.Record(uint64(seq), end-at)
		}
		rem.do = func(p *kernel.Proc, at, seq int64) {
			rec.Request(p, problems.OpRemove, trace.NoArg)
			var enter int64
			bb.Remove(p, func(item int64) {
				runBody(rec, p, problems.OpRemove, item, yields, &enter, now)
			})
			end := now()
			rem.wait.Record(uint64(seq), enter-at)
			rem.total.Record(uint64(seq), end-at)
		}
		capacity := cfg.BufferCap
		return &workload{
			classes:  []*class{dep, rem},
			balanced: true,
			judge: func(tr trace.Trace) []problems.Violation {
				return problems.CheckBoundedBuffer(tr, capacity, 0)
			},
		}, nil

	case problems.NameFCFS:
		res := s.NewFCFS(k)
		use := newClass(problems.OpUse, 1)
		use.do = func(p *kernel.Proc, at, seq int64) {
			rec.Request(p, problems.OpUse, trace.NoArg)
			var enter int64
			res.Use(p, func() {
				runBody(rec, p, problems.OpUse, trace.NoArg, yields, &enter, now)
			})
			end := now()
			use.wait.Record(uint64(seq), enter-at)
			use.total.Record(uint64(seq), end-at)
		}
		return &workload{
			classes: []*class{use},
			judge: func(tr trace.Trace) []problems.Violation {
				return problems.CheckFCFS(tr, false)
			},
		}, nil

	case problems.NameReadersPriority, problems.NameWritersPriority, problems.NameFCFSRW:
		newDB, _ := solutions.RWConstructor(s, cfg.Problem)
		db := newDB(k)
		rd := newClass(problems.OpRead, cfg.ReadFraction)
		wr := newClass(problems.OpWrite, 1-cfg.ReadFraction)
		rd.do = func(p *kernel.Proc, at, seq int64) {
			rec.Request(p, problems.OpRead, trace.NoArg)
			var enter int64
			db.Read(p, func() {
				runBody(rec, p, problems.OpRead, trace.NoArg, yields, &enter, now)
			})
			end := now()
			rd.wait.Record(uint64(seq), enter-at)
			rd.total.Record(uint64(seq), end-at)
		}
		wr.do = func(p *kernel.Proc, at, seq int64) {
			rec.Request(p, problems.OpWrite, trace.NoArg)
			var enter int64
			db.Write(p, func() {
				runBody(rec, p, problems.OpWrite, trace.NoArg, yields, &enter, now)
			})
			end := now()
			wr.wait.Record(uint64(seq), enter-at)
			wr.total.Record(uint64(seq), end-at)
		}
		problem := cfg.Problem
		return &workload{
			classes: []*class{rd, wr},
			judge: func(tr trace.Trace) []problems.Violation {
				return problems.CheckRW(problem, tr, false)
			},
		}, nil
	}
	return nil, fmt.Errorf("load: problem %q is not load-generable (supported: %v, plus synth:<seed>)", cfg.Problem, LoadProblems())
}

// buildSynthWorkload generates the constraint set for the seed and runs
// it through the mechanism's synth adapter, so generated problems get
// the same load treatment as the canonical ones. Traffic weights follow
// each class's share of the generated workload's operations; sets whose
// constraints couple the classes (slots, history) are issued in
// balanced cycles. Judging uses the derived oracle in non-strict mode —
// the same exclusion-and-safety-only discipline as the canonical
// problems on real-kernel traces. Unlike runBody, the adapter records
// the trace events itself, inside its own exclusion (see synth.Hooks);
// the admission time is stamped through the hooks' OnEnter, at the grant.
func buildSynthWorkload(seed int64, s solutions.Suite, k kernel.Kernel, rec *trace.Recorder, cfg *Config, yields int, now func() int64) (*workload, error) {
	set := synth.Generate(seed)
	if err := set.LoadSafe(); err != nil {
		return nil, err
	}
	res, err := synth.NewResource(s.Mechanism, set, k)
	if err != nil {
		return nil, fmt.Errorf("load: %s cannot run %s: %w", s.Mechanism, set.Name, err)
	}
	totalOps := 0
	for _, c := range set.Classes {
		totalOps += c.Ops()
	}
	var classes []*class
	for ci := range set.Classes {
		sc := set.Classes[ci]
		cl := newClass(sc.Name, float64(sc.Ops())/float64(totalOps))
		cl.do = func(p *kernel.Proc, at, seq int64) {
			arg, has := int64(0), false
			ra := trace.NoArg
			if len(sc.Args) > 0 {
				arg, has = sc.Args[seq%int64(len(sc.Args))], true
				ra = arg
			}
			var enter int64
			h := synth.Hooks{Rec: rec, Proc: p, Op: sc.Name, Arg: ra, OnEnter: func() { enter = now() }}
			res.Do(p, ci, arg, has, h, func() { yieldWork(p, yields) })
			end := now()
			cl.wait.Record(uint64(seq), enter-at)
			cl.total.Record(uint64(seq), end-at)
		}
		classes = append(classes, cl)
	}
	return &workload{
		classes:  classes,
		balanced: set.Balanced(),
		judge: func(tr trace.Trace) []problems.Violation {
			return set.Check(tr, false)
		},
	}, nil
}
