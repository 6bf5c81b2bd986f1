package synth

// Scenario emission: a Set plus a mechanism name becomes the same
// (program, oracle) pair solutions.StandardProgram produces for the
// canonical problems, so generated problems flow through exploration,
// replay, and sealing without any new plumbing.

import (
	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// Program emits the set's workload under the mechanism as an
// exploration program, paired with the set's strict derived oracle,
// compiled once here and shared by every run the program is judged on.
// The error is the mechanism's Supports verdict (pathexpr refusing an
// inexpressible set).
//
// On a SimKernel the program keeps its run state with the kernel, in
// slot-local storage (kernel.SimKernel.Local): the adapter with its Gate
// and mechanism objects, and one record per process with its closures
// bound once. The first run on a kernel builds that instance; every run,
// the first included, resets it and spawns its processes, so a recycled
// kernel slot runs the program without allocating. Any other kernel gets
// a fresh instance per run.
func Program(set *Set, mech string) (explore.Program, explore.Oracle, error) {
	if err := Supports(mech, set); err != nil {
		return nil, nil, err
	}
	key := &programKey{set: set, mech: mech}
	prog := func(k kernel.Kernel, rec *trace.Recorder) {
		sk, _ := k.(*kernel.SimKernel)
		var in *instance
		if sk != nil {
			in, _ = sk.Local(key).(*instance)
		}
		if in == nil {
			in = key.newInstance()
			if sk != nil {
				sk.SetLocal(key, in)
			}
		}
		in.start(k, rec)
	}
	j := set.compile()
	oracle := func(tr trace.Trace) []problems.Violation {
		return j.check(tr, true)
	}
	return prog, oracle, nil
}

// programKey identifies one Program call's instances in slot-local
// storage: each call allocates its own, so two programs never share one.
type programKey struct {
	set  *Set
	mech string
}

// instance is one program's run state on one kernel.
type instance struct {
	a     adapter
	rec   *trace.Recorder // the current run's
	procs []*process      // in spawn order
}

// process is one process of the workload: its class, its index within
// the class, and its one op, refilled every round.
type process struct {
	in    *instance
	class Class
	ci    int
	pi    int
	o     op
	main  func(p *kernel.Proc) // run, bound once
}

func (key *programKey) newInstance() *instance {
	a, err := newAdapter(key.mech, key.set)
	if err != nil {
		// Program checked Supports; a failure here is a synth bug.
		panic(err)
	}
	in := &instance{a: a}
	for ci, c := range key.set.Classes {
		for pi := 0; pi < c.Procs; pi++ {
			pr := &process{in: in, class: c, ci: ci, pi: pi}
			pr.main = pr.run
			pr.o.body = pr.work
			in.procs = append(in.procs, pr)
		}
	}
	return in
}

// start begins a run on k: it resets the adapter and every process's
// per-process objects — a run cut by deadlock or Stop leaves them mid-use
// — and spawns the processes in the order a fresh instance would.
func (in *instance) start(k kernel.Kernel, rec *trace.Recorder) {
	in.rec = rec
	in.a.start(k)
	for _, pr := range in.procs {
		if pr.o.reset != nil {
			pr.o.reset()
		}
		k.Spawn(pr.class.Name, pr.main)
	}
}

// run is the process body: Rounds operations, each a request through the
// adapter, Gap yields apart, after an initial Delay.
func (pr *process) run(p *kernel.Proc) {
	c := &pr.class
	if c.Delay > 0 {
		p.Sleep(c.Delay)
	}
	o := &pr.o
	for round := 0; round < c.Rounds; round++ {
		arg, has := c.Arg(pr.pi, round)
		h := Hooks{Rec: pr.in.rec, Proc: p, Op: c.Name, Arg: trace.NoArg}
		if has {
			h.Arg = arg
		}
		o.p, o.class, o.arg, o.hasArg, o.h = p, pr.ci, arg, has, h
		pr.in.a.do(o)
		for gap := 0; gap < c.Gap; gap++ {
			p.Yield()
		}
	}
}

// work is the operation body: Yields yields while admitted.
func (pr *process) work() {
	for y := 0; y < pr.class.Yields; y++ {
		pr.o.p.Yield()
	}
}
