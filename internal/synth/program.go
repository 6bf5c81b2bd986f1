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
func Program(set *Set, mech string) (explore.Program, explore.Oracle, error) {
	if err := Supports(mech, set); err != nil {
		return nil, nil, err
	}
	prog := func(k kernel.Kernel, rec *trace.Recorder) {
		res, err := NewResource(mech, set, k)
		if err != nil {
			// Supports passed above; a failure here is a synth bug.
			panic(err)
		}
		for ci := range set.Classes {
			c := set.Classes[ci]
			for pi := 0; pi < c.Procs; pi++ {
				k.Spawn(c.Name, func(p *kernel.Proc) {
					if c.Delay > 0 {
						p.Sleep(c.Delay)
					}
					yields := c.Yields // captured alone, not as part of c, the body closure stays small
					body := func() {
						for y := 0; y < yields; y++ {
							p.Yield()
						}
					}
					for round := 0; round < c.Rounds; round++ {
						arg, has := c.Arg(pi, round)
						h := Hooks{Rec: rec, Proc: p, Op: c.Name, Arg: trace.NoArg}
						if has {
							h.Arg = arg
						}
						res.Do(p, ci, arg, has, h, body)
						for gap := 0; gap < c.Gap; gap++ {
							p.Yield()
						}
					}
				})
			}
		}
	}
	j := set.compile()
	oracle := func(tr trace.Trace) []problems.Violation {
		return j.check(tr, true)
	}
	return prog, oracle, nil
}
