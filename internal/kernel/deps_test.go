package kernel

import "testing"

// depProgram spawns a small interleaving-rich program: three processes
// yielding, parking, and sleeping. events collects the observable
// execution order.
func depProgram(k *SimKernel, events *[]string) {
	mark := func(p *Proc, what string) { *events = append(*events, p.Name()+":"+what) }
	var waiter *Proc
	waiter = k.Spawn("waiter", func(p *Proc) {
		mark(p, "park")
		p.Park()
		mark(p, "woke")
	})
	k.Spawn("worker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			mark(p, "step")
			p.Yield()
		}
		waiter.Unpark()
		mark(p, "unparked")
	})
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5)
		mark(p, "awake")
	})
}

// collectDeps runs depProgram under policy with dependency tracing and
// returns the recorded artifacts.
func collectDeps(t *testing.T, policy Policy) ([]DepAccess, []int32, []int32, []Choice) {
	t.Helper()
	k := NewSim(WithPolicy(policy), WithDepTrace())
	var events []string
	depProgram(k, &events)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return append([]DepAccess(nil), k.DepAccesses()...),
		append([]int32(nil), k.ReadySetIDs()...),
		append([]int32(nil), k.ReadyCauses()...),
		k.Choices()
}

// The dependency relation DPOR consumes — steps i and j are dependent
// iff they access a common object — must be symmetric and irreflexive by
// construction, and the records it is derived from must be well-formed:
// nondecreasing step order, steps within the run, adjacent duplicates
// collapsed, ready-set ids and causes aligned with the choices.
func TestDepTraceRelationProperties(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1979} {
		deps, readyIDs, causes, choices := collectDeps(t, Random(seed))
		if len(deps) == 0 {
			t.Fatalf("seed %d: no dependency accesses recorded", seed)
		}

		// Record well-formedness.
		total := 0
		for i, c := range choices {
			if c.Ready < 1 || c.Picked < 0 || c.Picked >= c.Ready {
				t.Fatalf("seed %d: malformed choice %d: %+v", seed, i, c)
			}
			total += c.Ready
		}
		if len(readyIDs) != total {
			t.Fatalf("seed %d: %d ready-set ids, want %d", seed, len(readyIDs), total)
		}
		if len(causes) != len(choices) {
			t.Fatalf("seed %d: %d causes, want %d", seed, len(causes), len(choices))
		}
		for i, c := range causes {
			if int(c) >= i {
				t.Fatalf("seed %d: cause of step %d is %d, not an earlier step", seed, i, c)
			}
		}
		for i := 1; i < len(deps); i++ {
			if deps[i].Step < deps[i-1].Step {
				t.Fatalf("seed %d: dependency trace out of order at %d: %v after %v",
					seed, i, deps[i], deps[i-1])
			}
			if deps[i] == deps[i-1] {
				t.Fatalf("seed %d: adjacent duplicate access %v", seed, deps[i])
			}
		}
		for _, d := range deps {
			if int(d.Step) >= len(choices) {
				t.Fatalf("seed %d: access %v beyond the run's %d steps", seed, d, len(choices))
			}
		}

		// The induced relation: dep(i, j) iff distinct steps share an
		// object. Symmetry and irreflexivity fall out of the definition;
		// exercise it as DPOR does, over the materialized pair set.
		objs := map[int32]map[uint64]bool{}
		for _, d := range deps {
			if d.Step < 0 {
				continue
			}
			if objs[d.Step] == nil {
				objs[d.Step] = map[uint64]bool{}
			}
			objs[d.Step][d.Obj] = true
		}
		dependent := func(i, j int32) bool {
			if i == j {
				return false
			}
			for o := range objs[i] {
				if objs[j][o] {
					return true
				}
			}
			return false
		}
		pairs := 0
		for i := range objs {
			for j := range objs {
				if dependent(i, j) {
					pairs++
					if !dependent(j, i) {
						t.Fatalf("seed %d: relation not symmetric at (%d, %d)", seed, i, j)
					}
				}
				if i == j && dependent(i, j) {
					t.Fatalf("seed %d: relation not irreflexive at %d", seed, i)
				}
			}
		}
		if pairs == 0 {
			t.Fatalf("seed %d: no dependent pairs in a program with unpark edges", seed)
		}
	}
}

// Dependency tracing is opt-in and absent by default: without
// WithDepTrace the accessors stay empty.
func TestDepTraceOptIn(t *testing.T) {
	k := NewSim(WithPolicy(FIFO()))
	var events []string
	depProgram(k, &events)
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(k.DepAccesses()) != 0 || len(k.ReadySetIDs()) != 0 || len(k.ReadyCauses()) != 0 {
		t.Fatalf("dependency records present without WithDepTrace")
	}
}
