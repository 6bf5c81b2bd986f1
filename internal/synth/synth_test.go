package synth

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func mustSet(t *testing.T, s *Set) *Set {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate(%s): %v", s.Name, err)
	}
	return s
}

func TestValidateRejectsMalformedSets(t *testing.T) {
	twoClasses := []Class{
		{Name: "a", Procs: 1, Rounds: 1},
		{Name: "b", Procs: 1, Rounds: 1},
	}
	cases := []struct {
		name string
		set  *Set
		want string // substring of the error
	}{
		{"no classes", &Set{Name: "x"}, "no classes"},
		{"duplicate names", &Set{Classes: []Class{
			{Name: "a", Procs: 1, Rounds: 1}, {Name: "a", Procs: 1, Rounds: 1},
		}}, "duplicate"},
		{"zero procs", &Set{Classes: []Class{{Name: "a", Rounds: 1}}}, "positive"},
		{"exclude out of range", &Set{Classes: twoClasses,
			Excludes: []ExcludeWhen{{Cond: True{}, Class: 7}}}, "unknown class"},
		{"pair cond in exclude", &Set{Classes: twoClasses,
			Excludes: []ExcludeWhen{{Cond: OlderReq{}, Class: 0}}}, "pair condition"},
		{"arg cond on argless class", &Set{Classes: twoClasses,
			Excludes: []ExcludeWhen{{Cond: ArgGE{N: 2}, Class: 0}}}, "argless"},
		{"stateful priority cond", &Set{Classes: twoClasses,
			Excludes:   []ExcludeWhen{{Cond: CountGE{0, CountActive, 1}, Class: 0}},
			Priorities: []PriorityWhen{{Cond: CountGE{0, CountActive, 1}, A: 0, B: 1}}},
			"must use true/older"},
		{"unconditional self rule", &Set{Classes: twoClasses,
			Excludes:   []ExcludeWhen{{Cond: CountGE{0, CountActive, 1}, Class: 0}},
			Priorities: []PriorityWhen{{Cond: True{}, A: 0, B: 0}}}, "blocks the class"},
		{"duplicate pair rule", &Set{Classes: twoClasses,
			Excludes: []ExcludeWhen{{Cond: CountGE{0, CountActive, 1}, Class: 0}},
			Priorities: []PriorityWhen{
				{Cond: OlderReq{}, A: 0, B: 1}, {Cond: OlderReq{}, A: 0, B: 1},
			}}, "duplicate priority"},
		{"true cycle", &Set{Classes: twoClasses,
			Excludes: []ExcludeWhen{{Cond: CountGE{0, CountActive, 1}, Class: 0}},
			Priorities: []PriorityWhen{
				{Cond: True{}, A: 0, B: 1}, {Cond: True{}, A: 1, B: 0},
			}}, "cycle"},
		{"mixed measures", &Set{Classes: []Class{
			{Name: "a", Procs: 1, Rounds: 1, Args: []int64{1}},
			{Name: "b", Procs: 1, Rounds: 1, Args: []int64{2}},
		},
			Excludes: []ExcludeWhen{{Cond: CountGE{0, CountActive, 1}, Class: 0}},
			Priorities: []PriorityWhen{
				{Cond: SmallerArg{}, A: 0, B: 1}, {Cond: LargerArg{}, A: 1, B: 0},
			}}, "mixes priority measures"},
	}
	for _, tc := range cases {
		err := tc.set.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the set", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestGateEnforcesExclusionAndPriority(t *testing.T) {
	s := mustSet(t, &Set{
		Name: "gate-test",
		Classes: []Class{
			{Name: "r", Procs: 2, Rounds: 1},
			{Name: "w", Procs: 2, Rounds: 1},
		},
		Excludes: []ExcludeWhen{
			{Cond: CountGE{Class: 1, Kind: CountActive, N: 1}, Class: 0},
			{Cond: Or{CountGE{0, CountActive, 1}, CountGE{1, CountActive, 1}}, Class: 1},
		},
		Priorities: []PriorityWhen{{Cond: True{}, A: 0, B: 1}},
	})
	g := NewGate(s)

	w1 := g.Arrive(1, 0, false)
	if !g.MayStart(w1) {
		t.Fatal("first writer should start on an idle resource")
	}
	g.Grant(w1)

	r1 := g.Arrive(0, 0, false)
	w2 := g.Arrive(1, 0, false)
	if g.MayStart(r1) {
		t.Fatal("reader must be excluded while a writer is active")
	}
	if g.MayStart(w2) {
		t.Fatal("second writer must be excluded while the first is active")
	}

	g.Release(1)
	if g.MayStart(w2) {
		t.Fatal("writer must yield to the waiting reader (priority)")
	}
	if got := g.NextGrant(); got != r1 {
		t.Fatalf("NextGrant = %v, want the waiting reader", got)
	}
	g.Grant(r1)
	if g.MayStart(w2) {
		t.Fatal("writer still excluded while the reader is active")
	}
	g.Release(0)
	if !g.MayStart(w2) {
		t.Fatal("writer should start once the reader completed")
	}
}

// TestGateViewsAllocateNothing pins that judging a candidate lends its
// conditions the Gate's own view instead of boxing a new one per rule.
func TestGateViewsAllocateNothing(t *testing.T) {
	s := mustSet(t, &Set{
		Name: "gate-allocs",
		Classes: []Class{
			{Name: "r", Procs: 2, Rounds: 1},
			{Name: "w", Procs: 2, Rounds: 1},
		},
		Excludes: []ExcludeWhen{
			{Cond: CountGE{Class: 1, Kind: CountActive, N: 1}, Class: 0},
			{Cond: Or{CountGE{0, CountActive, 1}, CountGE{1, CountWaiting, 2}}, Class: 1},
		},
		Priorities: []PriorityWhen{{Cond: True{}, A: 0, B: 1}},
	})
	g := NewGate(s)
	r := g.Arrive(0, 0, false)
	w := g.Arrive(1, 0, false)
	for name, f := range map[string]func(){
		"Admissible": func() { g.Admissible(w); g.Admissible(r) },
		"MayStart":   func() { g.MayStart(w); g.MayStart(r) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %v times, want 0", name, allocs)
		}
	}
	if g.MayStart(w) {
		t.Fatal("the writer must yield to the waiting reader")
	}
}

func TestGateSlotAndHistoryState(t *testing.T) {
	s := mustSet(t, &Set{
		Name: "slots-test",
		Classes: []Class{
			{Name: "dep", Procs: 1, Rounds: 3, SlotDelta: 1},
			{Name: "rem", Procs: 1, Rounds: 3, SlotDelta: -1},
		},
		Excludes: []ExcludeWhen{
			{Cond: SlotsGE{1}, Class: 0},
			{Cond: SlotsLE{0}, Class: 1},
		},
	})
	g := NewGate(s)
	rem := g.Arrive(1, 0, false)
	if g.MayStart(rem) {
		t.Fatal("remove must wait on an empty buffer")
	}
	dep := g.Arrive(0, 0, false)
	if !g.MayStart(dep) {
		t.Fatal("deposit should start on an empty buffer")
	}
	g.Grant(dep)
	g.Release(0)
	if g.LastStarted() != 0 || g.Slots() != 1 {
		t.Fatalf("after one deposit: last=%d slots=%d", g.LastStarted(), g.Slots())
	}
	dep2 := g.Arrive(0, 0, false)
	if g.MayStart(dep2) {
		t.Fatal("second deposit must wait at capacity 1")
	}
	if !g.MayStart(rem) {
		t.Fatal("remove should start once a slot is filled")
	}
}

func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		a, err := json.Marshal(Generate(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := json.Marshal(Generate(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ:\n%s\n%s", seed, a, b)
		}
	}
}

func TestGeneratedSetsAreValidAndFeasible(t *testing.T) {
	shapes := map[string]bool{}
	fallbacks := 0
	for seed := int64(1); seed <= 120; seed++ {
		s := Generate(seed)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: generated set invalid: %v", seed, err)
		}
		if !drains(s, candidates(s)) {
			t.Fatalf("seed %d: generated set does not drain", seed)
		}
		shapes[s.Shape()] = true
		if len(s.Classes) == 1 && len(s.Excludes) == 1 && len(s.Priorities) == 1 {
			fallbacks++
		}
	}
	// The sampler must actually sample the grid, not collapse to the
	// fallback: expect real shape diversity over 120 seeds.
	if len(shapes) < 10 {
		t.Fatalf("only %d distinct shapes over 120 seeds: %v", len(shapes), shapes)
	}
	if fallbacks > 30 {
		t.Fatalf("%d of 120 seeds hit the deterministic fallback", fallbacks)
	}
}

func TestShapeAndSchemeStability(t *testing.T) {
	s := mustSet(t, &Set{
		Name: "shape-test",
		Classes: []Class{
			{Name: "read", Procs: 1, Rounds: 1},
			{Name: "write", Procs: 1, Rounds: 1},
		},
		Excludes: []ExcludeWhen{
			{Cond: CountGE{Class: 1, Kind: CountActive, N: 1}, Class: 0},
		},
		Priorities: []PriorityWhen{{Cond: True{}, A: 0, B: 1}},
	})
	if got, want := s.Shape(), "p:type+x:sync"; got != want {
		t.Errorf("Shape() = %q, want %q", got, want)
	}
	sch := s.Scheme()
	if len(sch.Constraints) != 2 {
		t.Fatalf("Scheme has %d constraints, want 2", len(sch.Constraints))
	}
	if sch.Constraints[0].ID != "x0" || sch.Constraints[1].ID != "p0" {
		t.Errorf("constraint IDs = %s, %s", sch.Constraints[0].ID, sch.Constraints[1].ID)
	}
}
