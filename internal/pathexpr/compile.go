package pathexpr

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/semaphore"
)

// The compiler realizes Campbell and Habermann's translation of path
// expressions into P and V operations: every operation occurrence in a
// path acquires a *prologue* before its body and runs an *epilogue* after
// it. The translation rules are
//
//	path n : S end    s := Sem(n);  T(S, [P(s)], [V(s)])   (n defaults to 1)
//	T(e1 ; … ; en)    link semaphores c1…c(n-1) := Sem(0);
//	                  T(e1, pre, [V(c1)]), T(ei, [P(c(i-1))], [V(ci)]),
//	                  T(en, [P(c(n-1))], post)
//	T(e1 , … , en)    every alternative gets the same (pre, post); FIFO
//	                  semaphores make the selection resume the longest
//	                  waiter, Bloom's §5.1 assumption
//	T({ e })          counter n := 0 guarded by a mutex;
//	                  pre'  = lock; n++; if n == 1 { pre };  unlock
//	                  post' = lock; n--; if n == 0 { post }; unlock
//	T(op)             attach (pre, post) to op
//
// An operation named in several paths must satisfy all of them: its
// prologues run in path-declaration order and its epilogues in reverse.
// An operation occurring twice within one path is rejected (its two
// gate sets would wrongly compose as a conjunction).

// step is one abstract prologue/epilogue instruction. The same compiled
// program drives both the blocking runtime (Set.Exec) and the symbolic
// interpreter (Checker), which keeps them in lockstep by construction.
type step interface{ isStep() }

type stepP struct{ sem int } // P(sems[sem]); blocks while count is 0

type stepV struct{ sem int } // V(sems[sem])

// stepBurst guards inner steps with a burst counter: on enter, the counter
// is incremented and inner runs only for the first member; on exit it is
// decremented and inner runs only for the last.
type stepBurst struct {
	burst int
	enter bool // true: n++ / first-runs-inner; false: n-- / last-runs-inner
	inner []step
}

func (stepP) isStep()     {}
func (stepV) isStep()     {}
func (stepBurst) isStep() {}

// gate is one operation occurrence's prologue/epilogue pair from one path.
type gate struct {
	pathIdx int
	pre     []step
	post    []step
}

// Op is one constrained operation of the compiled set.
type Op struct {
	name  string
	gates []gate // in path-declaration order
}

// Name reports the operation name.
func (o *Op) Name() string { return o.name }

// Set is a compiled collection of paths governing one resource.
type Set struct {
	paths    []*Path
	semInit  []int64 // initial counts of the abstract semaphores
	burstCnt int     // number of burst counters
	ops      map[string]*Op

	sems   []*semaphore.Semaphore // runtime state
	bursts []*burstState
}

type burstState struct {
	mu *semaphore.Semaphore // binary semaphore guarding n; initial count 1
	n  int64
}

type compiler struct {
	set     *Set
	pathIdx int
	inPath  map[string]bool // duplicate-occurrence detection per path
	err     error
}

// Compile parses and compiles one or more path declarations. Each source
// string may itself contain several "path … end" declarations.
func Compile(sources ...string) (*Set, error) {
	var paths []*Path
	for _, src := range sources {
		ps, err := ParseList(src)
		if err != nil {
			return nil, err
		}
		paths = append(paths, ps...)
	}
	return CompileList(paths)
}

// MustCompile is Compile panicking on error, for statically known paths.
func MustCompile(sources ...string) *Set {
	s, err := Compile(sources...)
	if err != nil {
		panic(err)
	}
	return s
}

// CompileList compiles already-parsed paths.
func CompileList(paths []*Path) (*Set, error) {
	set := &Set{ops: map[string]*Op{}}
	c := &compiler{set: set}
	for i, p := range paths {
		c.pathIdx = i
		c.inPath = map[string]bool{}
		bound := p.Bound
		if bound < 1 {
			bound = 1 // zero-value Paths built by hand behave as the 1974 dialect
		}
		root := c.newSem(bound)
		c.compile(p.Expr, []step{stepP{root}}, []step{stepV{root}})
		if c.err != nil {
			return nil, c.err
		}
	}
	set.paths = append(set.paths, paths...)

	// Instantiate runtime state.
	set.sems = make([]*semaphore.Semaphore, len(set.semInit))
	for i, init := range set.semInit {
		set.sems[i] = semaphore.New(init)
	}
	set.bursts = make([]*burstState, set.burstCnt)
	for i := range set.bursts {
		set.bursts[i] = &burstState{mu: semaphore.New(1)}
	}
	return set, nil
}

func (c *compiler) newSem(init int64) int {
	c.set.semInit = append(c.set.semInit, init)
	return len(c.set.semInit) - 1
}

func (c *compiler) newBurst() int {
	c.set.burstCnt++
	return c.set.burstCnt - 1
}

func (c *compiler) compile(n Node, pre, post []step) {
	if c.err != nil {
		return
	}
	switch v := n.(type) {
	case *OpRef:
		if c.inPath[v.Name] {
			c.err = fmt.Errorf("pathexpr: operation %q occurs more than once in path %d; multiple occurrences within one path are not supported", v.Name, c.pathIdx+1)
			return
		}
		c.inPath[v.Name] = true
		op := c.set.ops[v.Name]
		if op == nil {
			op = &Op{name: v.Name}
			c.set.ops[v.Name] = op
		}
		op.gates = append(op.gates, gate{pathIdx: c.pathIdx, pre: pre, post: post})
	case *Seq:
		last := len(v.Elems) - 1
		prevLink := -1
		for i, e := range v.Elems {
			epre, epost := pre, post
			if i > 0 {
				epre = []step{stepP{prevLink}}
			}
			if i < last {
				link := c.newSem(0)
				epost = []step{stepV{link}}
				prevLink = link
			}
			c.compile(e, epre, epost)
		}
	case *Sel:
		for _, a := range v.Alts {
			c.compile(a, pre, post)
		}
	case *Burst:
		b := c.newBurst()
		c.compile(v.Inner,
			[]step{stepBurst{burst: b, enter: true, inner: pre}},
			[]step{stepBurst{burst: b, enter: false, inner: post}})
	default:
		c.err = fmt.Errorf("pathexpr: unknown node %T", n)
	}
}

// Paths returns the compiled path declarations.
func (s *Set) Paths() []*Path { return s.paths }

// Ops lists the constrained operation names, sorted.
func (s *Set) Ops() []string {
	out := make([]string, 0, len(s.ops))
	for name := range s.ops {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Constrained reports whether op is named in any path.
func (s *Set) Constrained(op string) bool {
	_, ok := s.ops[op]
	return ok
}

// Exec performs operation op with body as its implementation: the
// compiled prologues run (blocking as the paths require) before body, and
// the epilogues after. Operations not named in any path run unconstrained,
// per Campbell–Habermann.
func (s *Set) Exec(p *kernel.Proc, op string, body func()) {
	o := s.ops[op]
	if o == nil {
		body()
		return
	}
	for _, g := range o.gates {
		s.run(p, g.pre)
	}
	defer func() {
		for i := len(o.gates) - 1; i >= 0; i-- {
			s.run(p, o.gates[i].post)
		}
	}()
	body()
}

// run executes compiled steps for process p, blocking as required.
func (s *Set) run(p *kernel.Proc, steps []step) {
	for _, st := range steps {
		switch v := st.(type) {
		case stepP:
			s.sems[v.sem].P(p)
		case stepV:
			s.sems[v.sem].V()
		case stepBurst:
			b := s.bursts[v.burst]
			b.mu.P(p)
			if v.enter {
				b.n++
				if b.n == 1 {
					s.run(p, v.inner)
				}
			} else {
				b.n--
				if b.n == 0 {
					s.run(p, v.inner)
				}
			}
			b.mu.V()
		}
	}
}

// Reset returns the runtime state (semaphores and burst counters) to its
// compiled initial values in place, abandoning any in-flight executions
// and allocating nothing. For use between independent runs; never while
// processes of a live run are inside Exec.
func (s *Set) Reset() {
	for _, sem := range s.sems {
		sem.Reset()
	}
	for _, b := range s.bursts {
		b.mu.Reset()
		b.n = 0
	}
}
