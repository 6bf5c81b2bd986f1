package synth

// One adapter per mechanism: each implements the Gate admission policy
// with that mechanism's own primitives, so a generated problem runs the
// same way the handwritten solutions do — the mechanism under test does
// the blocking and waking, the Gate only decides. The naive-gate row is
// a deliberately broken control: it checks admissibility but ignores
// priority rules and arrival wakeups, so the fuzz table has a row that
// *should* accumulate violations and deadlocks — evidence the derived
// oracles have teeth.
//
// Instrumentation contract: the trace events the oracle judges must be
// atomic with the state transitions they witness, or the oracle would
// flag scheduling windows (a waiter granted before a just-finished
// operation's Exit lands in the trace) instead of policy bugs. Hooks
// carries the three record points into the adapter, which fires each one
// inside its own exclusion: Request at Arrive, Enter at Grant (through
// the Waiter's copy), Exit immediately before Release.

import (
	"fmt"
	"sync"

	"repro/internal/ccr"
	"repro/internal/csp"
	"repro/internal/kernel"
	"repro/internal/monitor"
	"repro/internal/pathexpr"
	"repro/internal/semaphore"
	"repro/internal/serializer"
	"repro/internal/trace"
)

// Hooks are an operation's trace record points, which Do fires inside
// the mechanism's exclusion: Request at Arrive, Enter at Grant, Exit
// immediately before Release. They are a plain value, built each round
// without allocating: the recorder (nil records nothing), the
// operation's own process, its class name, and the round's trace
// argument (trace.NoArg when the class carries none). The Waiter keeps
// a copy, so Grant records the waiter's own process even when another
// process makes the grant. The CSP adapter's messages carry a copy too:
// its server can fire a round's Exit after the client has begun its
// next round, so the hooks must be that round's snapshot.
type Hooks struct {
	Rec  *trace.Recorder
	Proc *kernel.Proc
	Op   string
	Arg  int64
	// OnEnter, when set, runs at the admission point just before the
	// Enter record (a load run stamps its admission time there).
	OnEnter func()
}

func (h Hooks) request() {
	if h.Rec != nil {
		h.Rec.Request(h.Proc, h.Op, h.Arg)
	}
}

// enter records the admission; the interval it opens is closed by exit,
// fired by the same adapter's release path.
//
//synclint:allow bracket: the interval opens here at the grant and closes in exit at the release; pairing is the Resource.Do contract, not lexical structure
func (h Hooks) enter() {
	if h.OnEnter != nil {
		h.OnEnter()
	}
	if h.Rec != nil {
		h.Rec.Enter(h.Proc, h.Op, h.Arg)
	}
}

//synclint:allow bracket: closes the interval enter opened at the grant
func (h Hooks) exit() {
	if h.Rec != nil {
		h.Rec.Exit(h.Proc, h.Op, h.Arg)
	}
}

// Resource runs one operation of a generated problem under a mechanism:
// block until the constraints admit the operation, run body, release.
type Resource interface {
	Do(p *kernel.Proc, class int, arg int64, hasArg bool, h Hooks, body func())
}

// NaiveGate is the broken control mechanism (not part of the paper's
// six): admissibility without priorities, release-only wakeups.
const NaiveGate = "naive-gate"

// Mechanisms lists the mechanism names NewResource accepts: the paper's
// six plus the naive-gate control.
func Mechanisms() []string {
	return []string{"semaphore", "ccr", "pathexpr", "monitor", "serializer", "csp", NaiveGate}
}

// Supports reports whether the mechanism can take on the set at all.
// Only pathexpr ever refuses — its vocabulary is sequence shapes
// (pathc.go); the others express any valid set via their adapters.
func Supports(mech string, set *Set) error {
	switch mech {
	case "semaphore", "ccr", "monitor", "serializer", "csp", NaiveGate:
		return nil
	case "pathexpr":
		_, err := PathSources(set)
		return err
	}
	return fmt.Errorf("synth: unknown mechanism %q", mech)
}

// NewResource builds the mechanism's adapter for the set. The kernel is
// needed only by csp (its gate is a server process).
func NewResource(mech string, set *Set, k kernel.Kernel) (Resource, error) {
	if err := Supports(mech, set); err != nil {
		return nil, err
	}
	switch mech {
	case "monitor":
		return &monitorResource{m: monitor.New(set.Name), g: NewGate(set)}, nil
	case "semaphore":
		return &semResource{mu: semaphore.NewMutex(), g: NewGate(set)}, nil
	case "ccr":
		return &ccrResource{region: ccr.New(set.Name), g: NewGate(set)}, nil
	case "csp":
		return newCSPResource(set, k), nil
	case "serializer":
		return newSerializerResource(set), nil
	case "pathexpr":
		return newPathResource(set)
	case NaiveGate:
		return newNaiveResource(set), nil
	}
	return nil, fmt.Errorf("synth: unknown mechanism %q", mech)
}

// --- monitor ---------------------------------------------------------

// monitorResource keeps the Gate as monitor state; every blocked waiter
// has a private condition, and whoever changes the state (arrival or
// release) runs the grant loop and signals the newly admitted.
type monitorResource struct {
	m *monitor.Monitor
	g *Gate
}

func (r *monitorResource) grantAll(p *kernel.Proc, self *Waiter) {
	for {
		w := r.g.NextGrant()
		if w == nil {
			return
		}
		r.g.Grant(w)
		if w != self {
			w.Aux.(*monitor.Condition).Signal(p)
		}
	}
}

func (r *monitorResource) Do(p *kernel.Proc, class int, arg int64, hasArg bool, h Hooks, body func()) {
	r.m.Enter(p)
	h.request()
	w := r.g.Arrive(class, arg, hasArg)
	w.Hooks = h
	cond := r.m.NewCondition(fmt.Sprintf("grant-%d", w.Stamp))
	w.Aux = cond
	r.grantAll(p, w)
	for !w.Granted() {
		cond.Wait(p)
	}
	r.m.Exit(p)
	body()
	r.m.Enter(p)
	h.exit()
	r.g.Release(class)
	r.grantAll(p, nil)
	r.m.Exit(p)
}

// --- semaphore -------------------------------------------------------

// semResource guards the Gate with a mutex and parks each waiter on a
// private binary semaphore: the exact-baton idiom — every grant decided
// under the lock is paid with exactly one V.
type semResource struct {
	mu *semaphore.Mutex
	g  *Gate
}

func (r *semResource) grantAll(self *Waiter) []*semaphore.Semaphore {
	var wake []*semaphore.Semaphore
	for {
		w := r.g.NextGrant()
		if w == nil {
			return wake
		}
		r.g.Grant(w)
		if w != self {
			wake = append(wake, w.Aux.(*semaphore.Semaphore))
		}
	}
}

func (r *semResource) Do(p *kernel.Proc, class int, arg int64, hasArg bool, h Hooks, body func()) {
	r.mu.Lock(p)
	h.request()
	w := r.g.Arrive(class, arg, hasArg)
	w.Hooks = h
	w.Aux = semaphore.New(0)
	wake := r.grantAll(w)
	granted := w.Granted()
	r.mu.Unlock(p)
	for _, s := range wake {
		s.V()
	}
	if !granted {
		w.Aux.(*semaphore.Semaphore).P(p)
	}
	body()
	r.mu.Lock(p)
	h.exit()
	r.g.Release(class)
	wake = r.grantAll(nil)
	r.mu.Unlock(p)
	for _, s := range wake {
		s.V()
	}
}

// --- ccr -------------------------------------------------------------

// ccrResource is the shortest adapter: the Gate is the region's shared
// state and MayStart is literally the guard. The region re-evaluates
// guards at every exit, so releases and arrivals wake waiters for free.
type ccrResource struct {
	region *ccr.Region
	g      *Gate
}

func (r *ccrResource) Do(p *kernel.Proc, class int, arg int64, hasArg bool, h Hooks, body func()) {
	var w *Waiter
	r.region.Execute(p, ccr.True, func() {
		h.request()
		w = r.g.Arrive(class, arg, hasArg)
		w.Hooks = h
		if r.g.MayStart(w) {
			r.g.Grant(w)
		}
	})
	if !w.Granted() {
		r.region.Execute(p, func() bool { return r.g.MayStart(w) }, func() {
			r.g.Grant(w)
		})
	}
	body()
	r.region.Execute(p, ccr.True, func() {
		h.exit()
		r.g.Release(class)
	})
}

// --- csp -------------------------------------------------------------

// cspResource hides the Gate inside a server process: clients send a
// request carrying a private grant channel, the server loops on
// alternation over requests and releases, granting by rendezvous. After
// every communication the server drains the channels' pending senders
// (the same discipline as the handwritten rwServer) so the grant policy
// always decides on the complete announced state.
type cspResource struct {
	net *csp.Net
	req *csp.Chan
	rel *csp.Chan
}

// cspReq and cspRel carry the sending round's Hooks by value: the
// server fires them after the client has moved on, possibly into its
// next round.
type cspReq struct {
	class  int
	arg    int64
	hasArg bool
	grant  *csp.Chan
	hooks  Hooks
}

type cspRel struct {
	class int
	hooks Hooks
}

func newCSPResource(set *Set, k kernel.Kernel) *cspResource {
	r := &cspResource{net: csp.NewNet()}
	r.req = r.net.NewChan("req")
	r.rel = r.net.NewChan("rel")
	k.SpawnDaemon(set.Name+"-gate", func(p *kernel.Proc) {
		g := NewGate(set)
		cases := []csp.Case{{Chan: r.req}, {Chan: r.rel}}
		apply := func(i int, v any) {
			if i == 0 {
				m := v.(cspReq)
				m.hooks.request()
				w := g.Arrive(m.class, m.arg, m.hasArg)
				w.Hooks = m.hooks
				w.Aux = m.grant
			} else {
				m := v.(cspRel)
				m.hooks.exit()
				g.Release(m.class)
			}
		}
		drain := func() {
			for r.req.Pending()+r.rel.Pending() > 0 {
				apply(csp.Select(p, cases)) // immediate: a sender waits
			}
		}
		for {
			apply(csp.Select(p, cases))
			drain()
			for {
				w := g.NextGrant()
				if w == nil {
					break
				}
				g.Grant(w)
				w.Aux.(*csp.Chan).Send(p, nil)
				drain()
			}
		}
	})
	return r
}

func (r *cspResource) Do(p *kernel.Proc, class int, arg int64, hasArg bool, h Hooks, body func()) {
	grant := r.net.NewChan(fmt.Sprintf("grant-%d", p.ID()))
	r.req.Send(p, cspReq{class: class, arg: arg, hasArg: hasArg, grant: grant, hooks: h})
	grant.Recv(p)
	body()
	r.rel.Send(p, cspRel{class: class, hooks: h})
}

// --- serializer ------------------------------------------------------

// serializerResource holds one queue and one crowd per class; the
// guarantee is MayStart. The Gate gets its own mutex because guarantees
// are evaluated under the serializer's internal lock at release points
// (lock order serializer → gate, never the reverse). Rank carries the
// class's self-priority measure into the queue ordering; head-only
// eligibility is the serializer's honest limitation and may surface as
// a deadlock finding when a blocked head shields an admissible waiter.
type serializerResource struct {
	s      *serializer.Serializer
	queues []*serializer.Queue
	crowds []*serializer.Crowd
	mu     sync.Mutex
	g      *Gate
}

func newSerializerResource(set *Set) *serializerResource {
	r := &serializerResource{s: serializer.New(set.Name), g: NewGate(set)}
	for _, c := range set.Classes {
		r.queues = append(r.queues, r.s.NewQueue(c.Name))
		r.crowds = append(r.crowds, r.s.NewCrowd(c.Name))
	}
	return r
}

// rank maps a class's self-priority rule onto the queue's rank order
// (ascending): smaller-arg first, larger-arg first, or arrival order.
func (r *serializerResource) rank(class int, w *Waiter) int64 {
	for _, pr := range r.g.set.Priorities {
		if pr.A != class || pr.B != class {
			continue
		}
		switch pr.Cond.(type) {
		case SmallerArg:
			return w.Arg
		case LargerArg:
			return -w.Arg
		}
	}
	return 0
}

func (r *serializerResource) Do(p *kernel.Proc, class int, arg int64, hasArg bool, h Hooks, body func()) {
	r.s.Enter(p)
	r.mu.Lock()
	h.request()
	w := r.g.Arrive(class, arg, hasArg)
	w.Hooks = h
	r.mu.Unlock()
	// Between the guarantee turning true (evaluated at a possession
	// release) and this process resuming with possession, crowd members
	// may have released and shifted the state, so re-check under the
	// gate lock and requeue on a stale pass.
	for {
		//synclint:allow holdwait: the queues are serializer-owned (built via r.s.NewQueue), so EnqueueRank releases possession while parked — the analyzer's component binding only sees composite-literal fields, not slice appends
		r.queues[class].EnqueueRank(p, r.rank(class, w), func() bool {
			r.mu.Lock()
			ok := r.g.MayStart(w)
			r.mu.Unlock()
			return ok
		})
		r.mu.Lock()
		if r.g.MayStart(w) {
			r.g.Grant(w)
			r.mu.Unlock()
			break
		}
		r.mu.Unlock()
	}
	r.crowds[class].Join(p, body)
	r.mu.Lock()
	h.exit()
	r.g.Release(class)
	r.mu.Unlock()
	r.s.Exit(p)
}

// --- pathexpr --------------------------------------------------------

// pathResource wraps each constrained operation in the compiled path
// set; unconstrained classes run their bodies directly. Expressible sets
// never consult the waiting population (pathc.go admits only active-
// count, slot, and alternation conditions), so recording Request on the
// client side is race-free here.
type pathResource struct {
	set   *pathexpr.Set
	names []string
}

func newPathResource(s *Set) (*pathResource, error) {
	srcs, err := PathSources(s)
	if err != nil {
		return nil, err
	}
	r := &pathResource{}
	for _, c := range s.Classes {
		r.names = append(r.names, c.Name)
	}
	if len(srcs) > 0 {
		ps, err := pathexpr.Compile(srcs...)
		if err != nil {
			return nil, fmt.Errorf("synth: compiling generated paths: %w", err)
		}
		r.set = ps
	}
	return r, nil
}

func (r *pathResource) Do(p *kernel.Proc, class int, _ int64, _ bool, h Hooks, body func()) {
	name := r.names[class]
	wrapped := func() {
		h.enter()
		body()
		h.exit()
	}
	h.request()
	if r.set != nil && r.set.Constrained(name) {
		r.set.Exec(p, name, wrapped)
	} else {
		wrapped()
	}
}

// --- naive-gate (broken control) -------------------------------------

// naiveResource is what a first attempt without a discipline looks
// like: it busy-parks on admissibility alone (priority rules ignored →
// ordering violations) and wakes parked processes only on release,
// never on arrival (missed wakeups → deadlock findings).
type naiveResource struct {
	mu     *semaphore.Mutex
	gates  []*semaphore.Semaphore
	parked []int
	g      *Gate
}

func newNaiveResource(set *Set) *naiveResource {
	r := &naiveResource{mu: semaphore.NewMutex(), g: NewGate(set)}
	for range set.Classes {
		r.gates = append(r.gates, semaphore.New(0))
		r.parked = append(r.parked, 0)
	}
	return r
}

func (r *naiveResource) Do(p *kernel.Proc, class int, arg int64, hasArg bool, h Hooks, body func()) {
	r.mu.Lock(p)
	h.request()
	w := r.g.Arrive(class, arg, hasArg)
	w.Hooks = h
	for !r.g.Admissible(w) {
		r.parked[class]++
		r.mu.Unlock(p)
		r.gates[class].P(p)
		r.mu.Lock(p)
		r.parked[class]--
	}
	r.g.Grant(w)
	r.mu.Unlock(p)
	body()
	r.mu.Lock(p)
	h.exit()
	r.g.Release(class)
	for ci := range r.gates {
		for i := 0; i < r.parked[ci]; i++ {
			r.gates[ci].V()
		}
	}
	r.mu.Unlock(p)
}
