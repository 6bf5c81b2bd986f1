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
//
// Per-process objects: a process has at most one operation in flight, so
// what an operation needs beyond its arguments — the Waiter, the
// monitor's private condition, the semaphore adapter's private
// semaphore, the CSP grant channel and message slots, the closures the
// ccr, serializer and pathexpr adapters hand their mechanism — belongs
// to the process's op and is built on its first operation. A recycled
// program (program.go) keeps one op per process and one adapter per
// kernel slot, so a warm run allocates nothing; NewResource, the
// real-kernel path, builds a fresh adapter and gives every Do a fresh
// op.

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

// op is one process's operation in flight: who runs it, what it asks
// for, and the Waiter the adapter queues it as. The Waiter's Aux holds
// the adapter's per-process objects, built on the op's first use; a
// recycled program refills the same op every round (program.go).
type op struct {
	p      *kernel.Proc
	class  int
	arg    int64
	hasArg bool
	h      Hooks
	body   func()
	w      Waiter
	wake   []*semaphore.Semaphore // the semaphore adapter's grant scratch
	// reset, when set, empties the per-process object a process may be
	// left blocked on when a run is cut short; a recycled program calls
	// it at the start of every run.
	reset func()
}

// adapter is one mechanism's implementation of the Gate policy.
type adapter interface {
	// start readies the adapter for a run on k: it returns the Gate and
	// every mechanism object to their state before any operation (a run
	// cut by deadlock or Stop leaves processes queued), and the CSP
	// adapter spawns its server.
	start(k kernel.Kernel)
	// do runs o's operation.
	do(o *op)
}

// fresh is the Resource NewResource returns: each Do is a new op.
type fresh struct{ a adapter }

func (f fresh) Do(p *kernel.Proc, class int, arg int64, hasArg bool, h Hooks, body func()) {
	f.a.do(&op{p: p, class: class, arg: arg, hasArg: hasArg, h: h, body: body})
}

// NewResource builds the mechanism's adapter for the set. The kernel is
// needed only by csp (its gate is a server process).
func NewResource(mech string, set *Set, k kernel.Kernel) (Resource, error) {
	a, err := newAdapter(mech, set)
	if err != nil {
		return nil, err
	}
	a.start(k)
	return fresh{a}, nil
}

func newAdapter(mech string, set *Set) (adapter, error) {
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
		return newCSPResource(set), nil
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

// monitorResource keeps the Gate as monitor state; every process waits
// on its own condition, and whoever changes the state (arrival or
// release) runs the grant loop and signals the newly admitted.
type monitorResource struct {
	m *monitor.Monitor
	g *Gate
}

func (r *monitorResource) start(kernel.Kernel) {
	r.m.Reset()
	r.g.Reset()
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

func (r *monitorResource) do(o *op) {
	p, w := o.p, &o.w
	cond, ok := w.Aux.(*monitor.Condition)
	if !ok {
		cond = r.m.NewCondition(fmt.Sprintf("grant-%d", p.ID()))
		w.Aux, o.reset = cond, cond.Reset
	}
	r.m.Enter(p)
	o.h.request()
	r.g.Enqueue(w, o.class, o.arg, o.hasArg)
	w.Hooks = o.h
	r.grantAll(p, w)
	for !w.Granted() {
		cond.Wait(p)
	}
	r.m.Exit(p)
	o.body()
	r.m.Enter(p)
	o.h.exit()
	r.g.Release(o.class)
	r.grantAll(p, nil)
	r.m.Exit(p)
}

// --- semaphore -------------------------------------------------------

// semResource guards the Gate with a mutex and parks each waiter on its
// process's private binary semaphore: the exact-baton idiom — every
// grant decided under the lock is paid with exactly one V, so the
// semaphore is back at zero when the operation ends.
type semResource struct {
	mu *semaphore.Mutex
	g  *Gate
}

func (r *semResource) start(kernel.Kernel) {
	r.mu.Reset()
	r.g.Reset()
}

// grantAll grants every waiter that may start and appends the private
// semaphores of those other than self to wake, for V after the unlock.
func (r *semResource) grantAll(wake []*semaphore.Semaphore, self *Waiter) []*semaphore.Semaphore {
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

func (r *semResource) do(o *op) {
	p, w := o.p, &o.w
	sem, ok := w.Aux.(*semaphore.Semaphore)
	if !ok {
		sem = semaphore.New(0)
		w.Aux, o.reset = sem, sem.Reset
	}
	r.mu.Lock(p)
	o.h.request()
	r.g.Enqueue(w, o.class, o.arg, o.hasArg)
	w.Hooks = o.h
	o.wake = r.grantAll(o.wake[:0], w)
	granted := w.Granted()
	r.mu.Unlock(p)
	for _, s := range o.wake {
		s.V()
	}
	if !granted {
		sem.P(p)
	}
	o.body()
	r.mu.Lock(p)
	o.h.exit()
	r.g.Release(o.class)
	o.wake = r.grantAll(o.wake[:0], nil)
	r.mu.Unlock(p)
	for _, s := range o.wake {
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

// ccrProc is one process's region bodies and guard, bound to its op
// once.
type ccrProc struct {
	arrive, grant, release func()
	mayStart               func() bool
}

func (r *ccrResource) start(kernel.Kernel) {
	r.region.Reset()
	r.g.Reset()
}

func (r *ccrResource) bind(o *op) *ccrProc {
	w := &o.w
	return &ccrProc{
		arrive: func() {
			o.h.request()
			r.g.Enqueue(w, o.class, o.arg, o.hasArg)
			w.Hooks = o.h
			if r.g.MayStart(w) {
				r.g.Grant(w)
			}
		},
		mayStart: func() bool { return r.g.MayStart(w) },
		grant:    func() { r.g.Grant(w) },
		release: func() {
			o.h.exit()
			r.g.Release(o.class)
		},
	}
}

func (r *ccrResource) do(o *op) {
	c, ok := o.w.Aux.(*ccrProc)
	if !ok {
		c = r.bind(o)
		o.w.Aux = c
	}
	r.region.Execute(o.p, ccr.True, c.arrive)
	if !o.w.Granted() {
		r.region.Execute(o.p, c.mayStart, c.grant)
	}
	o.body()
	r.region.Execute(o.p, ccr.True, c.release)
}

// --- csp -------------------------------------------------------------

// cspResource hides the Gate inside a server process: clients send a
// request naming their private grant channel, the server loops on
// alternation over requests and releases, granting by rendezvous. After
// every communication the server drains the channels' pending senders
// (the same discipline as the handwritten rwServer) so the grant policy
// always decides on the complete announced state.
type cspResource struct {
	name  string // the server process's name
	net   *csp.Net
	req   *csp.Chan
	rel   *csp.Chan
	cases []csp.Case
	g     *Gate
	serve func(p *kernel.Proc) // server, bound once
}

// cspProc is one client's grant channel and message slots. A client
// sends a pointer to its slot, not a boxed copy. The server can fire a
// round's Exit after the client has begun its next round, so each slot
// carries its round's Hooks by value, and requests and releases have
// separate slots: a client fills its release slot again only after its
// next grant, and its request slot only after its last one was granted —
// both after the server consumed the slot's previous message.
type cspProc struct {
	grant *csp.Chan
	req   cspReq
	rel   cspRel
}

type cspReq struct {
	w      *Waiter // the client's, queued by the server
	class  int
	arg    int64
	hasArg bool
	hooks  Hooks
}

type cspRel struct {
	class int
	hooks Hooks
}

func newCSPResource(set *Set) *cspResource {
	r := &cspResource{name: set.Name + "-gate", net: csp.NewNet(), g: NewGate(set)}
	r.req = r.net.NewChan("req")
	r.rel = r.net.NewChan("rel")
	r.cases = []csp.Case{{Chan: r.req}, {Chan: r.rel}}
	r.serve = r.server
	return r
}

func (r *cspResource) start(k kernel.Kernel) {
	r.net.Reset()
	r.req.Reset()
	r.rel.Reset()
	r.g.Reset()
	k.SpawnDaemon(r.name, r.serve)
}

func (r *cspResource) apply(i int, v any) {
	if i == 0 {
		m := v.(*cspReq)
		m.hooks.request()
		r.g.Enqueue(m.w, m.class, m.arg, m.hasArg)
		m.w.Hooks = m.hooks
	} else {
		m := v.(*cspRel)
		m.hooks.exit()
		r.g.Release(m.class)
	}
}

// drain applies every pending message; each Select returns at once, since
// a sender waits.
func (r *cspResource) drain(p *kernel.Proc) {
	for r.req.Pending()+r.rel.Pending() > 0 {
		r.apply(csp.Select(p, r.cases))
	}
}

func (r *cspResource) server(p *kernel.Proc) {
	for {
		r.apply(csp.Select(p, r.cases))
		r.drain(p)
		for {
			w := r.g.NextGrant()
			if w == nil {
				break
			}
			r.g.Grant(w)
			w.Aux.(*cspProc).grant.Send(p, nil)
			r.drain(p)
		}
	}
}

func (r *cspResource) do(o *op) {
	p := o.p
	c, ok := o.w.Aux.(*cspProc)
	if !ok {
		c = &cspProc{grant: r.net.NewChan(fmt.Sprintf("grant-%d", p.ID()))}
		o.w.Aux, o.reset = c, c.grant.Reset
	}
	c.req = cspReq{w: &o.w, class: o.class, arg: o.arg, hasArg: o.hasArg, hooks: o.h}
	r.req.Send(p, &c.req)
	c.grant.Recv(p)
	o.body()
	c.rel = cspRel{class: o.class, hooks: o.h}
	r.rel.Send(p, &c.rel)
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

func (r *serializerResource) start(kernel.Kernel) {
	r.s.Reset()
	r.g.Reset()
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

// mayStart is a process's guarantee: its waiter may start. It is bound
// to the op once and kept in the Waiter's Aux.
func (r *serializerResource) mayStart(w *Waiter) func() bool {
	return func() bool {
		r.mu.Lock()
		ok := r.g.MayStart(w)
		r.mu.Unlock()
		return ok
	}
}

func (r *serializerResource) do(o *op) {
	p, w := o.p, &o.w
	guarantee, ok := w.Aux.(func() bool)
	if !ok {
		guarantee = r.mayStart(w)
		w.Aux = guarantee
	}
	r.s.Enter(p)
	r.mu.Lock()
	o.h.request()
	r.g.Enqueue(w, o.class, o.arg, o.hasArg)
	w.Hooks = o.h
	r.mu.Unlock()
	// Between the guarantee turning true (evaluated at a possession
	// release) and this process resuming with possession, crowd members
	// may have released and shifted the state, so re-check under the
	// gate lock and requeue on a stale pass.
	for {
		//synclint:allow holdwait: the queues are serializer-owned (built via r.s.NewQueue), so EnqueueRank releases possession while parked — the analyzer's component binding only sees composite-literal fields, not slice appends
		r.queues[o.class].EnqueueRank(p, r.rank(o.class, w), guarantee)
		r.mu.Lock()
		if r.g.MayStart(w) {
			r.g.Grant(w)
			r.mu.Unlock()
			break
		}
		r.mu.Unlock()
	}
	r.crowds[o.class].Join(p, o.body)
	r.mu.Lock()
	o.h.exit()
	r.g.Release(o.class)
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

func (r *pathResource) start(kernel.Kernel) {
	if r.set != nil {
		r.set.Reset()
	}
}

func (r *pathResource) do(o *op) {
	wrapped, ok := o.w.Aux.(func())
	if !ok {
		// The operation as the path set runs it, bound to the op once.
		wrapped = func() {
			o.h.enter()
			o.body()
			o.h.exit()
		}
		o.w.Aux = wrapped
	}
	name := r.names[o.class]
	o.h.request()
	if r.set != nil && r.set.Constrained(name) {
		r.set.Exec(o.p, name, wrapped)
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

func (r *naiveResource) start(kernel.Kernel) {
	r.mu.Reset()
	r.g.Reset()
	for _, s := range r.gates {
		s.Reset()
	}
	clear(r.parked)
}

func (r *naiveResource) do(o *op) {
	p, w := o.p, &o.w
	r.mu.Lock(p)
	o.h.request()
	r.g.Enqueue(w, o.class, o.arg, o.hasArg)
	w.Hooks = o.h
	for !r.g.Admissible(w) {
		r.parked[o.class]++
		r.mu.Unlock(p)
		r.gates[o.class].P(p)
		r.mu.Lock(p)
		r.parked[o.class]--
	}
	r.g.Grant(w)
	r.mu.Unlock(p)
	o.body()
	r.mu.Lock(p)
	o.h.exit()
	r.g.Release(o.class)
	for ci := range r.gates {
		for i := 0; i < r.parked[ci]; i++ {
			r.gates[ci].V()
		}
	}
	r.mu.Unlock(p)
}
