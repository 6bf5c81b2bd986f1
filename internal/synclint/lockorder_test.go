package synclint

import (
	"strings"
	"testing"
)

func TestLockOrderPositive(t *testing.T) {
	findings, _ := runOne(t, LockOrderAnalyzer, `
package fixture

type Accounts struct {
	ma *Monitor
	mb *Monitor
}

func (a *Accounts) Transfer(p *Proc) {
	a.ma.Enter(p)
	a.mb.Enter(p)
	a.mb.Exit(p)
	a.ma.Exit(p)
}

func (a *Accounts) Audit(p *Proc) {
	a.mb.Enter(p)
	a.ma.Enter(p)
	a.ma.Exit(p)
	a.mb.Exit(p)
}
`)
	wantFinding(t, findings, "potential cyclic wait")
	wantFinding(t, findings, "Accounts.ma")
	wantFinding(t, findings, "Accounts.mb")
	if len(findings) != 1 {
		t.Fatalf("want exactly one cycle finding, got %v", findings)
	}
}

func TestLockOrderNegative(t *testing.T) {
	findings, _ := runOne(t, LockOrderAnalyzer, `
package fixture

type Accounts struct {
	ma *Monitor
	mb *Monitor
}

// Both methods respect the same ma → mb order: no cycle.
func (a *Accounts) Transfer(p *Proc) {
	a.ma.Enter(p)
	a.mb.Enter(p)
	a.mb.Exit(p)
	a.ma.Exit(p)
}

func (a *Accounts) Audit(p *Proc) {
	a.ma.Enter(p)
	a.mb.Enter(p)
	a.mb.Exit(p)
	a.ma.Exit(p)
}
`)
	wantClean(t, findings)
}

func TestLockOrderInterprocedural(t *testing.T) {
	// The inversion is only visible through the helper: Fwd locks a then
	// hands b to lockIt, Rev the reverse. The parameter summary must be
	// instantiated with the caller's field at each call site.
	findings, _ := runOne(t, LockOrderAnalyzer, `
package fixture

type Pair struct {
	a *Mutex
	b *Mutex
}

func lockIt(p *Proc, m *Mutex) {
	m.Lock(p)
}

func (d *Pair) Fwd(p *Proc) {
	d.a.Lock(p)
	lockIt(p, d.b)
	d.b.Unlock(p)
	d.a.Unlock(p)
}

func (d *Pair) Rev(p *Proc) {
	d.b.Lock(p)
	lockIt(p, d.a)
	d.a.Unlock(p)
	d.b.Unlock(p)
}
`)
	wantFinding(t, findings, "potential cyclic wait")
	wantFinding(t, findings, "lockIt")
}

func TestLockOrderSelfEdgeIgnored(t *testing.T) {
	// Re-entering the same monitor is holdwait's finding, not a cycle.
	findings, _ := runOne(t, LockOrderAnalyzer, `
package fixture

type One struct {
	m *Monitor
}

func (o *One) Twice(p *Proc) {
	o.m.Enter(p)
	o.m.Enter(p)
	o.m.Exit(p)
	o.m.Exit(p)
}
`)
	wantClean(t, findings)
}

func TestLockOrderInterfaceSemaphore(t *testing.T) {
	// A split semaphore reached through an interface (semscale.Sem) is a
	// semaphore all the same: the typed veto must not drop its P and V,
	// or the mutex/semaphore inversion holdwait reports on the same line
	// never becomes a cycle.
	findings, _ := runOne(t, LockOrderAnalyzer, `
package fixture

import (
	"repro/internal/kernel"
	"repro/internal/semaphore"
)

type Sem interface {
	P(p *kernel.Proc)
	V()
}

type Store struct {
	mutex *semaphore.Mutex
	w     Sem
	rc    int
}

func (d *Store) Read(p *kernel.Proc) {
	d.mutex.Lock(p)
	d.rc++
	if d.rc == 1 {
		d.w.P(p)
	}
	d.mutex.Unlock(p)
	d.mutex.Lock(p)
	d.rc--
	if d.rc == 0 {
		d.w.V()
	}
	d.mutex.Unlock(p)
}
`)
	wantFinding(t, findings, "potential cyclic wait: Store.mutex → Store.w → Store.mutex")
	if len(findings) != 1 || findings[0].Pos.Line != 24 {
		t.Fatalf("want one cycle anchored at the P on line 24, got %v", findings)
	}
}

const broadcastFixtureDecl = `
package fixture

type Buf struct {
	m        *Monitor
	notEmpty *Condition
	n        int
}

func NewBuf() *Buf {
	b := &Buf{}
	b.m = New("buf")
	b.notEmpty = b.m.NewCondition("notEmpty")
	return b
}
`

func TestLostWakeupBroadcastIfWait(t *testing.T) {
	findings, _ := runOne(t, LostWakeupAnalyzer, broadcastFixtureDecl+`
func (b *Buf) Get(p *Proc) {
	b.m.Enter(p)
	if b.n == 0 {
		b.notEmpty.Wait(p)
	}
	b.n--
	b.m.Exit(p)
}

func (b *Buf) PutAll(p *Proc) {
	b.m.Enter(p)
	b.n += 10
	b.notEmpty.SignalAll(p)
	b.m.Exit(p)
}
`)
	wantFinding(t, findings, "broadcast with SignalAll")
}

func TestLostWakeupBroadcastLoopClean(t *testing.T) {
	// The guard is re-checked in a loop: broadcast is safe.
	findings, _ := runOne(t, LostWakeupAnalyzer, broadcastFixtureDecl+`
func (b *Buf) Get(p *Proc) {
	b.m.Enter(p)
	for b.n == 0 {
		b.notEmpty.Wait(p)
	}
	b.n--
	b.m.Exit(p)
}

func (b *Buf) PutAll(p *Proc) {
	b.m.Enter(p)
	b.n += 10
	b.notEmpty.SignalAll(p)
	b.m.Exit(p)
}
`)
	wantClean(t, findings)
}

func TestLostWakeupHoareSignalIfWaitClean(t *testing.T) {
	// Plain Signal hands the monitor straight to the waiter
	// (signal-and-urgent-wait), so an if-guarded wait is the paper's
	// own idiom and must not be flagged.
	findings, _ := runOne(t, LostWakeupAnalyzer, broadcastFixtureDecl+`
func (b *Buf) Get(p *Proc) {
	b.m.Enter(p)
	if b.n == 0 {
		b.notEmpty.Wait(p)
	}
	b.n--
	b.m.Exit(p)
}

func (b *Buf) Put(p *Proc) {
	b.m.Enter(p)
	b.n++
	b.notEmpty.Signal(p)
	b.m.Exit(p)
}
`)
	wantClean(t, findings)
}

func TestLostWakeupCheckThenPark(t *testing.T) {
	findings, _ := runOne(t, LostWakeupAnalyzer, broadcastFixtureDecl+`
func (b *Buf) BadGet(p *Proc) {
	if b.n == 0 {
		b.notEmpty.Wait(p)
	}
	b.n--
}
`)
	wantFinding(t, findings, "check-then-park")
}

func TestLostWakeupParkInsideOwnerClean(t *testing.T) {
	// The owning monitor is held at the wait — directly in Get, and
	// through the caller's Enter for the helper variant.
	findings, _ := runOne(t, LostWakeupAnalyzer, broadcastFixtureDecl+`
func (b *Buf) waitEmpty(p *Proc) {
	b.notEmpty.Wait(p)
}

func (b *Buf) Get(p *Proc) {
	b.m.Enter(p)
	if b.n == 0 {
		b.waitEmpty(p)
	}
	b.n--
	b.m.Exit(p)
}
`)
	wantClean(t, findings)
}

func TestLostWakeupParkCoveredInCalleeClean(t *testing.T) {
	// A callee that enters the owner itself around its wait asks nothing
	// of its caller: neither the method called from a root nor the local
	// closure called from a spawned body is a check-then-park window.
	findings, _ := runOne(t, LostWakeupAnalyzer, broadcastFixtureDecl+`
func (b *Buf) Get(p *Proc) {
	b.m.Enter(p)
	for b.n == 0 {
		b.notEmpty.Wait(p)
	}
	b.n--
	b.m.Exit(p)
}

func (b *Buf) Drain(p *Proc) {
	b.Get(p)
}

func Serve(k *Kernel, m *Monitor) {
	c := m.NewCondition("ready")
	get := func(p *Proc) {
		m.Enter(p)
		c.Wait(p)
		m.Exit(p)
	}
	k.Spawn("consumer", func(p *Proc) { get(p) })
}
`)
	wantClean(t, findings)
}

func TestLostWakeupLocalConditionOutsideOwner(t *testing.T) {
	// The owner of a local condition is the monitor it was made from; a
	// spawned body reaching its wait through a closure holds nothing.
	findings, _ := runOne(t, LostWakeupAnalyzer, `
package fixture

func Serve(k *Kernel) {
	m := New("serve")
	c := m.NewCondition("ready")
	wait := func(p *Proc) { c.Wait(p) }
	k.Spawn("consumer", func(p *Proc) { wait(p) })
}
`)
	wantFinding(t, findings, "Serve parks on Serve.c without holding its owner Serve.m")
	wantFinding(t, findings, "via wait (f.go:8)")
}

func TestAllowRequiresReason(t *testing.T) {
	// A reasoned allow (colon form) suppresses silently; a bare allow
	// suppresses but is itself reported.
	findings, suppressed := runOne(t, HoldWaitAnalyzer, `
package fixture

func Reasoned(p *Proc, outer, inner *Monitor) {
	outer.Enter(p)
	//synclint:allow holdwait: nesting is the demo
	inner.Enter(p)
	inner.Exit(p)
	outer.Exit(p)
}

func Bare(p *Proc, outer, inner *Monitor) {
	outer.Enter(p)
	//synclint:allow holdwait
	inner.Enter(p)
	inner.Exit(p)
	outer.Exit(p)
}
`)
	if suppressed != 2 {
		t.Fatalf("want both findings suppressed, got %d", suppressed)
	}
	wantFinding(t, findings, "lacks a reason")
	for _, f := range findings {
		if f.Analyzer != "allow" {
			t.Fatalf("unexpected non-allow finding %v", f)
		}
		if !strings.Contains(f.Message, "holdwait") {
			t.Fatalf("allow finding should name the suppressed analyzer: %v", f)
		}
	}
	if len(findings) != 1 {
		t.Fatalf("want exactly one bare-allow finding, got %v", findings)
	}
}

func TestRunAllIgnoresAllows(t *testing.T) {
	pkg, err := LoadSource("fixture", map[string]string{"f.go": `
package fixture

func Allowed(p *Proc, outer, inner *Monitor) {
	outer.Enter(p)
	//synclint:allow holdwait: annotated on purpose
	inner.Enter(p)
	inner.Exit(p)
	outer.Exit(p)
}
`})
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	findings := RunAll(pkg, []*Analyzer{HoldWaitAnalyzer})
	wantFinding(t, findings, "while") // the raw holdwait finding is visible
}
