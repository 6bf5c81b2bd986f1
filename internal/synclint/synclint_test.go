package synclint

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// runOne parses a single-file fixture package and runs one analyzer.
func runOne(t *testing.T, analyzer *Analyzer, src string) ([]Finding, int) {
	t.Helper()
	pkg, err := LoadSource("fixture", map[string]string{"f.go": src})
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return Run(pkg, []*Analyzer{analyzer})
}

func wantFinding(t *testing.T, findings []Finding, substr string) {
	t.Helper()
	for _, f := range findings {
		if strings.Contains(f.Message, substr) {
			return
		}
	}
	t.Fatalf("no finding containing %q; got %v", substr, findings)
}

func wantClean(t *testing.T, findings []Finding) {
	t.Helper()
	if len(findings) != 0 {
		t.Fatalf("expected no findings, got %v", findings)
	}
}

func TestBracketPositive(t *testing.T) {
	findings, _ := runOne(t, BracketAnalyzer, `
package fixture

func Leaky(p *Proc, m *Monitor, urgent bool) {
	m.Enter(p)
	if urgent {
		return // exits with m still held
	}
	m.Exit(p)
}
`)
	wantFinding(t, findings, "left unbalanced at function exit")
}

func TestBracketNegative(t *testing.T) {
	findings, _ := runOne(t, BracketAnalyzer, `
package fixture

func Deferred(p *Proc, m *Monitor, urgent bool) {
	m.Enter(p)
	defer m.Exit(p)
	if urgent {
		return
	}
}

func Branches(p *Proc, m *Monitor, n int) {
	m.Enter(p)
	if n > 0 {
		n--
	} else {
		n++
	}
	m.Exit(p)
}

// Split-semaphore permit transfer is a legitimate idiom, not an
// imbalance: Deposit P's space and V's items, Remove the reverse.
func Deposit(p *Proc, space, items *Semaphore) {
	space.P(p)
	items.V()
}
`)
	wantClean(t, findings)
}

func TestBracketTracePairs(t *testing.T) {
	findings, _ := runOne(t, BracketAnalyzer, `
package fixture

func Unpaired(p *Proc, rec *Recorder, early bool) {
	rec.Enter(p, "read", 0)
	if early {
		return // missing rec.Exit emission
	}
	rec.Exit(p, "read", 0)
}
`)
	wantFinding(t, findings, "trace")
}

func TestHoldWaitPositive(t *testing.T) {
	findings, _ := runOne(t, HoldWaitAnalyzer, `
package fixture

func Nested(p *Proc, outer, inner *Monitor) {
	outer.Enter(p)
	inner.Enter(p) // nested-monitor hazard
	inner.Exit(p)
	outer.Exit(p)
}
`)
	wantFinding(t, findings, "acquired while outer is held")
}

func TestHoldWaitNegative(t *testing.T) {
	// A Wait on a condition of the HELD monitor releases that monitor by
	// construction — the intended use, not a hazard.
	findings, _ := runOne(t, HoldWaitAnalyzer, `
package fixture

func Consume(p *Proc, m *Monitor) {
	c := m.NewCondition("nonempty")
	m.Enter(p)
	c.Wait(p)
	m.Exit(p)
}
`)
	wantClean(t, findings)
}

func TestHoldWaitTransitive(t *testing.T) {
	// A helper that blocks, called with a bracket held, is the same
	// hazard one call deeper.
	findings, _ := runOne(t, HoldWaitAnalyzer, `
package fixture

func slowGet(p *Proc, inner *Monitor) {
	inner.Enter(p)
	inner.Exit(p)
}

func Outer(p *Proc, outer, inner *Monitor) {
	outer.Enter(p)
	slowGet(p, inner)
	outer.Exit(p)
}
`)
	wantFinding(t, findings, "call to slowGet may block")
}

// TestHeldContextRules pins, with every analyzer and allows ignored, the
// held-context rules holdwait, lockorder and lostwakeup share: what a
// closure's call site, a local component, a P, a nested path operation,
// a spawned body and a crowd body count as held, and that a repeated
// init is a frame of its own.
func TestHeldContextRules(t *testing.T) {
	cases := []struct {
		name, src string
		want      []string // "line: analyzer: message"
	}{{
		name: "local closure is a callee at its call",
		src: `
package fixture

func Outer(p *Proc, outer, inner *Monitor) {
	get := func(p *Proc) {
		inner.Enter(p)
		inner.Exit(p)
	}
	outer.Enter(p)
	get(p)
	outer.Exit(p)
}
`,
		want: []string{"10: holdwait: call to get may block while outer is held"},
	}, {
		name: "closure declared with var is a callee at its call",
		src: `
package fixture

func Outer(p *Proc, outer, inner *Monitor) {
	var get = func(p *Proc) {
		inner.Enter(p)
		inner.Exit(p)
	}
	outer.Enter(p)
	get(p)
	outer.Exit(p)
}
`,
		want: []string{"10: holdwait: call to get may block while outer is held"},
	}, {
		name: "wait on a local condition of the held monitor",
		src: `
package fixture

func Consume(p *Proc, m *Monitor) {
	c := m.NewCondition("nonempty")
	m.Enter(p)
	c.Wait(p)
	m.Exit(p)
}
`,
	}, {
		name: "a P is not an exclusion bracket",
		src: `
package fixture

func Take(p *Proc, s *Semaphore, m *Monitor) {
	s.P(p)
	m.Enter(p)
	m.Exit(p)
	s.V()
}
`,
	}, {
		name: "path operation nested in the same path set",
		src: `
package fixture

func RequestRead(p *Proc, set *Set, body func()) {
	set.Exec(p, "requestread", func() {
		set.Exec(p, "read", body)
	})
}
`,
	}, {
		name: "spawned body is a frame of its own",
		src: `
package fixture

func Worker(k *Kernel, a, b *Monitor) {
	k.Spawn("worker", func(p *Proc) {
		a.Enter(p)
		b.Enter(p)
		b.Exit(p)
		a.Exit(p)
	})
}
`,
		want: []string{"7: holdwait: b acquired while a is held"},
	}, {
		name: "crowd body runs with nothing held",
		src: `
package fixture

func Visit(p *Proc, s *Serializer, c *Crowd, m *Monitor) {
	s.Enter(p)
	c.Join(p, func() {
		m.Enter(p)
		m.Exit(p)
	})
	s.Exit(p)
}
`,
		want: []string{"6: holdwait: Join on c blocks while s is held"},
	}, {
		name: "each init is a function of its own",
		src: `
package fixture

var a, b *Monitor

func init() {
	p := Self()
	a.Enter(p)
	b.Enter(p)
	b.Exit(p)
	a.Exit(p)
}

func init() {
	p := Self()
	b.Enter(p)
	a.Enter(p)
	a.Exit(p)
	b.Exit(p)
}
`,
		want: []string{
			"9: holdwait: b acquired while a is held",
			"9: lockorder: potential cyclic wait: a → b → a (b acquired while a held at f.go:9 in init; a acquired while b held at f.go:17 in init@f.go:14)",
			"17: holdwait: a acquired while b is held",
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg, err := LoadSource("fixture", map[string]string{"f.go": tc.src})
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range RunAll(pkg, Analyzers()) {
				got = append(got, fmt.Sprintf("%d: %s: %s", f.Pos.Line, f.Analyzer, f.Message))
			}
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

const escapeFixture = `
package fixture

import (
	"example/internal/ccr"
	"example/internal/kernel"
	"example/internal/monitor"
)

// Counter guards its state by discipline but leaks a read outside the
// bracket: not mechanism-bound.
type Counter struct {
	m *monitor.Monitor
	n int
}

func (c *Counter) Inc(p *kernel.Proc) {
	c.m.Enter(p)
	c.n++
	c.m.Exit(p)
}

func (c *Counter) Peek(p *kernel.Proc) int {
	return c.n // escaped access
}

// Cell's state is only touched inside bodies the region itself runs:
// mechanism-bound, structurally.
type Cell struct {
	r *ccr.Region
	v int
}

func (c *Cell) Set(p *kernel.Proc, x int) {
	c.r.Execute(p, func() bool { return true }, func() { c.v = x })
}

func (c *Cell) Get(p *kernel.Proc) int {
	out := 0
	c.r.Execute(p, func() bool { return true }, func() { out = c.v })
	return out
}
`

func TestEscapePositiveAndNegative(t *testing.T) {
	findings, _ := runOne(t, EscapeAnalyzer, escapeFixture)
	wantFinding(t, findings, "Counter.n accessed outside any synchronization bracket in Counter.Peek")
	for _, f := range findings {
		if strings.Contains(f.Message, "Cell.") {
			t.Fatalf("structurally protected Cell access reported: %v", f)
		}
	}
}

func TestEscapeSummary(t *testing.T) {
	pkg, err := LoadSource("fixture", map[string]string{"f.go": escapeFixture})
	if err != nil {
		t.Fatal(err)
	}
	sum, _ := AnalyzeEscape(pkg)
	if len(sum.Types) != 2 {
		t.Fatalf("want 2 analyzed types, got %+v", sum.Types)
	}
	byName := map[string]TypeEscape{}
	for _, te := range sum.Types {
		byName[te.Type] = te
	}
	if byName["Counter"].Bound() {
		t.Errorf("Counter should not be mechanism-bound: %+v", byName["Counter"])
	}
	if !byName["Cell"].Bound() {
		t.Errorf("Cell should be mechanism-bound: %+v", byName["Cell"])
	}
	if sum.Encapsulated() {
		t.Errorf("1 of 2 bound is not a majority; Encapsulated() = true")
	}
}

func TestEscapeSkipsMechanismFreePackages(t *testing.T) {
	pkg, err := LoadSource("fixture", map[string]string{"f.go": `
package fixture

type Plain struct{ n int }

func (p *Plain) Inc(q *Proc) { p.n++ }
`})
	if err != nil {
		t.Fatal(err)
	}
	sum, findings := AnalyzeEscape(pkg)
	if len(sum.Types) != 0 || len(findings) != 0 {
		t.Fatalf("package without mechanism imports should be vacuous, got %+v %v", sum, findings)
	}
}

func TestSignalStatePositive(t *testing.T) {
	findings, _ := runOne(t, SignalStateAnalyzer, `
package fixture

func Hollow(p *Proc, m *Monitor, c *Condition) {
	m.Enter(p)
	c.Signal(p) // nothing changed; waiters re-check unchanged state
	m.Exit(p)
}
`)
	wantFinding(t, findings, "no state change")
}

func TestSignalStateNegative(t *testing.T) {
	findings, _ := runOne(t, SignalStateAnalyzer, `
package fixture

func Produce(p *Proc, m *Monitor, c *Condition, buf *Buffer) {
	m.Enter(p)
	buf.count++
	c.Signal(p)
	m.Exit(p)
}

// The cascade idiom: waking from a Wait and passing the signal on is
// signal propagation, not a hollow signal.
func Cascade(p *Proc, m *Monitor, c *Condition) {
	m.Enter(p)
	c.Wait(p)
	c.Signal(p)
	m.Exit(p)
}
`)
	wantClean(t, findings)
}

func TestKernelAPIPositive(t *testing.T) {
	findings, _ := runOne(t, KernelAPIAnalyzer, `
package fixture

func CapturesProc(p *Proc, k *Kernel) {
	k.Spawn("child", func(q *Proc) {
		p.Yield() // p belongs to the spawning process
	})
}

func SpawnAfterRun(k *Kernel) {
	k.Spawn("early", func(p *Proc) {})
	k.Run()
	k.Spawn("late", func(p *Proc) {})
}
`)
	wantFinding(t, findings, "captures p")
	wantFinding(t, findings, "Spawn on k after k.Run() returned")
}

func TestKernelAPINegative(t *testing.T) {
	findings, _ := runOne(t, KernelAPIAnalyzer, `
package fixture

func OwnProc(p *Proc, k *Kernel) {
	k.Spawn("child", func(q *Proc) {
		q.Yield()
	})
	k.Run()
}

func FreshKernel(k *Kernel) {
	k.Run()
	k = NewKernel()
	k.Spawn("next", func(p *Proc) {})
	k.Run()
}
`)
	wantClean(t, findings)
}

// Reset revives a finished kernel for another Spawn/Run cycle — the run
// recycling idiom the exploration engine's pool depends on — and Close
// merely releases pooled workers, so neither may trip the post-Run check.
func TestKernelAPIResetAfterRun(t *testing.T) {
	findings, _ := runOne(t, KernelAPIAnalyzer, `
package fixture

func Recycled(k *Kernel) {
	for i := 0; i < 3; i++ {
		k.Spawn("worker", func(p *Proc) {})
		k.Run()
		k.Reset()
	}
	k.Close()
}

func ResetThenSpawn(k *Kernel) {
	k.Spawn("first", func(p *Proc) {})
	k.Run()
	k.Reset()
	k.Spawn("second", func(p *Proc) {})
	k.Run()
}
`)
	wantClean(t, findings)
}

// Reset clears the taint only for its own receiver: Spawn on a different
// kernel that already ran is still a finding.
func TestKernelAPIResetOtherKernel(t *testing.T) {
	findings, _ := runOne(t, KernelAPIAnalyzer, `
package fixture

func WrongKernelReset(k1, k2 *Kernel) {
	k1.Run()
	k2.Reset()
	k1.Spawn("late", func(p *Proc) {})
}
`)
	wantFinding(t, findings, "Spawn on k1 after k1.Run() returned")
}

func TestKernelAPINestedSpawnCapture(t *testing.T) {
	findings, _ := runOne(t, KernelAPIAnalyzer, `
package fixture

func Nested(k *Kernel) {
	k.Spawn("outer", func(p *Proc) {
		k.Spawn("inner", func(q *Proc) {
			p.Unpark(nil) // p is the outer body's process
		})
	})
}
`)
	wantFinding(t, findings, "captures p")
}

func TestAllowAnnotations(t *testing.T) {
	// Line-level, function-level, and file-level suppressions.
	src := `
package fixture

func LineAllowed(p *Proc, outer, inner *Monitor) {
	outer.Enter(p)
	//synclint:allow holdwait: deliberate naive demo
	inner.Enter(p)
	inner.Exit(p)
	outer.Exit(p)
}

// FuncAllowed demonstrates the hazard on purpose.
//
//synclint:allow holdwait: the whole function is the demo
func FuncAllowed(p *Proc, outer, inner *Monitor) {
	outer.Enter(p)
	inner.Enter(p)
	inner.Exit(p)
	outer.Exit(p)
}
`
	findings, suppressed := runOne(t, HoldWaitAnalyzer, src)
	wantClean(t, findings)
	if suppressed != 2 {
		t.Fatalf("want 2 suppressed findings, got %d", suppressed)
	}

	// The annotation names a specific analyzer: others still fire.
	findings, _ = runOne(t, BracketAnalyzer, `
package fixture

func WrongName(p *Proc, m *Monitor) {
	//synclint:allow holdwait
	m.Enter(p)
}
`)
	wantFinding(t, findings, "left unbalanced")

	// ": reason" is the one syntax; the old "-- reason" form is a bare
	// allow and reported as one.
	findings, _ = runOne(t, HoldWaitAnalyzer, `
package fixture

func Dashed(p *Proc, outer, inner *Monitor) {
	outer.Enter(p)
	//synclint:allow holdwait -- no longer a reason
	inner.Enter(p)
	inner.Exit(p)
	outer.Exit(p)
}
`)
	wantFinding(t, findings, "lacks a reason")
}

// FuzzParseAllow holds the allow-annotation syntax: any comment text
// parses or is ignored without a panic, an accepted annotation names at
// least one analyzer, and re-rendered as //synclint:allow <names>:
// <reason> it parses back to the same names and reason.
func FuzzParseAllow(f *testing.F) {
	for _, seed := range []string{
		"//synclint:allow holdwait,lockorder: CHP problem 1 blocks on w under the count mutex",
		"//synclint:allow holdwait",
		"//synclint:allow: every analyzer, with a reason",
		"//synclint:allow holdwait -- the old delimiter is a bare allow",
		"//synclint:allow-file bracket: split across files",
		"//synclint:allowance is prose, not an annotation",
		"// see //synclint:allow for the syntax",
		"//synclint:allow\tescape , signalstate:\treason: with a colon ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		names, reason, ok := parseAllow(text, "synclint:allow")
		if !ok {
			return
		}
		if len(names) == 0 {
			t.Fatalf("%q: accepted with no analyzer", text)
		}
		list := make([]string, 0, len(names))
		for n := range names {
			list = append(list, n)
		}
		slices.Sort(list)
		again := "//synclint:allow " + strings.Join(list, ",") + ": " + reason
		names2, reason2, ok := parseAllow(again, "synclint:allow")
		if !ok || reason2 != reason || len(names2) != len(names) {
			t.Fatalf("%q re-rendered as %q parses to %v %q %v", text, again, names2, reason2, ok)
		}
		for n := range names {
			if !names2[n] {
				t.Fatalf("%q re-rendered as %q lost analyzer %q", text, again, n)
			}
		}
	})
}
