package synclint

import (
	"go/ast"
	"sort"
	"strings"
)

// LostWakeupAnalyzer flags wait-side lost-wakeup hazards, complementing
// signalstate's signal-side hygiene. Two patterns:
//
//  1. Broadcast if-wait. Under Hoare signal-and-urgent-wait semantics a
//     plain Signal hands the monitor directly to the one waiter it
//     wakes, so `if !ok { c.Wait(p) }` is correct — the guard holds by
//     the signaller's invariant when the waiter resumes. SignalAll has
//     no such contract: it drains the condition, and every waiter after
//     the first re-acquires the monitor later, against state the
//     earlier ones may have consumed. A wait on a condition that is
//     broadcast anywhere in the package must therefore re-check its
//     guard in a loop; an if-guarded wait with no enclosing loop is a
//     lost wakeup waiting to happen.
//
//  2. Check-then-park window. A condition wait (or queue enqueue, crowd
//     join) reached while its owning monitor/serializer is not held:
//     the guard check and the park are not atomic, so the wakeup can
//     fire in the window between them and be lost. Held context is the
//     interprocedural summary replay, so an Enter in the caller covers
//     a wait in a helper; the check runs on call-graph roots, where the
//     full context is visible.
var LostWakeupAnalyzer = &Analyzer{
	Name: "lostwakeup",
	Doc:  "if-guarded wait on a broadcast condition, or a park outside its owning monitor",
	run:  runLostWakeup,
}

func runLostWakeup(pass *Pass) {
	m := pass.Model

	var fnKeys []string
	for k, fn := range m.Funcs {
		if fn.Decl.Body != nil {
			fnKeys = append(fnKeys, k)
		}
	}
	sort.Strings(fnKeys)

	// Pass 1: conditions broadcast anywhere in the package, by lock key.
	broadcast := map[string]bool{}
	for _, key := range fnKeys {
		fn := m.Funcs[key]
		r := newRefResolver(m, fn)
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "SignalAll" {
				return true
			}
			op := classifyCall(call)
			if op.Class != OpSignal || !m.isMechOp(op) {
				return true
			}
			if ref := r.ref(op.Recv); ref.valid() {
				broadcast[ref.Key] = true
			}
			return true
		})
	}

	// Pass 2: if-guarded waits on broadcast conditions.
	for _, key := range fnKeys {
		fn := m.Funcs[key]
		r := newRefResolver(m, fn)
		var inIf, inLoop int
		var walk func(n ast.Node)
		walk = func(n ast.Node) {
			switch x := n.(type) {
			case nil:
				return
			case *ast.IfStmt:
				walk(x.Init)
				walk(x.Cond)
				inIf++
				walk(x.Body)
				inIf--
				walk(x.Else)
				return
			case *ast.ForStmt, *ast.RangeStmt:
				inLoop++
				defer func() { inLoop-- }()
			case *ast.CallExpr:
				op := classifyCall(x)
				if op.Class == OpWait && m.isMechOp(op) && inIf > 0 && inLoop == 0 {
					if ref := r.ref(op.Recv); ref.valid() && broadcast[ref.Key] {
						pass.reportf(x.Pos(),
							"%s waits on %s under an 'if' but the condition is broadcast with SignalAll — re-check the guard in a loop",
							key, ref.Disp)
					}
				}
			}
			for _, c := range childNodes(n) {
				walk(c)
			}
		}
		walk(fn.Decl.Body)
	}

	// Pass 3: parks outside the owning monitor, checked on the replay of
	// call-graph roots (frames no frame calls), where the full held
	// context is visible. Only components with possession semantics
	// count: a condition wait, queue enqueue, or crowd join presumes its
	// owner is held. CSP channels also record an owning Net, but channel
	// ops are the mechanism's whole protocol — there is nothing to hold.
	isCallee := map[string]bool{}
	for _, f := range m.frames {
		for _, ev := range f.events {
			if ev.kind == evCall {
				isCallee[ev.callee] = true
			}
		}
	}
	for _, f := range m.frames {
		if isCallee[f.key] {
			continue
		}
		fn := f.fn.Name
		m.replay(f, func(_ *summaryEvent, sites, held []AcqSite) {
			for _, site := range sites {
				switch site.Ref.Class {
				case "condition", "queue", "crowd":
				default:
					continue
				}
				if site.Ref.Owner == "" || holds(held, site.Ref.Owner) {
					continue
				}
				ref := qualifyRef(site.Ref, fn)
				msg := "%s parks on %s without holding its owner %s — the guard check and the park are not atomic (check-then-park window)"
				if len(site.Path) > 0 {
					msg += " via " + strings.Join(site.Path, " → ")
				}
				pass.reportf(site.Pos, msg, fn, lockDisp(ref), lockDisp(LockRef{Key: ref.Owner}))
			}
		})
	}
}
